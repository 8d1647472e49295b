package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

func TestParseBenchLine(t *testing.T) {
	name, m, ok := ParseBenchLine(
		"BenchmarkSimulationThroughput-8 \t  472447\t      7799 ns/op\t   3124831 tasks/s\t       0 B/op\t       0 allocs/op")
	if !ok {
		t.Fatal("ParseBenchLine rejected a valid line")
	}
	if name != "BenchmarkSimulationThroughput" {
		t.Fatalf("name = %q, want cpu suffix trimmed", name)
	}
	for unit, want := range map[string]float64{
		"ns/op": 7799, "tasks/s": 3124831, "B/op": 0, "allocs/op": 0,
	} {
		if m[unit] != want {
			t.Fatalf("%s = %v, want %v", unit, m[unit], want)
		}
	}
}

func TestParseBenchLineSubBenchmark(t *testing.T) {
	name, m, ok := ParseBenchLine(
		"BenchmarkRunReplications/parallel=1-4   100  12727211 ns/op  76714 B/op  1256 allocs/op")
	if !ok || name != "BenchmarkRunReplications/parallel=1" {
		t.Fatalf("parsed (%q, ok=%v), want sub-benchmark name kept, suffix trimmed", name, ok)
	}
	if m["allocs/op"] != 1256 {
		t.Fatalf("allocs/op = %v, want 1256", m["allocs/op"])
	}
}

func TestParseBenchLineRejectsNoise(t *testing.T) {
	for _, line := range []string{
		"goos: linux",
		"PASS",
		"ok  \trepro\t8.644s",
		"BenchmarkBroken no-iteration-count ns/op",
		"cpu: Intel(R) Xeon(R)",
	} {
		if _, _, ok := ParseBenchLine(line); ok {
			t.Fatalf("ParseBenchLine accepted %q", line)
		}
	}
}

func TestFailures(t *testing.T) {
	base := Metrics{"tasks/s": 3000000, "ns/op": 8000, "allocs/op": 0}
	if fs := failures(base, Metrics{"tasks/s": 2900000, "ns/op": 8200, "allocs/op": 1}, 0.2); len(fs) != 0 {
		t.Fatalf("small drift flagged: %v", fs)
	}
	if fs := failures(base, Metrics{"tasks/s": 2000000, "ns/op": 12000, "allocs/op": 0}, 0.2); len(fs) != 1 {
		t.Fatalf("33%% tasks/s drop not flagged exactly once: %v", fs)
	}
	if fs := failures(base, Metrics{"tasks/s": 3000000, "ns/op": 8000, "allocs/op": 50}, 0.2); len(fs) != 1 {
		t.Fatalf("alloc regression not flagged: %v", fs)
	}
	// Without tasks/s, ns/op is the criterion.
	nsOnly := Metrics{"ns/op": 10000, "allocs/op": 100}
	if fs := failures(nsOnly, Metrics{"ns/op": 13000, "allocs/op": 100}, 0.2); len(fs) != 1 {
		t.Fatalf("ns/op regression not flagged: %v", fs)
	}
}

func TestSplitNames(t *testing.T) {
	if got := splitNames(""); got != nil {
		t.Fatalf("splitNames(\"\") = %v, want nil", got)
	}
	got := splitNames("BenchmarkA, BenchmarkB ,,BenchmarkC")
	want := []string{"BenchmarkA", "BenchmarkB", "BenchmarkC"}
	if len(got) != len(want) {
		t.Fatalf("splitNames = %v, want %v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("splitNames = %v, want %v", got, want)
		}
	}
}

// benchFileWriter returns a function that writes a bench File as JSON
// into a per-test directory and returns its path.
func benchFileWriter(t *testing.T) func(name string, f *File) string {
	dir := t.TempDir()
	return func(name string, f *File) string {
		t.Helper()
		data, err := json.Marshal(f)
		if err != nil {
			t.Fatal(err)
		}
		path := filepath.Join(dir, name)
		if err := os.WriteFile(path, data, 0o644); err != nil {
			t.Fatal(err)
		}
		return path
	}
}

// TestZeroAllocGate drives doCompare end to end: a benchmark within
// tolerance passes the relative checks but fails the -zeroalloc
// invariant the moment allocs/op is nonzero, missing, or the benchmark
// is absent from the current run.
func TestZeroAllocGate(t *testing.T) {
	write := benchFileWriter(t)
	base := write("base.json", &File{Benchmarks: map[string]Metrics{
		"BenchmarkHot": {"tasks/s": 3000000, "allocs/op": 0},
	}})

	cases := []struct {
		name   string
		cur    Metrics
		zero   []string
		wantOK bool
	}{
		{"zero-holds", Metrics{"tasks/s": 2950000, "allocs/op": 0}, []string{"BenchmarkHot"}, true},
		{"one-alloc-fails", Metrics{"tasks/s": 2950000, "allocs/op": 1}, []string{"BenchmarkHot"}, false},
		{"no-benchmem-fails", Metrics{"tasks/s": 2950000}, []string{"BenchmarkHot"}, false},
		{"absent-fails", Metrics{"tasks/s": 2950000, "allocs/op": 0}, []string{"BenchmarkMissing"}, false},
		{"ungated-ok", Metrics{"tasks/s": 2950000, "allocs/op": 1}, nil, true},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			cur := write(tc.name+".json", &File{Benchmarks: map[string]Metrics{
				"BenchmarkHot": tc.cur,
			}})
			ok, err := doCompare(base, cur, 0.2, tc.zero)
			if err != nil {
				t.Fatal(err)
			}
			if ok != tc.wantOK {
				t.Fatalf("doCompare ok = %v, want %v", ok, tc.wantOK)
			}
		})
	}
}

// TestMissingBaselineBenchmarkFails: a baseline benchmark absent from
// the current run fails the comparison, so moving or renaming a gated
// benchmark cannot silently drop it from the gate.
func TestMissingBaselineBenchmarkFails(t *testing.T) {
	write := benchFileWriter(t)
	base := write("base.json", &File{Benchmarks: map[string]Metrics{
		"BenchmarkKept":  {"tasks/s": 1000},
		"BenchmarkMoved": {"tasks/s": 1000},
	}})
	partial := write("partial.json", &File{Benchmarks: map[string]Metrics{
		"BenchmarkKept": {"tasks/s": 1000},
	}})
	full := write("full.json", &File{Benchmarks: map[string]Metrics{
		"BenchmarkKept":  {"tasks/s": 1000},
		"BenchmarkMoved": {"tasks/s": 1000},
	}})
	if ok, err := doCompare(base, partial, 0.2, nil); err != nil || ok {
		t.Fatalf("current run missing a baseline benchmark: ok = %v, err = %v; want a failure", ok, err)
	}
	if ok, err := doCompare(base, full, 0.2, nil); err != nil || !ok {
		t.Fatalf("complete current run: ok = %v, err = %v; want a pass", ok, err)
	}
}

// TestBenchCommandsShape pins the recorded bench set: the -runbench mode
// must run exactly the suite CI's regression gate compares against, with
// -benchmem (the alloc gates need it) and the caller's -benchtime.
func TestBenchCommandsShape(t *testing.T) {
	cmds := benchCommands("7s")
	if len(cmds) != 3 {
		t.Fatalf("bench set has %d commands, want 3", len(cmds))
	}
	wantPatterns := map[string]string{
		".":                 "BenchmarkSimulationThroughput",
		"./internal/system": "BenchmarkScalingThroughput",
		"./internal/sim":    "BenchmarkEventCoreScaling",
	}
	for _, argv := range cmds {
		if argv[0] != "go" || argv[1] != "test" {
			t.Fatalf("command %v is not a go test invocation", argv)
		}
		joined := strings.Join(argv, " ")
		for _, flag := range []string{"-benchmem", "-benchtime 7s", "-run ^$"} {
			if !strings.Contains(joined, flag) {
				t.Errorf("command %q missing %q", joined, flag)
			}
		}
		pkg := argv[len(argv)-1]
		want, ok := wantPatterns[pkg]
		if !ok {
			t.Fatalf("unexpected package %q in bench set", pkg)
		}
		delete(wantPatterns, pkg)
		if !strings.Contains(joined, want) {
			t.Errorf("package %s command %q missing benchmark %s", pkg, joined, want)
		}
	}
	if len(wantPatterns) != 0 {
		t.Fatalf("bench set missing packages: %v", wantPatterns)
	}
}
