// Command benchcheck turns `go test -bench` output into a small JSON
// document and compares a current run against a committed baseline, so CI
// can fail on throughput or allocation regressions without external
// tooling.
//
// Usage:
//
//	benchcheck -record current.json -runbench [-benchtime 2s]
//	go test -run '^$' -bench ... -benchmem . | benchcheck -record current.json
//	benchcheck -baseline BENCH_pr3.json -current current.json -tolerance 0.20
//
// With -runbench, recording executes the repo's recorded bench set
// itself (the same `go test -bench` invocations CI runs — see
// benchCommands) and parses the output, so a BENCH_pr*.json baseline is
// reproduced with one command instead of hand-assembled pipelines.
// Without it, recording parses benchmark result lines on stdin. Either
// way the output is {"benchmarks": {name: {unit: value}}}. Comparison
// reads the baseline's
// "after" section (the committed post-optimization numbers; a flat
// "benchmarks" map also works) and fails when a baseline benchmark is
// missing from the current run (a renamed or moved benchmark must not
// drop out of the gate silently), or when, for any benchmark present in
// both files:
//
//   - a tasks/s metric drops by more than the tolerance, or
//   - (without tasks/s) ns/op grows by more than the tolerance, or
//   - allocs/op grows by more than the tolerance plus an absolute slack
//     of 2 (so a 0 → 1 blip on a noisy runner does not fail the build,
//     but losing a pooled path does).
//
// -zeroalloc names benchmarks (comma-separated) that must report exactly
// 0 allocs/op in the current run — no tolerance, no slack. The zero-alloc
// hot path is a hard invariant, not a number that may drift.
package main

import (
	"bufio"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"os/exec"
	"runtime"
	"sort"
	"strconv"
	"strings"
)

// Metrics maps a unit ("ns/op", "tasks/s", "allocs/op", ...) to its value.
type Metrics map[string]float64

// File is the JSON document benchcheck reads and writes.
type File struct {
	// Note is free-form provenance (machine, date, commit).
	Note string `json:"note,omitempty"`
	// Before optionally records the pre-optimization numbers for
	// documentation; comparison never reads it.
	Before map[string]Metrics `json:"before,omitempty"`
	// After holds the baseline numbers comparisons run against.
	After map[string]Metrics `json:"after,omitempty"`
	// Benchmarks is the flat form -record emits.
	Benchmarks map[string]Metrics `json:"benchmarks,omitempty"`
}

// table returns the map comparisons should use.
func (f *File) table() map[string]Metrics {
	if len(f.After) > 0 {
		return f.After
	}
	return f.Benchmarks
}

func main() {
	var (
		record    = flag.String("record", "", "write recorded benchmark JSON here (parses stdin unless -runbench)")
		runBench  = flag.Bool("runbench", false, "with -record: run the repo's bench set via `go test` instead of reading stdin")
		benchtime = flag.String("benchtime", "2s", "with -runbench: -benchtime passed to `go test`")
		baseline  = flag.String("baseline", "", "baseline JSON to compare against")
		current   = flag.String("current", "", "current JSON (from -record) to check")
		tolerance = flag.Float64("tolerance", 0.20, "allowed relative regression")
		zeroAlloc = flag.String("zeroalloc", "", "comma-separated benchmarks that must report exactly 0 allocs/op")
	)
	flag.Parse()

	switch {
	case *record != "" && *runBench:
		if err := doRunRecord(*record, *benchtime); err != nil {
			fmt.Fprintln(os.Stderr, "benchcheck:", err)
			os.Exit(1)
		}
	case *record != "":
		if err := doRecord(*record); err != nil {
			fmt.Fprintln(os.Stderr, "benchcheck:", err)
			os.Exit(1)
		}
	case *baseline != "" && *current != "":
		ok, err := doCompare(*baseline, *current, *tolerance, splitNames(*zeroAlloc))
		if err != nil {
			fmt.Fprintln(os.Stderr, "benchcheck:", err)
			os.Exit(1)
		}
		if !ok {
			os.Exit(1)
		}
	default:
		flag.Usage()
		os.Exit(2)
	}
}

// benchCommands returns the `go test` invocations of the repo's
// recorded bench set — the suite every BENCH_pr*.json baseline freezes:
// the whole-system throughput and replication benchmarks at the module
// root, the topology scaling suite in internal/system and the isolated
// event core in internal/sim, both on the spread ladder queue. The argv form keeps the set testable
// without executing anything.
func benchCommands(benchtime string) [][]string {
	sets := []struct{ pkg, pattern string }{
		{".", "BenchmarkSimulationThroughput|BenchmarkRunReplications"},
		{"./internal/system", "BenchmarkScalingThroughput"},
		{"./internal/sim", "BenchmarkEventCoreScaling"},
	}
	var out [][]string
	for _, s := range sets {
		out = append(out, []string{
			"go", "test", "-run", "^$", "-bench", s.pattern,
			"-benchmem", "-benchtime", benchtime, s.pkg,
		})
	}
	return out
}

// doRunRecord executes the recorded bench set and writes its parsed
// results, making baseline files reproducible with one command.
func doRunRecord(path, benchtime string) error {
	benches := map[string]Metrics{}
	for _, argv := range benchCommands(benchtime) {
		fmt.Println("#", strings.Join(argv, " "))
		cmd := exec.Command(argv[0], argv[1:]...)
		cmd.Stderr = os.Stderr
		pipe, err := cmd.StdoutPipe()
		if err != nil {
			return err
		}
		if err := cmd.Start(); err != nil {
			return err
		}
		sc := bufio.NewScanner(pipe)
		for sc.Scan() {
			line := sc.Text()
			fmt.Println(line)
			if name, m, ok := ParseBenchLine(line); ok {
				benches[name] = m
			}
		}
		scanErr := sc.Err()
		if err := cmd.Wait(); err != nil {
			return fmt.Errorf("%s: %w", strings.Join(argv, " "), err)
		}
		if scanErr != nil {
			return scanErr
		}
	}
	if len(benches) == 0 {
		return fmt.Errorf("bench set produced no benchmark result lines")
	}
	note := fmt.Sprintf("recorded by benchcheck -runbench, %s %s/%s",
		runtime.Version(), runtime.GOOS, runtime.GOARCH)
	out, err := json.MarshalIndent(&File{Note: note, Benchmarks: benches}, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(out, '\n'), 0o644)
}

func doRecord(path string) error {
	benches := map[string]Metrics{}
	sc := bufio.NewScanner(os.Stdin)
	for sc.Scan() {
		line := sc.Text()
		fmt.Println(line) // pass output through for the CI log
		name, m, ok := ParseBenchLine(line)
		if !ok {
			continue
		}
		benches[name] = m
	}
	if err := sc.Err(); err != nil {
		return err
	}
	if len(benches) == 0 {
		return fmt.Errorf("no benchmark result lines on stdin")
	}
	out, err := json.MarshalIndent(&File{Benchmarks: benches}, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(out, '\n'), 0o644)
}

// ParseBenchLine parses one `go test -bench` result line, e.g.
//
//	BenchmarkSimulationThroughput  472447  7799 ns/op  3124831 tasks/s  0 B/op  0 allocs/op
//
// returning the benchmark name (with any -cpu suffix trimmed) and its
// metrics. ok is false for non-benchmark lines.
func ParseBenchLine(line string) (string, Metrics, bool) {
	fields := strings.Fields(line)
	if len(fields) < 4 || !strings.HasPrefix(fields[0], "Benchmark") {
		return "", nil, false
	}
	if _, err := strconv.Atoi(fields[1]); err != nil {
		return "", nil, false // iteration count must follow the name
	}
	m := Metrics{}
	for i := 2; i+1 < len(fields); i += 2 {
		v, err := strconv.ParseFloat(fields[i], 64)
		if err != nil {
			return "", nil, false
		}
		m[fields[i+1]] = v
	}
	if len(m) == 0 {
		return "", nil, false
	}
	name := fields[0]
	if i := strings.LastIndex(name, "-"); i > 0 {
		if _, err := strconv.Atoi(name[i+1:]); err == nil {
			name = name[:i] // trim the GOMAXPROCS suffix
		}
	}
	return name, m, true
}

// splitNames parses the -zeroalloc list.
func splitNames(s string) []string {
	var out []string
	for _, name := range strings.Split(s, ",") {
		if name = strings.TrimSpace(name); name != "" {
			out = append(out, name)
		}
	}
	return out
}

func doCompare(basePath, curPath string, tol float64, zeroAlloc []string) (bool, error) {
	base, err := readFile(basePath)
	if err != nil {
		return false, err
	}
	cur, err := readFile(curPath)
	if err != nil {
		return false, err
	}
	baseTab, curTab := base.table(), cur.table()

	names := make([]string, 0, len(baseTab))
	for name := range baseTab {
		names = append(names, name)
	}
	sort.Strings(names)

	ok, compared := true, 0
	for _, name := range names {
		b, c := baseTab[name], curTab[name]
		if c == nil {
			fmt.Printf("FAIL %s: not in current run\n", name)
			ok = false
			continue
		}
		compared++
		fs := failures(b, c, tol)
		for _, f := range fs {
			fmt.Printf("FAIL %s: %s\n", name, f)
			ok = false
		}
		if len(fs) == 0 {
			fmt.Printf("ok   %s\n", name)
		}
	}
	if compared == 0 {
		return false, fmt.Errorf("no benchmarks in common between %s and %s", basePath, curPath)
	}
	// The zero-alloc invariant checks the current run alone: a named
	// benchmark must be present and report exactly 0 allocs/op.
	for _, name := range zeroAlloc {
		c := curTab[name]
		if c == nil {
			fmt.Printf("FAIL %s: -zeroalloc benchmark not in current run\n", name)
			ok = false
			continue
		}
		allocs, have := c["allocs/op"]
		switch {
		case !have:
			fmt.Printf("FAIL %s: no allocs/op metric (run with -benchmem)\n", name)
			ok = false
		case allocs != 0:
			fmt.Printf("FAIL %s: allocs/op %.0f, want exactly 0\n", name, allocs)
			ok = false
		default:
			fmt.Printf("ok   %s: 0 allocs/op\n", name)
		}
	}
	return ok, nil
}

// failures lists the regressions of current c against baseline b.
func failures(b, c Metrics, tol float64) []string {
	var out []string
	if ts, have := b["tasks/s"]; have && ts > 0 {
		if cur := c["tasks/s"]; cur < ts*(1-tol) {
			out = append(out, fmt.Sprintf("tasks/s %.0f -> %.0f (%.1f%% drop, tolerance %.0f%%)",
				ts, cur, 100*(1-cur/ts), 100*tol))
		}
	} else if ns, have := b["ns/op"]; have && ns > 0 {
		if cur := c["ns/op"]; cur > ns*(1+tol) {
			out = append(out, fmt.Sprintf("ns/op %.0f -> %.0f (%.1f%% slower, tolerance %.0f%%)",
				ns, cur, 100*(cur/ns-1), 100*tol))
		}
	}
	if ba, have := b["allocs/op"]; have {
		if cur, haveCur := c["allocs/op"]; haveCur && cur > ba*(1+tol)+2 {
			out = append(out, fmt.Sprintf("allocs/op %.0f -> %.0f (tolerance %.0f%% + 2)",
				ba, cur, 100*tol))
		}
	}
	return out
}

func readFile(path string) (*File, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var f File
	if err := json.Unmarshal(data, &f); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &f, nil
}
