package main

import (
	"os"
	"path/filepath"
	"strings"
	"testing"
)

func runCmd(t *testing.T, args ...string) (string, string, error) {
	t.Helper()
	var out, errOut strings.Builder
	err := run(args, &out, &errOut)
	return out.String(), errOut.String(), err
}

func TestListPresets(t *testing.T) {
	out, _, err := runCmd(t, "-list")
	if err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{"burst", "ramp", "outage", "heavytail", "storm"} {
		if !strings.Contains(out, want) {
			t.Errorf("preset list missing %q:\n%s", want, out)
		}
	}
}

func TestPresetRunEmitsCSV(t *testing.T) {
	out, errOut, err := runCmd(t, "-preset", "burst", "-horizon", "3000", "-reps", "2")
	if err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimRight(out, "\n"), "\n")
	if !strings.HasPrefix(lines[0], "t_start,t_end,") {
		t.Fatalf("missing CSV header:\n%s", out)
	}
	if len(lines) != 1+50 {
		t.Errorf("windows = %d, want 50 (Horizon/50 default interval)", len(lines)-1)
	}
	if !strings.Contains(errOut, "MD_local") || !strings.Contains(errOut, "burst") {
		t.Errorf("summary line missing:\n%s", errOut)
	}
}

func TestSpecFileRun(t *testing.T) {
	dir := t.TempDir()
	spec := filepath.Join(dir, "spec.json")
	content := `{
		"name": "spike",
		"interval": 500,
		"phases": [
			{"duration": 1000, "rate": 1},
			{"duration": 500, "rate": 2, "endRate": 3},
			{"duration": 0, "rate": 1}
		],
		"events": [{"kind": "outage", "node": 0, "at": 1200, "duration": 300}],
		"demand": {"dist": "pareto", "alpha": 2.2}
	}`
	if err := os.WriteFile(spec, []byte(content), 0o644); err != nil {
		t.Fatal(err)
	}
	outFile := filepath.Join(dir, "series.csv")
	out, _, err := runCmd(t, "-spec", spec, "-horizon", "2500", "-reps", "1", "-out", outFile, "-quiet")
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out, "wrote ") {
		t.Errorf("stdout = %q, want wrote-file notice", out)
	}
	data, err := os.ReadFile(outFile)
	if err != nil {
		t.Fatal(err)
	}
	if lines := strings.Count(string(data), "\n"); lines != 1+5 {
		t.Errorf("csv lines = %d, want header + 5 windows (2500/500)", lines)
	}
}

// TestParallelFlagIsByteIdentical is the CLI-level half of the
// determinism acceptance criterion (the CI job repeats it end to end).
func TestParallelFlagIsByteIdentical(t *testing.T) {
	csv := func(parallel string) string {
		t.Helper()
		out, _, err := runCmd(t, "-preset", "burst", "-horizon", "2500", "-reps", "4",
			"-parallel", parallel, "-quiet")
		if err != nil {
			t.Fatal(err)
		}
		return out
	}
	want := csv("1")
	for _, p := range []string{"0", "8"} {
		if got := csv(p); got != want {
			t.Errorf("-parallel %s output differs from -parallel 1", p)
		}
	}
}

func TestStrategyAndLoadOverrides(t *testing.T) {
	_, errOut, err := runCmd(t, "-preset", "burst", "-horizon", "2000", "-reps", "1",
		"-ssp", "EQF", "-psp", "DIV-1", "-load", "0.7", "-nodes", "4")
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(errOut, "EQF-DIV-1") || !strings.Contains(errOut, "load 0.7") {
		t.Errorf("summary does not reflect overrides:\n%s", errOut)
	}
}

func TestErrors(t *testing.T) {
	dir := t.TempDir()
	badSpec := filepath.Join(dir, "bad.json")
	if err := os.WriteFile(badSpec, []byte(`{"phases": [{"duration": -1, "rate": 1}]}`), 0o644); err != nil {
		t.Fatal(err)
	}
	tests := []struct {
		name string
		args []string
	}{
		{name: "no scenario", args: []string{}},
		{name: "both spec and preset", args: []string{"-spec", "x.json", "-preset", "burst"}},
		{name: "unknown preset", args: []string{"-preset", "nope"}},
		{name: "missing spec file", args: []string{"-spec", filepath.Join(dir, "absent.json")}},
		{name: "invalid spec", args: []string{"-spec", badSpec}},
		{name: "bad horizon", args: []string{"-preset", "burst", "-horizon", "-5"}},
		{name: "bad strategy", args: []string{"-preset", "burst", "-ssp", "WAT", "-horizon", "1000"}},
		{name: "event beyond nodes", args: []string{"-preset", "outage", "-nodes", "1", "-horizon", "1000"}},
		{name: "queue flag undefined", args: []string{"-preset", "burst", "-queue", "heap", "-horizon", "1000"}},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			if _, _, err := runCmd(t, tt.args...); err == nil {
				t.Error("run succeeded, want error")
			}
		})
	}
}

// TestChurnPresetGeneratesAndRuns: the generated churn preset runs
// end-to-end, is listed, deterministic for one seed, and different for
// another.
func TestChurnPreset(t *testing.T) {
	list, _, err := runCmd(t, "-list")
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(list, "churn") {
		t.Fatalf("-list missing churn preset:\n%s", list)
	}
	out1, errOut, err := runCmd(t, "-preset", "churn", "-horizon", "3000",
		"-reps", "2", "-nodes", "16", "-churn-rate", "3")
	if err != nil {
		t.Fatal(err)
	}
	if !strings.HasPrefix(out1, "t_start,t_end,") {
		t.Fatalf("churn preset emitted no CSV:\n%s", out1)
	}
	if !strings.Contains(errOut, "churn-16") {
		t.Errorf("summary line missing generated scenario name:\n%s", errOut)
	}
	out2, _, err := runCmd(t, "-preset", "churn", "-horizon", "3000",
		"-reps", "2", "-nodes", "16", "-churn-rate", "3")
	if err != nil {
		t.Fatal(err)
	}
	if out1 != out2 {
		t.Error("churn preset is not deterministic for one seed")
	}
	out3, _, err := runCmd(t, "-preset", "churn", "-horizon", "3000",
		"-reps", "2", "-nodes", "16", "-churn-rate", "3", "-seed", "9")
	if err != nil {
		t.Fatal(err)
	}
	if out1 == out3 {
		t.Error("churn preset ignored the seed")
	}
}
