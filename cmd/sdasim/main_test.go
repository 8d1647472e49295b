package main

import (
	"os"
	"path/filepath"
	"strings"
	"testing"
)

func TestList(t *testing.T) {
	var b strings.Builder
	if err := run([]string{"-list"}, &b); err != nil {
		t.Fatal(err)
	}
	out := b.String()
	for _, want := range []string{"table1", "fig2a", "fig2b", "fig3", "fig4", "combined"} {
		if !strings.Contains(out, want) {
			t.Errorf("list output missing %q", want)
		}
	}
}

func TestRunSingleExperiment(t *testing.T) {
	var b strings.Builder
	err := run([]string{"-exp", "abl-m", "-horizon", "1500", "-reps", "1", "-format", "all"}, &b)
	if err != nil {
		t.Fatal(err)
	}
	out := b.String()
	for _, want := range []string{"== abl-m", "paper:", "UD", "EQF", "csv" /* never */} {
		if want == "csv" {
			continue
		}
		if !strings.Contains(out, want) {
			t.Errorf("output missing %q:\n%s", want, out)
		}
	}
	// "all" format includes the CSV header line.
	if !strings.Contains(out, "UD,UD ci95") {
		t.Error("format=all missing CSV section")
	}
}

// TestRunParallelFlagIsDeterministic compares full CSV output across
// -parallel settings; only the timing header may differ.
func TestRunParallelFlagIsDeterministic(t *testing.T) {
	render := func(parallel string) string {
		t.Helper()
		var b strings.Builder
		err := run([]string{"-exp", "fig2b", "-horizon", "900", "-reps", "2",
			"-format", "csv", "-parallel", parallel}, &b)
		if err != nil {
			t.Fatal(err)
		}
		// Drop the "== id: title (elapsed)" header; elapsed time is the
		// one legitimately nondeterministic byte range.
		lines := strings.Split(b.String(), "\n")
		kept := lines[:0]
		for _, l := range lines {
			if !strings.HasPrefix(l, "== ") {
				kept = append(kept, l)
			}
		}
		return strings.Join(kept, "\n")
	}
	seq := render("1")
	if !strings.Contains(seq, "UD,UD ci95") {
		t.Fatalf("csv output missing data:\n%s", seq)
	}
	for _, p := range []string{"0", "8"} {
		if got := render(p); got != seq {
			t.Errorf("-parallel %s output diverges from -parallel 1:\n%s\nvs:\n%s", p, got, seq)
		}
	}
}

func TestRunMultipleIDs(t *testing.T) {
	var b strings.Builder
	err := run([]string{"-exp", "table1,abl-m", "-horizon", "1200", "-reps", "1"}, &b)
	if err != nil {
		t.Fatal(err)
	}
	out := b.String()
	if !strings.Contains(out, "== table1") || !strings.Contains(out, "== abl-m") {
		t.Errorf("multi-experiment output incomplete:\n%s", out)
	}
}

func TestRunWritesFiles(t *testing.T) {
	dir := t.TempDir()
	var b strings.Builder
	err := run([]string{"-exp", "table1", "-out", dir}, &b)
	if err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(filepath.Join(dir, "table1.txt"))
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(string(data), "Earliest Deadline First") {
		t.Error("written file incomplete")
	}
}

// TestUnknownExperimentListsValidOnes pins the error UX: a typo'd -exp
// points at -list and enumerates the catalogue instead of failing bare.
func TestUnknownExperimentListsValidOnes(t *testing.T) {
	var b strings.Builder
	err := run([]string{"-exp", "fig9z"}, &b)
	if err == nil {
		t.Fatal("unknown experiment accepted")
	}
	msg := err.Error()
	if !strings.Contains(msg, "fig9z") {
		t.Errorf("error does not echo the bad id: %q", msg)
	}
	if !strings.Contains(msg, "-list") {
		t.Errorf("error does not point at -list: %q", msg)
	}
	for _, id := range []string{"table1", "fig2a", "fig2b", "fig3", "fig4", "combined"} {
		if !strings.Contains(msg, id) {
			t.Errorf("error listing missing %q: %q", id, msg)
		}
	}
}

// TestNodesOverride runs a sweep whose node-dependent parameters derive
// from Config.Nodes (abl-hot builds its per-node rate multipliers from
// it), so -nodes must scale the whole experiment without code edits.
func TestNodesOverride(t *testing.T) {
	var b strings.Builder
	err := run([]string{"-exp", "abl-hot", "-nodes", "8", "-horizon", "400",
		"-reps", "1", "-format", "csv"}, &b)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(b.String(), "== abl-hot") {
		t.Errorf("output missing experiment header:\n%s", b.String())
	}
	// The override must change results: the same tiny sweep at the
	// default 6 nodes yields a different CSV body.
	var def strings.Builder
	if err := run([]string{"-exp", "abl-hot", "-horizon", "400",
		"-reps", "1", "-format", "csv"}, &def); err != nil {
		t.Fatal(err)
	}
	strip := func(s string) string {
		lines := strings.Split(s, "\n")
		kept := lines[:0]
		for _, l := range lines {
			if !strings.HasPrefix(l, "== ") {
				kept = append(kept, l)
			}
		}
		return strings.Join(kept, "\n")
	}
	if strip(b.String()) == strip(def.String()) {
		t.Error("-nodes 8 produced byte-identical output to the 6-node default")
	}
}

func TestRunErrors(t *testing.T) {
	tests := []struct {
		name string
		args []string
	}{
		{name: "no exp", args: []string{}},
		{name: "unknown exp", args: []string{"-exp", "nope"}},
		{name: "bad format", args: []string{"-exp", "table1", "-format", "xml"}},
		{name: "queue flag undefined", args: []string{"-exp", "table1", "-queue", "heap"}},
		{name: "negative nodes", args: []string{"-exp", "table1", "-nodes", "-3"}},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			var b strings.Builder
			if err := run(tt.args, &b); err == nil {
				t.Error("run succeeded, want error")
			}
		})
	}
}
