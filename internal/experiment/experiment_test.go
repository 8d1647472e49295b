package experiment

import (
	"context"
	"strings"
	"testing"

	"repro/internal/session"
	"repro/internal/stats"
)

// runExp runs e on a fresh session.
func runExp(t *testing.T, e Experiment, o Options) (*Result, error) {
	t.Helper()
	sess := session.New()
	defer sess.Close()
	return e.Run(context.Background(), sess, o)
}

// tinyOptions keeps unit tests fast; shape assertions live in the system
// package where horizons are longer.
func tinyOptions() Options {
	return Options{Horizon: 2500, Reps: 2, Seed: 7}
}

func TestRegistryComplete(t *testing.T) {
	// Every paper artifact, ablation and extension must be registered.
	want := []string{
		"table1", "fig2a", "fig2b", "fig3", "fig4", "combined",
		"abl-pexerr", "abl-abort", "abl-mlf", "abl-m", "abl-hetm", "abl-hot",
		"abl-relflex", "ext-as", "ext-adiv", "ext-preempt", "diag-stages",
	}
	for _, id := range want {
		if _, err := ByID(id); err != nil {
			t.Errorf("experiment %q not registered: %v", id, err)
		}
	}
	if got := len(All()); got != len(want) {
		t.Errorf("registry has %d experiments, want %d", got, len(want))
	}
	if _, err := ByID("nope"); err == nil {
		t.Error("ByID(nope) should fail")
	}
}

func TestIDsSorted(t *testing.T) {
	ids := IDs()
	for i := 1; i < len(ids); i++ {
		if ids[i-1] >= ids[i] {
			t.Fatalf("ids not sorted: %v", ids)
		}
	}
}

func TestOptionsDefaults(t *testing.T) {
	o := Options{}.withDefaults()
	def := DefaultOptions()
	if o.Horizon != def.Horizon || o.Reps != def.Reps || o.Seed != def.Seed ||
		o.TargetCI != def.TargetCI || o.MaxReps != def.MaxReps || o.Parallelism != def.Parallelism {
		t.Errorf("withDefaults() = %+v, want %+v", o, def)
	}
	o = Options{Horizon: 123, Reps: 4, Seed: 9}.withDefaults()
	if o.Horizon != 123 || o.Reps != 4 || o.Seed != 9 {
		t.Errorf("withDefaults clobbered explicit values: %+v", o)
	}
}

func TestAdaptiveReplicationTargetsCI(t *testing.T) {
	// With a loose target nothing extra runs; with a tight one, more
	// replications shrink the interval (or the MaxReps cap is reached).
	loose, err := ByID("abl-m")
	if err != nil {
		t.Fatal(err)
	}
	base := Options{Horizon: 1200, Reps: 2, Seed: 3}
	resBase, err := runExp(t, loose, base)
	if err != nil {
		t.Fatal(err)
	}
	tight := base
	tight.TargetCI = 0.5 // half a percentage point
	tight.MaxReps = 6
	resTight, err := runExp(t, loose, tight)
	if err != nil {
		t.Fatal(err)
	}
	var worseCount int
	for ci := range resTight.Figure.Curves {
		for pi := range resTight.Figure.Curves[ci].Points {
			tightHW := resTight.Figure.Curves[ci].Points[pi].HalfCI
			baseHW := resBase.Figure.Curves[ci].Points[pi].HalfCI
			if tightHW > baseHW+1e-9 {
				worseCount++
			}
		}
	}
	if worseCount > 0 {
		t.Errorf("adaptive replication widened %d intervals", worseCount)
	}
}

func TestOptionsMaxRepsDefaults(t *testing.T) {
	o := Options{Reps: 12}.withDefaults()
	if o.MaxReps != 12 {
		t.Errorf("MaxReps = %d, want raised to Reps", o.MaxReps)
	}
	if def := (Options{}).withDefaults(); def.MaxReps != 10 {
		t.Errorf("default MaxReps = %d, want 10", def.MaxReps)
	}
}

func TestTable1(t *testing.T) {
	e, err := ByID("table1")
	if err != nil {
		t.Fatal(err)
	}
	res, err := runExp(t, e, tinyOptions())
	if err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{
		"Earliest Deadline First", "k (# of nodes)", "frac_local", "rel_flex",
		"lambda_local", "lambda_global",
	} {
		if !strings.Contains(res.Notes, want) {
			t.Errorf("table1 notes missing %q", want)
		}
	}
}

func TestFig2bStructure(t *testing.T) {
	e, err := ByID("fig2b")
	if err != nil {
		t.Fatal(err)
	}
	res, err := runExp(t, e, tinyOptions())
	if err != nil {
		t.Fatal(err)
	}
	fig := res.Figure
	if len(fig.Curves) != 4 {
		t.Fatalf("fig2b has %d curves, want 4 (UD/ED/EQS/EQF)", len(fig.Curves))
	}
	for _, c := range fig.Curves {
		if len(c.Points) != 5 {
			t.Errorf("curve %q has %d points, want 5 loads", c.Label, len(c.Points))
		}
		for _, p := range c.Points {
			if p.Y < 0 || p.Y > 100 {
				t.Errorf("curve %q: MD %v%% out of range", c.Label, p.Y)
			}
		}
	}
	if _, ok := res.Figure.YAt("UD", 0.5); !ok {
		t.Error("UD curve missing load 0.5 point")
	}
}

func TestFig3And4Structure(t *testing.T) {
	tests := []struct {
		id         string
		wantCurves int
		wantPoints int
	}{
		{id: "fig2a", wantCurves: 4, wantPoints: 5},
		{id: "fig3", wantCurves: 4, wantPoints: 5}, // UD/EQF × local/global
		{id: "fig4", wantCurves: 8, wantPoints: 5}, // 4 strategies × 2 classes
		{id: "combined", wantCurves: 8, wantPoints: 3},
		{id: "abl-pexerr", wantCurves: 3, wantPoints: 5},
		{id: "abl-abort", wantCurves: 6, wantPoints: 3},
		{id: "abl-relflex", wantCurves: 2, wantPoints: 5},
		{id: "abl-mlf", wantCurves: 4, wantPoints: 2},
		{id: "abl-m", wantCurves: 2, wantPoints: 4},
		{id: "abl-hetm", wantCurves: 4, wantPoints: 2},
		{id: "abl-hot", wantCurves: 4, wantPoints: 4},
		{id: "ext-as", wantCurves: 2, wantPoints: 4},
		{id: "ext-adiv", wantCurves: 3, wantPoints: 3},
		{id: "ext-preempt", wantCurves: 4, wantPoints: 3},
		{id: "diag-stages", wantCurves: 3, wantPoints: 4}, // UD/ED/EQF × m=4 stages
	}
	for _, tt := range tests {
		tt := tt
		t.Run(tt.id, func(t *testing.T) {
			t.Parallel()
			e, err := ByID(tt.id)
			if err != nil {
				t.Fatal(err)
			}
			res, err := runExp(t, e, tinyOptions())
			if err != nil {
				t.Fatal(err)
			}
			if got := len(res.Figure.Curves); got != tt.wantCurves {
				t.Fatalf("%s: %d curves, want %d", tt.id, got, tt.wantCurves)
			}
			for _, c := range res.Figure.Curves {
				if len(c.Points) != tt.wantPoints {
					t.Errorf("%s curve %q: %d points, want %d", tt.id, c.Label, len(c.Points), tt.wantPoints)
				}
			}
		})
	}
}

func TestSweepSharesRunsAcrossClassCurves(t *testing.T) {
	// bothClasses must yield identical x grids for the two curves and
	// (trivially) consistent values from the same runs: local and
	// global percentages are both within [0, 100] and come in pairs.
	e, err := ByID("fig3")
	if err != nil {
		t.Fatal(err)
	}
	res, err := runExp(t, e, tinyOptions())
	if err != nil {
		t.Fatal(err)
	}
	loc := res.Figure.Curve("UD local")
	glob := res.Figure.Curve("UD global")
	if loc == nil || glob == nil {
		t.Fatal("expected 'UD local' and 'UD global' curves")
	}
	if len(loc.Points) != len(glob.Points) {
		t.Fatal("class curves have different lengths")
	}
	for i := range loc.Points {
		if loc.Points[i].X != glob.Points[i].X {
			t.Fatal("class curves disagree on x grid")
		}
	}
}

func renderFixture() *stats.Figure {
	return &stats.Figure{
		ID: "fix", Title: "Fixture", XLabel: "load", YLabel: "md (%)",
		Curves: []stats.Curve{
			{Label: "UD", Points: []stats.Point{{X: 0.1, Y: 1.5, HalfCI: 0.2}, {X: 0.5, Y: 40, HalfCI: 1}}},
			{Label: "EQF", Points: []stats.Point{{X: 0.1, Y: 1.2, HalfCI: 0.1}, {X: 0.5, Y: 30, HalfCI: 2}}},
		},
	}
}

func TestRenderTable(t *testing.T) {
	out := RenderTable(renderFixture())
	for _, want := range []string{"Fixture", "load", "UD", "EQF", "40.00", "30.00", "±"} {
		if !strings.Contains(out, want) {
			t.Errorf("table output missing %q:\n%s", want, out)
		}
	}
	lines := strings.Split(strings.TrimRight(out, "\n"), "\n")
	if len(lines) < 5 {
		t.Errorf("table too short:\n%s", out)
	}
}

func TestRenderTableEmpty(t *testing.T) {
	out := RenderTable(&stats.Figure{Title: "Empty"})
	if !strings.Contains(out, "Empty") {
		t.Error("empty figure should still render its title")
	}
}

func TestRenderCSV(t *testing.T) {
	out := RenderCSV(renderFixture())
	lines := strings.Split(strings.TrimSpace(out), "\n")
	if len(lines) != 3 {
		t.Fatalf("csv has %d lines, want 3:\n%s", len(lines), out)
	}
	if lines[0] != "load,UD,UD ci95,EQF,EQF ci95" {
		t.Errorf("csv header = %q", lines[0])
	}
	if !strings.HasPrefix(lines[2], "0.5,40,") {
		t.Errorf("csv row = %q", lines[2])
	}
}

func TestRenderCSVEscaping(t *testing.T) {
	f := &stats.Figure{
		XLabel: "a,b",
		Curves: []stats.Curve{{Label: `q"uote`, Points: []stats.Point{{X: 1, Y: 2}}}},
	}
	out := RenderCSV(f)
	if !strings.Contains(out, `"a,b"`) || !strings.Contains(out, `"q""uote"`) {
		t.Errorf("csv escaping broken:\n%s", out)
	}
}

func TestRenderJSON(t *testing.T) {
	out, err := RenderJSON(renderFixture())
	if err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{`"id": "fix"`, `"label": "UD"`, `"ci95": 1`, `"x": 0.5`, `"y": 40`} {
		if !strings.Contains(out, want) {
			t.Errorf("json missing %q:\n%s", want, out)
		}
	}
	if !strings.HasSuffix(out, "\n") {
		t.Error("json output should end with a newline")
	}
}

func TestRenderChart(t *testing.T) {
	out := RenderChart(renderFixture(), 40, 10)
	for _, want := range []string{"Fixture", "o UD", "* EQF", "x: load"} {
		if !strings.Contains(out, want) {
			t.Errorf("chart output missing %q:\n%s", want, out)
		}
	}
	// Highest value labels the top axis.
	if !strings.Contains(out, "40.00") {
		t.Errorf("chart missing y-max label:\n%s", out)
	}
}

func TestRenderChartDegenerate(t *testing.T) {
	out := RenderChart(&stats.Figure{Title: "none"}, 1, 1)
	if !strings.Contains(out, "(no data)") {
		t.Errorf("degenerate chart output:\n%s", out)
	}
	// Single point, zero ranges: must not panic or divide by zero.
	single := &stats.Figure{Curves: []stats.Curve{{Label: "p", Points: []stats.Point{{X: 2, Y: 0}}}}}
	if out := RenderChart(single, 30, 9); !strings.Contains(out, "p") {
		t.Errorf("single-point chart output:\n%s", out)
	}
}
