package repro

import (
	"context"
	"math"
	"strings"
	"testing"
)

// TestQuickstartPlan exercises the doc-comment example end to end.
func TestQuickstartPlan(t *testing.T) {
	g := MustParseGraph("[gather:1 [f1:1 || f2:1.5] decide:2]")
	a := NewAssigner(EQF, DIV(1))
	plan, err := a.Plan(g, 0, 12)
	if err != nil {
		t.Fatal(err)
	}
	if len(plan) != 4 {
		t.Fatalf("plan has %d leaves, want 4", len(plan))
	}
	for _, p := range plan {
		if p.Deadline > 12+1e-9 {
			t.Errorf("leaf %s deadline %v beyond end-to-end deadline", p.Leaf.Name, p.Deadline)
		}
	}
	// The final stage inherits the full deadline.
	if last := plan[len(plan)-1]; math.Abs(last.Deadline-12) > 1e-9 {
		t.Errorf("final stage deadline = %v, want 12", last.Deadline)
	}
}

func TestStrategyLookups(t *testing.T) {
	for _, name := range []string{"UD", "ED", "EQS", "EQF", "EQF-AS2"} {
		if _, err := SerialStrategyByName(name); err != nil {
			t.Errorf("SerialStrategyByName(%q): %v", name, err)
		}
	}
	for _, name := range []string{"UD", "DIV-1", "DIV-2", "GF", "ADIV4"} {
		if _, err := ParallelStrategyByName(name); err != nil {
			t.Errorf("ParallelStrategyByName(%q): %v", name, err)
		}
	}
	if got := NewAssigner(EQF, DIV(1)).Name(); got != "EQF-DIV-1" {
		t.Errorf("assigner name = %q", got)
	}
	if got := ArtificialStages(EQF, 2).Name(); got != "EQF-AS" {
		t.Errorf("artificial stages name = %q", got)
	}
	if got := AdaptiveDIV(2).Name(); got != "ADIV" {
		t.Errorf("adaptive div name = %q", got)
	}
}

// simulate runs one replication of cfg on a fresh sequential session.
func simulate(cfg SimConfig) (*SimMetrics, error) {
	sess := NewSession(WithParallelism(1))
	defer sess.Close()
	res, err := sess.Run(context.Background(), Job{Config: cfg})
	if err != nil {
		return nil, err
	}
	return res.Runs[0], nil
}

func TestSimulateBaseline(t *testing.T) {
	cfg := BaselineConfig()
	cfg.Horizon = 5000
	m, err := simulate(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if m.LocalGenerated == 0 || m.GlobalGenerated == 0 {
		t.Fatal("baseline simulation generated nothing")
	}
	if m.MDGlobal() <= 0 || m.MDGlobal() >= 100 {
		t.Errorf("MDglobal = %v%%, implausible", m.MDGlobal())
	}
}

func TestSessionReplicationCount(t *testing.T) {
	cfg := PSPBaselineConfig()
	cfg.Horizon = 3000
	sess := NewSession()
	defer sess.Close()
	res, err := sess.Run(context.Background(), Job{Config: cfg, Reps: 2})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Runs) != 2 || res.LocalMD.N != 2 || res.GlobalMD.N != 2 {
		t.Fatalf("runs = %d, estimates over %d/%d, want 2", len(res.Runs), res.LocalMD.N, res.GlobalMD.N)
	}
}

func TestExperimentRegistry(t *testing.T) {
	if len(Experiments()) < 14 {
		t.Errorf("only %d experiments registered", len(Experiments()))
	}
	sess := NewSession()
	defer sess.Close()
	res, err := sess.Experiment(context.Background(), "table1", ExperimentOptions{Horizon: 1000, Reps: 1, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(res.Notes, "Earliest Deadline First") {
		t.Error("table1 notes incomplete")
	}
	if _, err := sess.Experiment(context.Background(), "bogus", ExperimentOptions{}); err == nil {
		t.Error("unknown experiment accepted")
	}
}

func TestRenderHelpers(t *testing.T) {
	sess := NewSession()
	defer sess.Close()
	res, err := sess.Experiment(context.Background(), "abl-m", ExperimentOptions{Horizon: 1500, Reps: 1, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	if out := RenderTable(res.Figure); !strings.Contains(out, "EQF") {
		t.Error("table render missing curve")
	}
	if out := RenderChart(res.Figure, 40, 10); !strings.Contains(out, "EQF") {
		t.Error("chart render missing legend")
	}
	if out := RenderCSV(res.Figure); !strings.HasPrefix(out, "m (subtasks per global task)") {
		t.Errorf("csv header unexpected: %q", strings.SplitN(out, "\n", 2)[0])
	}
}

func TestTraceFacade(t *testing.T) {
	cfg := BaselineConfig()
	cfg.Horizon = 500
	rec := NewTraceRecorder(100)
	cfg.Trace = rec
	if _, err := simulate(cfg); err != nil {
		t.Fatal(err)
	}
	if rec.Len() != 100 {
		t.Errorf("recorder retained %d events, want full capacity 100", rec.Len())
	}
	if rec.Dropped() == 0 {
		t.Error("500-unit run should overflow a 100-event recorder")
	}
	var b strings.Builder
	if err := rec.WriteCSV(&b); err != nil {
		t.Fatal(err)
	}
	if !strings.HasPrefix(b.String(), "t,kind,task") {
		t.Error("csv header missing")
	}
}

func TestScenarioFacade(t *testing.T) {
	if len(ScenarioPresets()) < 4 {
		t.Errorf("presets = %v, want the built-in library", ScenarioPresets())
	}
	sc, err := ParseScenario([]byte(`{
		"name": "facade",
		"interval": 500,
		"phases": [
			{"duration": 1500, "rate": 1},
			{"duration": 500, "rate": 3},
			{"duration": 0, "rate": 1}
		]
	}`))
	if err != nil {
		t.Fatal(err)
	}
	cfg := BaselineConfig()
	cfg.Horizon = 3000
	cfg.Scenario = sc
	sess := NewSession()
	defer sess.Close()
	res, err := sess.Run(context.Background(), Job{Config: cfg, Reps: 2})
	if err != nil {
		t.Fatal(err)
	}
	series, err := res.MergedSeries()
	if err != nil {
		t.Fatal(err)
	}
	if got := series.Len(); got != 6 {
		t.Errorf("series windows = %d, want 6", got)
	}
	var b strings.Builder
	if err := series.WriteCSV(&b); err != nil {
		t.Fatal(err)
	}
	if !strings.HasPrefix(b.String(), "t_start,t_end,") {
		t.Error("series CSV header missing")
	}
	// Programmatic specs work through the facade aliases too.
	if _, err := NewScenario(ScenarioSpec{
		Phases: []ScenarioPhase{{Duration: 10, Rate: 2}},
		Events: []ScenarioEvent{{Kind: "outage", Node: 0, At: 1, Duration: 2}},
	}); err != nil {
		t.Fatal(err)
	}
}

func TestGraphBuildersRoundTrip(t *testing.T) {
	g := Serial(Simple("a", 1), Parallel(Simple("b", 2), Simple("c", 3)))
	parsed, err := ParseGraph(g.String())
	if err != nil {
		t.Fatal(err)
	}
	if parsed.String() != g.String() {
		t.Errorf("round trip changed graph: %q vs %q", parsed.String(), g.String())
	}
}
