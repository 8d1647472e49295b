package experiment

import (
	"context"
	"fmt"
	"strings"
	"testing"

	"repro/internal/scenario"
	"repro/internal/session"
	"repro/internal/system"
)

// runScenario runs the scenario on a run-private session at the given
// parallelism.
func runScenario(cfg system.Config, sc *scenario.Scenario, reps, parallelism int) (*ScenarioResult, error) {
	return RunScenarioWith(context.Background(), nil, cfg, sc, reps, session.WithParallelism(parallelism))
}

func scenarioBase(t *testing.T) (system.Config, *scenario.Scenario) {
	t.Helper()
	cfg := system.Baseline()
	cfg.Horizon = 4000
	sc, err := scenario.Preset("burst", cfg.Horizon)
	if err != nil {
		t.Fatal(err)
	}
	return cfg, sc
}

// TestRunScenarioDeterministicAcrossParallelism is the subsystem's core
// guarantee: the merged time-series CSV is byte-identical at every
// worker count.
func TestRunScenarioDeterministicAcrossParallelism(t *testing.T) {
	cfg, sc := scenarioBase(t)
	csvAt := func(parallelism int) string {
		t.Helper()
		res, err := runScenario(cfg, sc, 4, parallelism)
		if err != nil {
			t.Fatal(err)
		}
		var b strings.Builder
		if err := res.Series.WriteCSV(&b); err != nil {
			t.Fatal(err)
		}
		return b.String()
	}
	want := csvAt(1)
	if !strings.Contains(want, scenario.CSVHeader) {
		t.Fatalf("csv missing header:\n%s", want)
	}
	for _, p := range []int{0, 2, 8} {
		if got := csvAt(p); got != want {
			t.Errorf("parallelism %d produced different CSV bytes", p)
		}
	}
}

// TestRunScenarioMergesAllReplications checks the merged series pools
// every replication's observations (totals strictly grow with reps).
func TestRunScenarioMergesAllReplications(t *testing.T) {
	cfg, sc := scenarioBase(t)
	one, err := runScenario(cfg, sc, 1, 1)
	if err != nil {
		t.Fatal(err)
	}
	four, err := runScenario(cfg, sc, 4, 0)
	if err != nil {
		t.Fatal(err)
	}
	if len(four.Runs) != 4 {
		t.Fatalf("runs = %d, want 4", len(four.Runs))
	}
	total := func(r *ScenarioResult) int64 {
		var n int64
		for i := 0; i < r.Series.Len(); i++ {
			n += r.Series.Window(i).LocalMiss.Total()
		}
		return n
	}
	if t1, t4 := total(one), total(four); t4 <= 2*t1 {
		t.Errorf("merged totals: 1 rep %d, 4 reps %d; want roughly 4x", t1, t4)
	}
	// The merge must not have mutated replication 0's own series.
	var perRun int64
	for i := 0; i < four.Runs[0].Series.Len(); i++ {
		perRun += four.Runs[0].Series.Window(i).LocalMiss.Total()
	}
	if perRun >= total(four) {
		t.Errorf("replication 0 series (%d) should be smaller than the merge (%d)", perRun, total(four))
	}
	if four.GlobalMD.HalfCI <= 0 {
		t.Error("replicated run has no confidence interval")
	}
}

func TestRunScenarioRejectsBadInput(t *testing.T) {
	cfg, sc := scenarioBase(t)
	if _, err := runScenario(cfg, nil, 2, 1); err == nil {
		t.Error("nil scenario accepted")
	}
	if _, err := runScenario(cfg, sc, 0, 1); err == nil {
		t.Error("zero reps accepted")
	}
	bad := cfg
	bad.Nodes = -1
	if _, err := runScenario(bad, sc, 2, 1); err == nil {
		t.Error("invalid config accepted")
	}
}

// TestRunScenarioSeedsAreIndependent: different base seeds give
// different series, same base seed gives identical series.
func TestRunScenarioSeedsAreIndependent(t *testing.T) {
	cfg, sc := scenarioBase(t)
	csv := func(seed uint64) string {
		c := cfg
		c.Seed = seed
		res, err := runScenario(c, sc, 2, 0)
		if err != nil {
			t.Fatal(err)
		}
		var b strings.Builder
		if err := res.Series.WriteCSV(&b); err != nil {
			t.Fatal(err)
		}
		return b.String()
	}
	if csv(1) != csv(1) {
		t.Error("same seed produced different series")
	}
	if csv(1) == csv(99) {
		t.Error("different seeds produced identical series")
	}
}

// TestRunScenarioUnderStrategies smoke-tests the scenario engine across
// strategy combinations — the sweep axis future overload studies will
// use.
func TestRunScenarioUnderStrategies(t *testing.T) {
	cfg, sc := scenarioBase(t)
	cfg.Horizon = 2000
	for _, pair := range [][2]string{{"UD", "UD"}, {"EQF", "DIV-1"}, {"EQS", "GF"}} {
		pair := pair
		t.Run(fmt.Sprintf("%s-%s", pair[0], pair[1]), func(t *testing.T) {
			c := cfg
			c.SSP, c.PSP = pair[0], pair[1]
			res, err := runScenario(c, sc, 2, 0)
			if err != nil {
				t.Fatal(err)
			}
			if res.Series.Len() == 0 {
				t.Error("empty series")
			}
		})
	}
}
