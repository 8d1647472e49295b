package session

import (
	"context"
	"fmt"
	"strings"
	"testing"

	"repro/internal/scenario"
	"repro/internal/system"
)

// runScenario runs reps replications of cfg under sc on a fresh session
// at the given parallelism.
func runScenario(t *testing.T, cfg system.Config, sc *scenario.Scenario, reps, parallelism int) *Result {
	t.Helper()
	s := New(WithParallelism(parallelism))
	defer s.Close()
	cfg.Scenario = sc
	res, err := s.Run(context.Background(), Job{Config: cfg, Reps: reps})
	if err != nil {
		t.Fatal(err)
	}
	return res
}

// scenarioBase is the burst preset on the baseline at horizon 4000.
func scenarioBase(t *testing.T) (system.Config, *scenario.Scenario) {
	t.Helper()
	cfg := shortCfg(4000)
	sc, err := scenario.Preset("burst", cfg.Horizon)
	if err != nil {
		t.Fatal(err)
	}
	return cfg, sc
}

// seriesTotal counts the local-class observations over every window.
func seriesTotal(sr *scenario.Series) int64 {
	var n int64
	for i := 0; i < sr.Len(); i++ {
		n += sr.Window(i).LocalMiss.Total()
	}
	return n
}

// TestScenarioDeterministicAcrossParallelism is the scenario run's core
// guarantee: the merged time-series CSV is byte-identical at every
// worker count.
func TestScenarioDeterministicAcrossParallelism(t *testing.T) {
	cfg, sc := scenarioBase(t)
	want := mergedCSV(t, runScenario(t, cfg, sc, 4, 1))
	if !strings.Contains(want, scenario.CSVHeader) {
		t.Fatalf("csv missing header:\n%s", want)
	}
	for _, p := range []int{0, 2, 8} {
		if got := mergedCSV(t, runScenario(t, cfg, sc, 4, p)); got != want {
			t.Errorf("parallelism %d produced different CSV bytes", p)
		}
	}
}

// TestScenarioMergesAllReplications checks the merged series pools
// every replication's observations (totals strictly grow with reps)
// without writing into any replication's own series.
func TestScenarioMergesAllReplications(t *testing.T) {
	cfg, sc := scenarioBase(t)
	one, err := runScenario(t, cfg, sc, 1, 1).MergedSeries()
	if err != nil {
		t.Fatal(err)
	}
	four := runScenario(t, cfg, sc, 4, 0)
	if len(four.Runs) != 4 {
		t.Fatalf("runs = %d, want 4", len(four.Runs))
	}
	merged, err := four.MergedSeries()
	if err != nil {
		t.Fatal(err)
	}
	if t1, t4 := seriesTotal(one), seriesTotal(merged); t4 <= 2*t1 {
		t.Errorf("merged totals: 1 rep %d, 4 reps %d; want roughly 4x", t1, t4)
	}
	if perRun := seriesTotal(four.Runs[0].Series); perRun >= seriesTotal(merged) {
		t.Errorf("replication 0 series (%d) should be smaller than the merge (%d)", perRun, seriesTotal(merged))
	}
	if four.GlobalMD.HalfCI <= 0 {
		t.Error("replicated run has no confidence interval")
	}
}

// TestScenarioRejectsBadInput: an invalid configuration fails a
// scenario run instead of merging anything. (A job without a scenario
// has no merged series: TestStreamMatchesBatch.)
func TestScenarioRejectsBadInput(t *testing.T) {
	cfg, sc := scenarioBase(t)
	s := New(WithParallelism(1))
	defer s.Close()
	bad := cfg
	bad.Nodes = -1
	bad.Scenario = sc
	if _, err := s.Run(context.Background(), Job{Config: bad, Reps: 2}); err == nil {
		t.Error("invalid config accepted")
	}
}

// TestScenarioSeedsAreIndependent: different base seeds give different
// series, the same base seed gives identical series.
func TestScenarioSeedsAreIndependent(t *testing.T) {
	cfg, sc := scenarioBase(t)
	csv := func(seed uint64) string {
		c := cfg
		c.Seed = seed
		return mergedCSV(t, runScenario(t, c, sc, 2, 0))
	}
	if csv(1) != csv(1) {
		t.Error("same seed produced different series")
	}
	if csv(1) == csv(99) {
		t.Error("different seeds produced identical series")
	}
}

// TestScenarioUnderStrategies smoke-tests scenario runs across strategy
// combinations — the sweep axis overload studies use.
func TestScenarioUnderStrategies(t *testing.T) {
	cfg, sc := scenarioBase(t)
	cfg.Horizon = 2000
	for _, pair := range [][2]string{{"UD", "UD"}, {"EQF", "DIV-1"}, {"EQS", "GF"}} {
		t.Run(fmt.Sprintf("%s-%s", pair[0], pair[1]), func(t *testing.T) {
			c := cfg
			c.SSP, c.PSP = pair[0], pair[1]
			merged, err := runScenario(t, c, sc, 2, 0).MergedSeries()
			if err != nil {
				t.Fatal(err)
			}
			if merged.Len() == 0 {
				t.Error("empty series")
			}
		})
	}
}
