package system

import (
	"testing"

	"repro/internal/obs"
)

// TestEngineStatsDeterministic pins the PR-7 guarantee: Metrics.Engine
// is a pure function of (configuration, seed) — identical on a cold
// run, on a fresh workspace, and on a workspace warmed by a different
// previous run.
func TestEngineStatsDeterministic(t *testing.T) {
	cfg := shortBaseline()
	cfg.Seed = 7

	cold, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	fresh, err := RunWith(cfg, NewWorkspace())
	if err != nil {
		t.Fatal(err)
	}

	// Warm a workspace with a different seed first, then run cfg on it.
	ws := NewWorkspace()
	warmup := cfg
	warmup.Seed = 99
	if _, err := RunWith(warmup, ws); err != nil {
		t.Fatal(err)
	}
	warm, err := RunWith(cfg, ws)
	if err != nil {
		t.Fatal(err)
	}

	if cold.Engine != fresh.Engine {
		t.Errorf("cold vs fresh-workspace engine stats differ:\n%+v\n%+v", cold.Engine, fresh.Engine)
	}
	if cold.Engine != warm.Engine {
		t.Errorf("cold vs warm-workspace engine stats differ:\n%+v\n%+v", cold.Engine, warm.Engine)
	}
}

// TestEngineStatsConsistency checks the counters tie out against each
// other and against the model-level metrics.
func TestEngineStatsConsistency(t *testing.T) {
	cfg := shortBaseline()
	m, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	e := m.Engine
	if e.EventsScheduled == 0 || e.TasksSubmitted == 0 {
		t.Fatalf("counters never moved: %+v", e)
	}
	if e.EventsFired > e.EventsScheduled {
		t.Errorf("fired %d > scheduled %d", e.EventsFired, e.EventsScheduled)
	}
	if e.EventsFired+e.EventsCancelled > e.EventsScheduled {
		t.Errorf("fired+cancelled %d > scheduled %d", e.EventsFired+e.EventsCancelled, e.EventsScheduled)
	}
	if e.PendingHWM == 0 || e.ReadyHWM == 0 {
		t.Errorf("high-water marks never moved: %+v", e)
	}
	if e.TasksCompleted+e.TasksAborted > e.TasksSubmitted {
		t.Errorf("completed+aborted %d > submitted %d", e.TasksCompleted+e.TasksAborted, e.TasksSubmitted)
	}
	// Every generated local task is submitted to some node exactly once
	// (non-preemptive baseline), as is every global subtask stage.
	if e.TasksSubmitted < uint64(m.LocalGenerated) {
		t.Errorf("submitted %d < local generated %d", e.TasksSubmitted, m.LocalGenerated)
	}
	if e.Preemptions != 0 {
		t.Errorf("non-preemptive baseline recorded %d preemptions", e.Preemptions)
	}
}

// TestEngineStatsPreemptive drives the preemption counter.
func TestEngineStatsPreemptive(t *testing.T) {
	cfg := shortBaseline()
	cfg.Preemptive = true
	cfg.Load = 0.8
	m, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if m.Engine.Preemptions == 0 {
		t.Fatal("preemptive high-load run recorded no preemptions")
	}
}

// TestEngineStatsMergeAcrossReplications checks merged totals equal the
// sum/max of per-replication stats.
func TestEngineStatsMergeAcrossReplications(t *testing.T) {
	cfg := shortBaseline()
	runs, err := runSeeds(NewWorkspace(), cfg, 3)
	if err != nil {
		t.Fatal(err)
	}
	var merged obs.EngineStats
	var sumScheduled uint64
	for _, m := range runs {
		merged.Merge(m.Engine)
		sumScheduled += m.Engine.EventsScheduled
	}
	if merged.EventsScheduled != sumScheduled {
		t.Errorf("merge lost events: %d != %d", merged.EventsScheduled, sumScheduled)
	}
	for _, m := range runs {
		if m.Engine.PendingHWM > merged.PendingHWM {
			t.Errorf("merged HWM %d below a member's %d", merged.PendingHWM, m.Engine.PendingHWM)
		}
	}
}
