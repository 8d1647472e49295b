package repro

import (
	"bytes"
	"context"
	"strings"
	"testing"
)

// Pool-safety determinism tests at the facade: reusing a session's warm
// workspaces across jobs and worker counts must never change a result.
// Each test runs the same work on a fresh sequential session and on a
// session whose workspaces an unrelated job has already warmed, and
// requires byte-identical output. The check against an independent
// model, a naive simulator of the paper's system, is
// TestPooledMatchesReference in internal/system.

// warmedSession returns a session at the given parallelism whose
// workspaces a 64-node PSP job has already run on.
func warmedSession(t *testing.T, parallelism int) *Session {
	t.Helper()
	sess := NewSession(WithParallelism(parallelism))
	t.Cleanup(func() { sess.Close() })
	cfg := PSPBaselineConfig()
	cfg.Nodes = 64
	cfg.Horizon = 300
	if _, err := sess.Run(context.Background(), Job{Config: cfg, Reps: 2 * parallelism}); err != nil {
		t.Fatal(err)
	}
	return sess
}

// codecBytes encodes m with the exact-bit Metrics codec: equal bytes
// mean every field is bit-identical.
func codecBytes(t *testing.T, m *SimMetrics) []byte {
	t.Helper()
	b, err := m.MarshalBinary()
	if err != nil {
		t.Fatal(err)
	}
	return b
}

func TestPoolingBitIdenticalCombinedExperiment(t *testing.T) {
	opts := ExperimentOptions{Horizon: 3000, Reps: 2, Seed: 7}
	cold := NewSession(WithParallelism(1))
	defer cold.Close()
	ref, err := cold.Experiment(context.Background(), "combined", opts)
	if err != nil {
		t.Fatal(err)
	}
	pooled, err := warmedSession(t, 4).Experiment(context.Background(), "combined", opts)
	if err != nil {
		t.Fatal(err)
	}
	pooledCSV := RenderCSV(pooled.Figure)
	refCSV := RenderCSV(ref.Figure)
	if pooledCSV != refCSV {
		t.Fatalf("combined CSV differs on warm workspaces:\npooled:\n%s\nreference:\n%s",
			pooledCSV, refCSV)
	}
	if pooledCSV == "" {
		t.Fatal("combined experiment rendered an empty CSV")
	}
}

func TestPoolingBitIdenticalBurstScenario(t *testing.T) {
	cfg := BaselineConfig()
	cfg.Horizon = 15000
	var err error
	if cfg.Scenario, err = ScenarioPreset("burst", cfg.Horizon); err != nil {
		t.Fatal(err)
	}
	job := Job{Config: cfg, Reps: 3}
	cold := NewSession(WithParallelism(1))
	defer cold.Close()
	ref, err := cold.Run(context.Background(), job)
	if err != nil {
		t.Fatal(err)
	}
	pooled, err := warmedSession(t, 4).Run(context.Background(), job)
	if err != nil {
		t.Fatal(err)
	}
	if pooledCSV, refCSV := mergedCSV(t, pooled), mergedCSV(t, ref); pooledCSV != refCSV {
		t.Fatal("burst scenario time-series CSV differs on warm workspaces")
	}
	if pooled.GlobalMD != ref.GlobalMD || pooled.LocalMD != ref.LocalMD {
		t.Fatalf("miss estimates differ on warm workspaces: %+v vs %+v",
			pooled.GlobalMD, ref.GlobalMD)
	}
}

// TestPoolingAbortPathBitIdentical exercises the trickiest recycling
// path: aborted global instances whose already-queued sibling subtasks
// drain later, delaying instance and graph reuse. A warm workspace must
// reproduce a fresh one exactly.
func TestPoolingAbortPathBitIdentical(t *testing.T) {
	cfg := BaselineConfig()
	cfg.Horizon = 8000
	cfg.Load = 0.8
	cfg.TardyAbort = true
	cfg.SSP = "EQF"
	cfg.PSP = "DIV-1"
	job := Job{Config: cfg}
	cold := NewSession(WithParallelism(1))
	defer cold.Close()
	ref, err := cold.Run(context.Background(), job)
	if err != nil {
		t.Fatal(err)
	}
	pooled, err := warmedSession(t, 1).Run(context.Background(), job)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(codecBytes(t, pooled.Runs[0]), codecBytes(t, ref.Runs[0])) {
		t.Fatalf("abort-path metrics differ on a warm workspace:\npooled %+v\nref    %+v",
			pooled.Runs[0], ref.Runs[0])
	}
}

// TestPooledRunnerRaceHammer drives the pooled parallel runner hard so
// `go test -race` can catch any cross-worker sharing of pooled state:
// workspaces are strictly per-worker, so there must be none. It also
// checks the fan-out still matches the sequential path bit for bit.
func TestPooledRunnerRaceHammer(t *testing.T) {
	cfg := BaselineConfig()
	cfg.Horizon = 1500
	job := Job{Config: cfg, Reps: 16}
	seqSess := NewSession(WithParallelism(1))
	defer seqSess.Close()
	seq, err := seqSess.Run(context.Background(), job)
	if err != nil {
		t.Fatal(err)
	}
	sess := NewSession(WithParallelism(8))
	defer sess.Close()
	for round := 0; round < 4; round++ {
		par, err := sess.Run(context.Background(), job)
		if err != nil {
			t.Fatal(err)
		}
		if par.LocalMD != seq.LocalMD || par.GlobalMD != seq.GlobalMD {
			t.Fatalf("round %d: parallel pooled estimates diverge from sequential: %+v vs %+v",
				round, par.GlobalMD, seq.GlobalMD)
		}
		for i := range par.Runs {
			if !bytes.Equal(codecBytes(t, par.Runs[i]), codecBytes(t, seq.Runs[i])) {
				t.Fatalf("round %d: replication %d differs across worker counts", round, i)
			}
		}
	}
}

// mergedCSV renders res's merged scenario series as CSV.
func mergedCSV(t *testing.T, res *RunResult) string {
	t.Helper()
	series, err := res.MergedSeries()
	if err != nil {
		t.Fatal(err)
	}
	var b strings.Builder
	if err := series.WriteCSV(&b); err != nil {
		t.Fatal(err)
	}
	return b.String()
}
