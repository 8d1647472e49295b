package repro

import (
	"bytes"
	"context"
	"errors"
	"testing"
)

// TestSessionExperimentMatchesRegistryRun: running an experiment on a
// session that already ran another one (warm workspaces) renders
// byte-identical CSV to running the registry entry on a fresh session.
func TestSessionExperimentMatchesRegistryRun(t *testing.T) {
	opts := ExperimentOptions{Horizon: 1200, Reps: 2, Seed: 3}
	e, err := ExperimentByID("fig2b")
	if err != nil {
		t.Fatal(err)
	}
	fresh := NewSession()
	defer fresh.Close()
	want, err := e.Run(context.Background(), fresh.Session, opts)
	if err != nil {
		t.Fatal(err)
	}
	sess := NewSession()
	defer sess.Close()
	if _, err := sess.Experiment(context.Background(), "fig4", opts); err != nil {
		t.Fatal(err)
	}
	res, err := sess.Experiment(context.Background(), "fig2b", opts)
	if err != nil {
		t.Fatal(err)
	}
	if RenderCSV(want.Figure) != RenderCSV(res.Figure) {
		t.Fatal("Session.Experiment CSV differs from the registry run")
	}
}

// TestStreamConcatenationEqualsBatch at the public API: streaming is
// pure delivery, never a different computation.
func TestStreamConcatenationEqualsBatch(t *testing.T) {
	cfg := BaselineConfig()
	cfg.Horizon = 3000
	sess := NewSession(WithParallelism(3))
	defer sess.Close()
	job := Job{Config: cfg, Reps: 4}
	batch, err := sess.Run(context.Background(), job)
	if err != nil {
		t.Fatal(err)
	}
	st, err := sess.Stream(context.Background(), job)
	if err != nil {
		t.Fatal(err)
	}
	i := 0
	for it := range st.Items() {
		if it.Index != i || !bytes.Equal(codecBytes(t, it.Metrics), codecBytes(t, batch.Runs[i])) {
			t.Fatalf("stream item %d (index %d) diverged from batch", i, it.Index)
		}
		i++
	}
	if i != len(batch.Runs) {
		t.Fatalf("stream delivered %d of %d results", i, len(batch.Runs))
	}
}

// TestCancelledExperimentFails: an already-cancelled context fails an
// experiment cleanly rather than producing a partial figure.
func TestCancelledExperimentFails(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	sess := NewSession()
	defer sess.Close()
	_, err := sess.Experiment(ctx, "fig2b", ExperimentOptions{Horizon: 1000, Reps: 1})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
}
