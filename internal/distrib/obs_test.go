package distrib

import (
	"context"
	"os"
	"path/filepath"
	"sync"
	"testing"

	"repro/internal/session"
)

// TestProcBackendProgressMonotonic pins the progress contract across the
// process boundary: done-counts increase strictly by one and reach the
// replication total on an uncancelled run.
func TestProcBackendProgressMonotonic(t *testing.T) {
	if testing.Short() {
		t.Skip("spawns worker processes")
	}
	const reps = 6
	cfg := shortCfg(1200)
	b := testBackend(t, ProcOptions{Workers: 2}, 2)
	var (
		mu    sync.Mutex
		dones []int
	)
	s := session.NewWithBackend(b, session.WithProgress(func(done, total int) {
		mu.Lock()
		defer mu.Unlock()
		if total != reps {
			t.Errorf("progress total = %d, want %d", total, reps)
		}
		dones = append(dones, done)
	}))
	defer s.Close()
	if _, err := s.Run(context.Background(), session.Job{Config: cfg, Reps: reps}); err != nil {
		t.Fatal(err)
	}
	mu.Lock()
	defer mu.Unlock()
	if len(dones) != reps {
		t.Fatalf("progress fired %d times, want %d", len(dones), reps)
	}
	for i, d := range dones {
		if d != i+1 {
			t.Fatalf("progress done-counts %v: position %d is %d, want %d", dones, i, d, i+1)
		}
	}
}

// TestProcBackendDistribStats runs a shard and checks the coordinator's
// view: every chunk accounted to a live worker, wire traffic in both
// directions, and the workers' pool gauges carried home in done frames.
func TestProcBackendDistribStats(t *testing.T) {
	if testing.Short() {
		t.Skip("spawns worker processes")
	}
	cfg := shortCfg(1200)
	const reps, chunkSize = 8, 2
	b := testBackend(t, ProcOptions{Workers: 2}, chunkSize)
	s := session.NewWithBackend(b)
	defer s.Close()
	if _, err := s.Run(context.Background(), session.Job{Config: cfg, Reps: reps}); err != nil {
		t.Fatal(err)
	}

	ds := b.DistribStats()
	if ds == nil {
		t.Fatal("nil DistribStats")
	}
	if ds.Deaths != 0 || ds.Respawns != 0 {
		t.Fatalf("healthy run reported deaths=%d respawns=%d", ds.Deaths, ds.Respawns)
	}
	if len(ds.Workers) != 2 {
		t.Fatalf("workers = %d, want 2", len(ds.Workers))
	}
	var subShards uint64
	for _, w := range ds.Workers {
		if !w.Alive {
			t.Fatalf("worker %d reported dead after a healthy run", w.ID)
		}
		subShards += w.SubShards
		if w.SubShards > 0 {
			if w.FramesSent == 0 || w.FramesRecv == 0 || w.BytesSent == 0 || w.BytesRecv == 0 {
				t.Fatalf("worker %d ran %d sub-shards with no wire traffic: %+v", w.ID, w.SubShards, w)
			}
			// Worker pools ship home in done frames: every replication
			// acquires a workspace, warm or cold.
			if w.Pool.WarmAcquires+w.Pool.ColdAcquires == 0 {
				t.Fatalf("worker %d pool gauges never carried home: %+v", w.ID, w.Pool)
			}
		}
		if w.Steals != 0 {
			t.Fatalf("worker %d reported %d steals with no deaths", w.ID, w.Steals)
		}
	}
	if want := uint64(reps / chunkSize); subShards != want {
		t.Fatalf("sub-shards across workers = %d, want %d", subShards, want)
	}

	// The session surfaces the same view through the backend facets.
	snap := s.Snapshot()
	if snap.Distrib == nil {
		t.Fatal("session snapshot missed the DistribStatser facet")
	}
	if snap.Session.Pool.WarmAcquires+snap.Session.Pool.ColdAcquires == 0 {
		t.Fatal("session snapshot missed the fleet pool gauges")
	}
}

// TestProcBackendDeathStats re-runs the worker-death scenario and checks
// the coordinator records it: a death, a steal (the re-queued chunk run
// by the survivor), the victim archived with Alive=false, and a respawn
// on the next attach.
func TestProcBackendDeathStats(t *testing.T) {
	if testing.Short() {
		t.Skip("spawns worker processes")
	}
	cfg := shortCfg(1500)
	lock := filepath.Join(t.TempDir(), "victim.lock")
	b := testBackend(t, ProcOptions{
		Workers: 2,
		Env:     []string{dieLockEnv + "=" + lock},
	}, 4)
	s := session.NewWithBackend(b)
	defer s.Close()
	if _, err := s.Run(context.Background(), session.Job{Config: cfg, Reps: 10}); err != nil {
		t.Fatalf("run did not survive a worker death: %v", err)
	}
	if _, err := os.Stat(lock); err != nil {
		t.Fatalf("victim lock never created — the death path was not exercised: %v", err)
	}

	ds := b.DistribStats()
	if ds.Deaths != 1 {
		t.Fatalf("deaths = %d, want 1", ds.Deaths)
	}
	var dead, steals uint64
	for _, w := range ds.Workers {
		if !w.Alive {
			dead++
		}
		steals += w.Steals
	}
	if dead != 1 {
		t.Fatalf("archived dead workers = %d, want 1", dead)
	}
	if steals == 0 {
		t.Fatal("the re-queued chunk was never recorded as a steal")
	}

	// The next run replaces the dead worker; the spawn counts as a
	// respawn because the initial fleet already stood up.
	if _, err := s.Run(context.Background(), session.Job{Config: cfg, Reps: 4}); err != nil {
		t.Fatal(err)
	}
	ds = b.DistribStats()
	if ds.Respawns != 1 {
		t.Fatalf("respawns = %d, want 1", ds.Respawns)
	}
	if len(ds.Workers) != 3 { // two originals (one retired) + one respawn
		t.Fatalf("worker records = %d, want 3", len(ds.Workers))
	}
}

// TestProcBackendMergeDepthHWM forces out-of-order completion with a
// chunk size of 1 and several workers: the merge buffer must have held
// at least one result back at some point on a multi-worker run — and
// the HWM can never exceed the replication count.
func TestProcBackendMergeDepthHWM(t *testing.T) {
	if testing.Short() {
		t.Skip("spawns worker processes")
	}
	cfg := shortCfg(800)
	const reps = 12
	b := testBackend(t, ProcOptions{Workers: 3}, 1)
	s := session.NewWithBackend(b)
	defer s.Close()
	if _, err := s.Run(context.Background(), session.Job{Config: cfg, Reps: reps}); err != nil {
		t.Fatal(err)
	}
	ds := b.DistribStats()
	if ds.MergeDepthHWM > reps {
		t.Fatalf("merge HWM %d exceeds replication count %d", ds.MergeDepthHWM, reps)
	}
	// With three workers racing single-seed chunks, some out-of-order
	// arrival is overwhelmingly likely but not guaranteed; only assert
	// the gauge is well-formed, not a specific depth.
	t.Logf("merge depth HWM = %d", ds.MergeDepthHWM)
}
