package netdist

import (
	"bytes"
	"fmt"
	"sync"
	"testing"

	"repro/internal/scenario"
	"repro/internal/session"
)

// concurrentJobs returns two jobs on different configurations (strategy,
// load and seeds), long enough per replication that runs started
// together overlap on the worker.
func concurrentJobs(t *testing.T) [2]session.Job {
	t.Helper()
	var jobs [2]session.Job
	for i, ssp := range []string{"UD", "EQF"} {
		cfg := shortCfg(1500)
		cfg.Nodes = 64
		cfg.SSP = ssp
		cfg.Load = 0.3 + 0.2*float64(i)
		cfg.Seed = 11 + 100*uint64(i)
		sc, err := scenario.Preset("burst", cfg.Horizon)
		if err != nil {
			t.Fatal(err)
		}
		cfg.Scenario = sc
		jobs[i] = session.Job{Config: cfg, Reps: 4}
	}
	return jobs
}

// runConcurrently starts both jobs on b at the same instant at
// parallelism 1 and checks each against the in-process pool, byte for
// byte.
func runConcurrently(t *testing.T, b session.Backend, jobs [2]session.Job) {
	t.Helper()
	type output struct {
		sigs []string
		csv  []byte
		err  error
	}
	var got [2]output
	start := make(chan struct{})
	var wg sync.WaitGroup
	for i := range jobs {
		wg.Add(1)
		go func() {
			defer wg.Done()
			<-start
			got[i].sigs, got[i].csv, got[i].err = jobOutput(b, jobs[i], 1)
		}()
	}
	close(start)
	wg.Wait()
	for i, job := range jobs {
		if got[i].err != nil {
			t.Fatalf("run %d: %v", i, got[i].err)
		}
		wantSigs, wantCSV, err := jobOutput(nil, job, 1)
		if err != nil {
			t.Fatal(err)
		}
		if fmt.Sprint(got[i].sigs) != fmt.Sprint(wantSigs) {
			t.Errorf("run %d replications differ from the pool:\n net: %v\npool: %v", i, got[i].sigs, wantSigs)
		}
		if !bytes.Equal(got[i].csv, wantCSV) {
			t.Errorf("run %d scenario CSV differs from the pool", i)
		}
	}
}

// TestNetBackendConcurrentRuns: two runs of different configurations
// share one TCP worker side by side, and each stays byte-identical to
// the in-process pool. The worker must have run them at once: each run
// keeps one chunk in flight, so only overlapping runs make the worker
// lease two cold workspaces (serialized runs would lease one cold and
// then reuse it warm).
func TestNetBackendConcurrentRuns(t *testing.T) {
	srv := startServer(t)
	nb, err := NewBackend(BackendOptions{Addrs: []string{srv.Addr()}, HedgeFactor: -1})
	if err != nil {
		t.Fatal(err)
	}
	defer nb.Close()
	runConcurrently(t, nb, concurrentJobs(t))

	ds := nb.DistribStats()
	if len(ds.Workers) != 1 {
		t.Fatalf("worker records = %d, want 1", len(ds.Workers))
	}
	if cold := ds.Workers[0].Pool.ColdAcquires; cold != 2 {
		t.Fatalf("worker leased %d cold workspaces, want 2: the runs did not overlap", cold)
	}
	if ds.Fallbacks+ds.Retries+ds.Deaths != 0 {
		t.Fatalf("healthy concurrent runs left the remote path: %+v", ds)
	}
}

// TestNetBackendConcurrentRunsSurviveKill severs the only worker
// connection while two runs are in flight on it. Both runs recover
// byte-identically, and they share one replacement connection: the
// fleet never exceeds its one slot.
func TestNetBackendConcurrentRunsSurviveKill(t *testing.T) {
	srv := startServer(t)
	// The hello reply plus three frames, so the line drops while both
	// runs have chunks outstanding.
	proxy := startKillingProxy(t, srv.Addr(), 4)
	nb, err := NewBackend(BackendOptions{Addrs: []string{proxy.addr()}, ChunkSize: 1, HedgeFactor: -1})
	if err != nil {
		t.Fatal(err)
	}
	defer nb.Close()
	runConcurrently(t, nb, concurrentJobs(t))

	ds, ns := nb.DistribStats(), nb.NetStats()
	if ds.Deaths != 1 || ds.Respawns != 1 || ns.Connections != 2 {
		t.Fatalf("deaths=%d respawns=%d connections=%d, want one death healed by one shared replacement",
			ds.Deaths, ds.Respawns, ns.Connections)
	}
	alive := 0
	for _, w := range ds.Workers {
		if w.Alive {
			alive++
		}
	}
	if alive != 1 {
		t.Fatalf("%d live workers after recovery, want 1", alive)
	}
	if ds.Fallbacks != 0 {
		t.Fatalf("recovery fell back to the in-process pool %d times", ds.Fallbacks)
	}
}
