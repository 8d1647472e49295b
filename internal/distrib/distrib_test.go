package distrib

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"io"
	"net"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"sync/atomic"
	"testing"

	"repro/internal/failpoint"
	"repro/internal/rng"
	"repro/internal/scenario"
	"repro/internal/session"
	"repro/internal/system"
	"repro/internal/task"
	"repro/internal/trace"
	"repro/internal/workload"
)

// workerEnv opts the re-executed test binary into worker mode.
const workerEnv = "REPRO_TEST_SHARD_WORKER"

// dieLockEnv points at a lock file; the first worker process to create
// it becomes the designated victim and exits hard after two result
// frames — the worker-death scenario.
const dieLockEnv = "REPRO_TEST_SHARD_WORKER_DIE_LOCK"

// victimLockEnv and victimSpecEnv elect exactly one worker of the fleet
// (lock-file O_EXCL election, like dieLockEnv) and arm the given
// failpoint spec only in that process — the single-hung-worker and
// single-straggler scenarios, which an inherited environment spec
// cannot express because every worker would arm it.
const (
	victimLockEnv = "REPRO_TEST_SHARD_WORKER_VICTIM_LOCK"
	victimSpecEnv = "REPRO_TEST_SHARD_WORKER_VICTIM_SPEC"
)

// TestShardWorkerProcess is not a test: it is the worker-process body,
// entered when the coordinator under test re-executes the test binary.
func TestShardWorkerProcess(t *testing.T) {
	if os.Getenv(workerEnv) != "1" {
		t.Skip("worker-process helper, not a test")
	}
	var out io.Writer = os.Stdout
	if lock := os.Getenv(dieLockEnv); lock != "" {
		if f, err := os.OpenFile(lock, os.O_CREATE|os.O_EXCL|os.O_WRONLY, 0o600); err == nil {
			f.Close()
			out = &dyingWriter{w: os.Stdout, remaining: 2}
		}
	}
	if lock := os.Getenv(victimLockEnv); lock != "" {
		if f, err := os.OpenFile(lock, os.O_CREATE|os.O_EXCL|os.O_WRONLY, 0o600); err == nil {
			f.Close()
			if err := failpoint.Arm(os.Getenv(victimSpecEnv)); err != nil {
				fmt.Fprintln(os.Stderr, "worker: victim spec:", err)
				os.Exit(2)
			}
		}
	}
	if err := ServeWorker(os.Stdin, out); err != nil {
		fmt.Fprintln(os.Stderr, "worker:", err)
		os.Exit(2)
	}
	os.Exit(0) // suppress the testing framework's PASS line on stdout
}

// dyingWriter forwards whole frames (one Write each), then kills the
// process mid-protocol.
type dyingWriter struct {
	w         io.Writer
	remaining int
}

func (d *dyingWriter) Write(p []byte) (int, error) {
	if d.remaining <= 0 {
		os.Exit(1)
	}
	d.remaining--
	return d.w.Write(p)
}

// testBackend returns a ProcBackend whose workers re-execute this test
// binary, plus cleanup. A positive chunk pins the seeds per sub-shard.
func testBackend(t *testing.T, opts ProcOptions, chunk int) *ProcBackend {
	t.Helper()
	exe, err := os.Executable()
	if err != nil {
		t.Fatal(err)
	}
	opts.Command = []string{exe, "-test.run=^TestShardWorkerProcess$"}
	opts.Env = append(opts.Env, workerEnv+"=1")
	b := NewProcBackend(opts)
	b.chunk = chunk
	t.Cleanup(func() { b.Close() })
	return b
}

// shortCfg returns a fast baseline configuration.
func shortCfg(horizon float64) system.Config {
	cfg := system.Baseline()
	cfg.Horizon = horizon
	return cfg
}

// sameBits reports whether a and b agree in every field, compared as
// exact-bit codec bytes.
func sameBits(t *testing.T, a, b *system.Metrics) bool {
	t.Helper()
	ab, err := a.MarshalBinary()
	if err != nil {
		t.Fatal(err)
	}
	bb, err := b.MarshalBinary()
	if err != nil {
		t.Fatal(err)
	}
	return bytes.Equal(ab, bb)
}

// metricsSig fingerprints a run's aggregate counters and ratios: the
// comparison for runs on different event queues, whose QueuePromotions
// may legitimately differ, and a readable summary for failure messages.
func metricsSig(m *system.Metrics) string {
	return fmt.Sprintf("lg=%d ld=%d gg=%d gd=%d mdl=%v mdg=%v lr=%v gr=%v",
		m.LocalGenerated, m.LocalDone, m.GlobalGenerated, m.GlobalDone,
		m.MDLocal(), m.MDGlobal(), m.LocalResponse.Mean(), m.GlobalResponse.Mean())
}

// TestProcBackendMatchesPool is the core determinism claim: a session
// on the multi-process backend produces results bit-identical to the
// in-process pool — per replication and in the merged scenario CSV — at
// any worker count and on either event queue.
func TestProcBackendMatchesPool(t *testing.T) {
	if testing.Short() {
		t.Skip("spawns worker processes")
	}
	cfg := shortCfg(4000)
	var err error
	if cfg.Scenario, err = scenario.Preset("burst", cfg.Horizon); err != nil {
		t.Fatal(err)
	}
	job := session.Job{Config: cfg, Reps: 6}

	ref := session.New()
	defer ref.Close()
	want, err := ref.Run(context.Background(), job)
	if err != nil {
		t.Fatal(err)
	}
	wantSeries, err := want.MergedSeries()
	if err != nil {
		t.Fatal(err)
	}
	var wantCSV bytes.Buffer
	if err := wantSeries.WriteCSV(&wantCSV); err != nil {
		t.Fatal(err)
	}

	for _, tc := range []struct {
		name    string
		workers int
	}{
		{name: "workers=1", workers: 1},
		{name: "workers=3", workers: 3},
	} {
		t.Run(tc.name, func(t *testing.T) {
			b := testBackend(t, ProcOptions{Workers: tc.workers}, 2)
			s := session.NewWithBackend(b)
			defer s.Close()
			got, err := s.Run(context.Background(), job)
			if err != nil {
				t.Fatal(err)
			}
			if got.Partial || len(got.Runs) != len(want.Runs) {
				t.Fatalf("partial=%t runs=%d, want complete %d", got.Partial, len(got.Runs), len(want.Runs))
			}
			for i := range want.Runs {
				g, w := got.Runs[i], want.Runs[i]
				if !sameBits(t, g, w) {
					t.Fatalf("rep %d diverged across the process boundary:\n got %s\nwant %s",
						i, metricsSig(g), metricsSig(w))
				}
			}
			if got.LocalMD != want.LocalMD || got.GlobalMD != want.GlobalMD {
				t.Fatalf("estimates diverged: %+v vs %+v", got.LocalMD, want.LocalMD)
			}
			gotSeries, err := got.MergedSeries()
			if err != nil {
				t.Fatal(err)
			}
			var gotCSV bytes.Buffer
			if err := gotSeries.WriteCSV(&gotCSV); err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(gotCSV.Bytes(), wantCSV.Bytes()) {
				t.Fatal("merged scenario CSV is not byte-identical to the in-process pool")
			}
		})
	}
}

// TestProcBackendStreaming proves the OnResult hook streams across the
// boundary: every replication index is delivered exactly once.
func TestProcBackendStreaming(t *testing.T) {
	if testing.Short() {
		t.Skip("spawns worker processes")
	}
	cfg := shortCfg(1500)
	b := testBackend(t, ProcOptions{Workers: 2}, 2)
	var mu sync.Mutex
	seen := map[int]int{}
	shard := session.Shard{
		Config: cfg,
		Seeds:  []uint64{1, 2, 3, 4, 5},
		OnResult: func(i int, m *system.Metrics) {
			mu.Lock()
			seen[i]++
			mu.Unlock()
			if m == nil {
				t.Error("nil metrics streamed")
			}
		},
	}
	res, err := b.Run(context.Background(), shard)
	if err != nil {
		t.Fatal(err)
	}
	if res.Completed != len(shard.Seeds) {
		t.Fatalf("completed %d, want %d", res.Completed, len(shard.Seeds))
	}
	for i := range shard.Seeds {
		if seen[i] != 1 {
			t.Fatalf("index %d delivered %d times", i, seen[i])
		}
	}
}

// TestProcBackendWorkerDeathReassigns kills one worker process
// mid-chunk (it exits hard after streaming two results) and requires
// the full shard to still complete, bit-identical to the in-process
// pool — the lost sub-shard is re-run on a surviving worker.
func TestProcBackendWorkerDeathReassigns(t *testing.T) {
	if testing.Short() {
		t.Skip("spawns worker processes")
	}
	cfg := shortCfg(1500)
	job := session.Job{Config: cfg, Reps: 10}
	ref := session.New()
	defer ref.Close()
	want, err := ref.Run(context.Background(), job)
	if err != nil {
		t.Fatal(err)
	}

	lock := filepath.Join(t.TempDir(), "victim.lock")
	b := testBackend(t, ProcOptions{
		Workers: 2,
		Env:     []string{dieLockEnv + "=" + lock},
	}, 4)
	s := session.NewWithBackend(b)
	defer s.Close()
	got, err := s.Run(context.Background(), job)
	if err != nil {
		t.Fatalf("run did not survive a worker death: %v", err)
	}
	if got.Partial || len(got.Runs) != len(want.Runs) {
		t.Fatalf("partial=%t runs=%d after worker death, want complete %d", got.Partial, len(got.Runs), len(want.Runs))
	}
	for i := range want.Runs {
		if !sameBits(t, got.Runs[i], want.Runs[i]) {
			t.Fatalf("rep %d diverged after reassignment:\n got %s\nwant %s",
				i, metricsSig(got.Runs[i]), metricsSig(want.Runs[i]))
		}
	}
	if _, err := os.Stat(lock); err != nil {
		t.Fatalf("victim lock never created — the death path was not exercised: %v", err)
	}
}

// TestProcBackendCancellation cancels mid-run and requires the exact
// deterministic seed prefix: every returned run bit-identical to the
// uncancelled reference, Partial set, seeds contiguous from the base.
//
// One worker makes "mid-run" certain. It takes the chunks in seed order
// and cannot hedge, so seed 0 is among the first two results and the
// cancel fires on the first result of the second chunk, while four
// chunks are still undispatched. With two workers a slow-starting
// worker holding seed 0 could deliver it last, after the other worker
// had finished every other chunk, and the cancel then came too late.
func TestProcBackendCancellation(t *testing.T) {
	if testing.Short() {
		t.Skip("spawns worker processes")
	}
	cfg := shortCfg(1500)
	const reps = 12
	ref := session.New()
	defer ref.Close()
	want, err := ref.Run(context.Background(), session.Job{Config: cfg, Reps: reps})
	if err != nil {
		t.Fatal(err)
	}

	b := testBackend(t, ProcOptions{Workers: 1}, 2)
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	s := session.NewWithBackend(&prefixCanceler{Backend: b, n: 3, cancel: cancel})
	defer s.Close()
	res, err := s.Run(ctx, session.Job{Config: cfg, Reps: reps})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	if res == nil || !res.Partial {
		t.Fatalf("res = %+v, want a partial result", res)
	}
	if len(res.Runs) == 0 || len(res.Runs) >= reps {
		t.Fatalf("cancelled run finished %d of %d replications", len(res.Runs), reps)
	}
	for i, m := range res.Runs {
		if res.Seeds[i] != cfg.Seed+uint64(i) {
			t.Fatalf("seed %d = %d: prefix not contiguous from base", i, res.Seeds[i])
		}
		if !sameBits(t, m, want.Runs[i]) {
			t.Fatalf("rep %d of the cancelled prefix diverged:\n got %s\nwant %s",
				i, metricsSig(m), metricsSig(want.Runs[i]))
		}
	}
}

// TestCanceledErrorCrossesBoundary pins the structured cancellation
// code: a rehydrated worker cancellation still satisfies errors.Is
// against context.Canceled, which an error string alone cannot.
func TestCanceledErrorCrossesBoundary(t *testing.T) {
	err := CodeCanceled.err("context canceled")
	if !errors.Is(err, context.Canceled) {
		t.Fatal("CodeCanceled does not rehydrate into a context.Canceled-compatible error")
	}
	if err := CodeError.err("boom"); err == nil || errors.Is(err, context.Canceled) {
		t.Fatalf("CodeError rehydrated as %v", err)
	}
	if err := CodeOK.err(""); err != nil {
		t.Fatalf("CodeOK rehydrated as %v", err)
	}
}

// TestWireConfigRoundTrip pins the config translation: ToWire's bytes
// decode to the same configuration, the scenario recompiled from its
// spec.
func TestWireConfigRoundTrip(t *testing.T) {
	cfg := shortCfg(2000)
	cfg.Shape = workload.MixedShape{
		Stages:   []int{1, 3, 1},
		MeanExec: 1,
		Demand:   workload.ParetoDemand{Alpha: 2.5},
	}
	cfg.Scenario = mustPreset(t, "burst", cfg.Horizon)

	b, err := ToWire(cfg)
	if err != nil {
		t.Fatal(err)
	}
	back, err := decodeConfig(b)
	if err != nil {
		t.Fatal(err)
	}
	if back.Scenario == cfg.Scenario {
		t.Fatal("scenario was not recompiled")
	}
	back.Seed = cfg.Seed // the shard's seeds replace it
	if !sameConfig(back, cfg) {
		t.Fatalf("config did not survive:\n got %+v\nwant %+v", back, cfg)
	}
}

// TestToWireRejectsUnwirable: traces and unknown shapes must not cross.
func TestToWireRejectsUnwirable(t *testing.T) {
	cfg := shortCfg(1000)
	cfg.Trace = trace.NewRecorder(0)
	if _, err := ToWire(cfg); !errors.Is(err, ErrNotWirable) {
		t.Fatalf("traced config: err = %v, want ErrNotWirable", err)
	}
	cfg = shortCfg(1000)
	cfg.Shape = strangeShape{}
	if _, err := ToWire(cfg); !errors.Is(err, ErrNotWirable) {
		t.Fatalf("unknown shape: err = %v, want ErrNotWirable", err)
	}
}

// strangeShape is a Shape this package cannot serialize.
type strangeShape struct{}

func (strangeShape) Build(*rng.Source, int) (*task.Graph, error) { panic("unused") }
func (strangeShape) SlackScale(float64) float64                  { return 1 }
func (strangeShape) Name() string                                { return "strange" }

// TestProcBackendFallsBackForTrace: a traced config runs in process
// (the recorder cannot cross), transparently.
func TestProcBackendFallsBackForTrace(t *testing.T) {
	cfg := shortCfg(800)
	cfg.Trace = trace.NewRecorder(0)
	// No worker command that could possibly work: if the backend tried
	// to spawn, Run would fail.
	b := NewProcBackend(ProcOptions{Workers: 1, Command: []string{"/nonexistent-worker-binary"}})
	defer b.Close()
	res, err := b.Run(context.Background(), session.Shard{Config: cfg, Seeds: []uint64{1, 2}, Parallelism: 1})
	if err != nil {
		t.Fatal(err)
	}
	if res.Completed != 2 {
		t.Fatalf("fallback completed %d, want 2", res.Completed)
	}
}

// TestSpawnFailure covers workers that cannot be started. A process
// fleet that starts none fails the run with the start error; a fleet
// that starts some of its workers runs the shard on those, byte for
// byte the in-process pool's result.
func TestSpawnFailure(t *testing.T) {
	cfg := shortCfg(800)
	seeds := []uint64{1, 2, 3, 4}
	shard := session.Shard{Config: cfg, Seeds: seeds, Parallelism: 1}
	b := NewProcBackend(ProcOptions{Workers: 2, Command: []string{"/nonexistent-worker-binary"}})
	defer b.Close()
	if _, err := b.Run(context.Background(), shard); err == nil || !strings.Contains(err.Error(), "start worker") {
		t.Fatalf("err = %v, want the start-worker error", err)
	}

	var dials atomic.Int32
	half := NewProcBackend(ProcOptions{Workers: 2, Dial: func() (WorkerConn, error) {
		if dials.Add(1) > 1 {
			return nil, errors.New("connection refused")
		}
		coord, worker := net.Pipe()
		go func() {
			_ = ServeWorker(worker, worker)
			worker.Close()
		}()
		return pipeConn{coord}, nil
	}})
	defer half.Close()
	got, err := half.Run(context.Background(), shard)
	if err != nil {
		t.Fatal(err)
	}
	requireShardIdentical(t, got, poolRef(t, cfg, seeds))
	if n := dials.Load(); n != 2 {
		t.Fatalf("%d dials, want 2 (one worker started, one refused)", n)
	}
	if ds := half.DistribStats(); ds.Fallbacks != 0 || ds.Deaths != 0 {
		t.Fatalf("fallbacks = %d, deaths = %d; want the started worker to run every chunk", ds.Fallbacks, ds.Deaths)
	}
}

// TestChunkSeeds pins the chunking geometry.
func TestChunkSeeds(t *testing.T) {
	got := chunkSeeds(7, 3)
	want := []chunk{{start: 0, end: 3}, {start: 3, end: 6}, {start: 6, end: 7}}
	if len(got) != len(want) {
		t.Fatalf("chunks = %v, want %v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("chunks = %v, want %v", got, want)
		}
	}
	if got := chunkSeeds(0, 3); len(got) != 0 {
		t.Fatalf("chunkSeeds(0) = %v", got)
	}
}
