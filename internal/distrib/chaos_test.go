package distrib

import (
	"bytes"
	"context"
	"errors"
	"io"
	"net"
	"os"
	"path/filepath"
	"runtime"
	"slices"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/failpoint"
	"repro/internal/obs"
	"repro/internal/scenario"
	"repro/internal/session"
	"repro/internal/system"
)

// chaosRef runs the job on the in-process pool (no chaos) and returns
// the reference result every recovery path must reproduce exactly.
func chaosRef(t *testing.T, job session.Job) *session.Result {
	t.Helper()
	ref := session.New()
	defer ref.Close()
	want, err := ref.Run(context.Background(), job)
	if err != nil {
		t.Fatal(err)
	}
	return want
}

// requireIdentical asserts got reproduces want bit-for-bit, complete.
func requireIdentical(t *testing.T, got, want *session.Result) {
	t.Helper()
	if got.Partial || len(got.Runs) != len(want.Runs) {
		t.Fatalf("partial=%t runs=%d, want complete %d", got.Partial, len(got.Runs), len(want.Runs))
	}
	for i := range want.Runs {
		if !sameBits(t, got.Runs[i], want.Runs[i]) {
			t.Fatalf("rep %d diverged under chaos:\n got %s\nwant %s",
				i, metricsSig(got.Runs[i]), metricsSig(want.Runs[i]))
		}
	}
}

// TestChaosDeterminism is the headline robustness claim: with worker
// kills, frame corruption, and frame delays armed (seeded, so the chaos
// is reproducible), a proc-backend run completes and its results are
// bit-identical to the undisturbed in-process pool — every recovery
// path (retry, respawn, fallback) re-derives the same replications from
// the same seeds.
func TestChaosDeterminism(t *testing.T) {
	if testing.Short() {
		t.Skip("spawns worker processes")
	}
	cfg := shortCfg(1200)
	job := session.Job{Config: cfg, Reps: 10}
	want := chaosRef(t, job)

	spec := "seed=42" +
		";distrib/worker-loop=kill:p=0.2:max=1" +
		";distrib/frame-write=corrupt:p=0.05:max=2" +
		";distrib/frame-read=delay(5):p=0.2:max=5"
	b := testBackend(t, ProcOptions{
		Workers:       3,
		Heartbeat:     100 * time.Millisecond,
		WorkerTimeout: 2 * time.Second,
		Env:           []string{failpoint.EnvVar + "=" + spec},
	}, 2)
	s := session.NewWithBackend(b)
	defer s.Close()
	got, err := s.Run(context.Background(), job)
	if err != nil {
		t.Fatalf("chaos run failed outright: %v", err)
	}
	requireIdentical(t, got, want)
}

// prefixCanceler wraps a backend and cancels the run once seed index 0
// and at least n results have been delivered. Counting results alone is
// not enough: with workers dying, the first three results can all lie
// beyond an unfinished seed 0, and the correct partial result is then
// empty.
type prefixCanceler struct {
	session.Backend
	n      int
	cancel context.CancelFunc

	mu    sync.Mutex
	got   int
	first bool
}

func (p *prefixCanceler) Run(ctx context.Context, shard session.Shard) (session.ShardResult, error) {
	inner := shard.OnResult
	shard.OnResult = func(i int, m *system.Metrics) {
		if inner != nil {
			inner(i, m)
		}
		p.mu.Lock()
		p.got++
		p.first = p.first || i == 0
		fire := p.first && p.got >= p.n
		p.mu.Unlock()
		if fire {
			p.cancel()
		}
	}
	return p.Backend.Run(ctx, shard)
}

// TestChaosCancellationPrefix cancels mid-run while worker kills are
// armed: the partial result must still be the exact contiguous seed
// prefix of the reference, every returned replication bit-identical.
func TestChaosCancellationPrefix(t *testing.T) {
	if testing.Short() {
		t.Skip("spawns worker processes")
	}
	cfg := shortCfg(1200)
	const reps = 12
	want := chaosRef(t, session.Job{Config: cfg, Reps: reps})

	spec := "seed=7;distrib/worker-loop=kill:p=0.25:max=1"
	b := testBackend(t, ProcOptions{
		Workers: 2,
		Env:     []string{failpoint.EnvVar + "=" + spec},
	}, 2)
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
		t.Fatalf("cancelled chaos run finished %d of %d replications", len(res.Runs), reps)
	}
	for i, m := range res.Runs {
		if res.Seeds[i] != cfg.Seed+uint64(i) {
			t.Fatalf("seed %d = %d: prefix not contiguous from base under chaos", i, res.Seeds[i])
		}
		if !sameBits(t, m, want.Runs[i]) {
			t.Fatalf("rep %d of the cancelled chaos prefix diverged:\n got %s\nwant %s",
				i, metricsSig(m), metricsSig(want.Runs[i]))
		}
	}
}

// TestHungWorkerDetected elects one worker to wedge (its main loop
// hangs on the first frame, so its pipe stays open but nothing flows —
// the failure mode a closed-pipe check cannot see) and requires the
// coordinator to miss heartbeats, declare it hung within the liveness
// deadline, reassign its chunk, and finish the run bit-identical.
func TestHungWorkerDetected(t *testing.T) {
	if testing.Short() {
		t.Skip("spawns worker processes")
	}
	cfg := shortCfg(1200)
	job := session.Job{Config: cfg, Reps: 8}
	want := chaosRef(t, job)

	lock := filepath.Join(t.TempDir(), "hang.lock")
	b := testBackend(t, ProcOptions{
		Workers:       2,
		Heartbeat:     50 * time.Millisecond,
		WorkerTimeout: 400 * time.Millisecond,
		HedgeFactor:   -1, // force the liveness path: no hedge may rescue the chunk first
		Env: []string{
			victimLockEnv + "=" + lock,
			victimSpecEnv + "=distrib/worker-loop=hang",
		},
	}, 2)
	s := session.NewWithBackend(b)
	defer s.Close()
	start := time.Now()
	got, err := s.Run(context.Background(), job)
	if err != nil {
		t.Fatalf("run did not survive a hung worker: %v", err)
	}
	requireIdentical(t, got, want)
	if _, err := os.Stat(lock); err != nil {
		t.Fatalf("victim lock never created — the hang path was not exercised: %v", err)
	}
	ds := b.DistribStats()
	if ds.HeartbeatsMissed == 0 {
		t.Error("no heartbeats recorded missed for a wedged worker")
	}
	if ds.Deaths == 0 {
		t.Error("hung worker was never reaped")
	}
	if ds.Retries == 0 {
		t.Error("the hung worker's chunk was never retried")
	}
	// Liveness, not luck: detection must come from the configured
	// deadline, far below any per-chunk worst case.
	if el := time.Since(start); el > 30*time.Second {
		t.Errorf("hung-worker run took %v", el)
	}
}

// within runs f and fails the test if it has not returned after limit,
// so a run that never returns fails the test instead of stalling it.
func within(t *testing.T, limit time.Duration, f func()) {
	t.Helper()
	done := make(chan struct{})
	go func() {
		defer close(done)
		f()
	}()
	select {
	case <-done:
	case <-time.After(limit):
		t.Fatalf("still running after %v", limit)
	}
}

// wedgedBackend returns a backend whose first worker to start wedges
// inside every simulation: its pool lease hangs, while its main loop
// keeps answering pings, so heartbeats see a healthy worker and only
// the chunk deadline can catch it.
func wedgedBackend(t *testing.T, opts ProcOptions) (*ProcBackend, string) {
	t.Helper()
	lock := filepath.Join(t.TempDir(), "wedge.lock")
	opts.Heartbeat = 50 * time.Millisecond
	opts.WorkerTimeout = 400 * time.Millisecond
	opts.Env = []string{
		victimLockEnv + "=" + lock,
		victimSpecEnv + "=session/pool-acquire=hang",
	}
	return testBackend(t, opts, 2), lock
}

// TestWedgedExecutionRecovered wedges one of two workers on its first
// chunk, dispatched before any chunk has completed. Once the other
// worker completes a chunk, the EWMA-derived deadline must bound the
// wedged one: its worker is reaped and the run finishes bit-identical.
// With hedging on, the hedge wins, and the run must still bound the
// losing dispatch rather than wait on it forever.
func TestWedgedExecutionRecovered(t *testing.T) {
	if testing.Short() {
		t.Skip("spawns worker processes")
	}
	job := session.Job{Config: shortCfg(1200), Reps: 8}
	want := chaosRef(t, job)
	for _, tc := range []struct {
		name  string
		hedge float64
	}{{"hedge-off", -1}, {"hedge-on", 1}} {
		t.Run(tc.name, func(t *testing.T) {
			b, lock := wedgedBackend(t, ProcOptions{Workers: 2, HedgeFactor: tc.hedge})
			s := session.NewWithBackend(b)
			defer s.Close()
			var got *session.Result
			var err error
			within(t, 30*time.Second, func() { got, err = s.Run(context.Background(), job) })
			if err != nil {
				t.Fatalf("run did not survive a wedged execution: %v", err)
			}
			requireIdentical(t, got, want)
			if _, err := os.Stat(lock); err != nil {
				t.Fatalf("victim lock never created — the wedge was not exercised: %v", err)
			}
			if ds := b.DistribStats(); ds.Deaths == 0 {
				t.Error("wedged worker was never reaped")
			}
		})
	}
}

// TestWedgedExecutionCancel cancels a run whose only worker is wedged
// on its first chunk, so no chunk ever completes and there is no EWMA
// to derive a deadline from. Cancellation alone must bound Run: the
// worker gets twice WorkerTimeout to acknowledge, then it is reaped.
func TestWedgedExecutionCancel(t *testing.T) {
	if testing.Short() {
		t.Skip("spawns worker processes")
	}
	b, lock := wedgedBackend(t, ProcOptions{Workers: 1})
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	time.AfterFunc(200*time.Millisecond, cancel)
	var res session.ShardResult
	var err error
	within(t, 200*time.Millisecond+2*b.opts.WorkerTimeout+2*time.Second, func() {
		res, err = b.Run(ctx, session.Shard{Config: shortCfg(1200), Seeds: []uint64{1, 2, 3, 4}, Parallelism: 1})
	})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	if res.Completed != 0 {
		t.Fatalf("completed = %d, want 0 from a wedged worker", res.Completed)
	}
	if _, err := os.Stat(lock); err != nil {
		t.Fatalf("victim lock never created — the wedge was not exercised: %v", err)
	}
}

// TestRespawnBudgetFallback arms unconditional worker kills: every
// spawned worker (replacements included) dies on its first frame, so
// the respawn budget must run out and the run must degrade gracefully
// to the in-process pool — visible in DistribStats — with results still
// bit-identical.
func TestRespawnBudgetFallback(t *testing.T) {
	if testing.Short() {
		t.Skip("spawns worker processes")
	}
	cfg := shortCfg(1200)
	job := session.Job{Config: cfg, Reps: 6}
	want := chaosRef(t, job)

	b := testBackend(t, ProcOptions{
		Workers: 2,
		Env:     []string{failpoint.EnvVar + "=distrib/worker-loop=kill"},
	}, 2)
	s := session.NewWithBackend(b)
	defer s.Close()
	got, err := s.Run(context.Background(), job)
	if err != nil {
		t.Fatalf("run did not degrade gracefully: %v", err)
	}
	requireIdentical(t, got, want)
	ds := b.DistribStats()
	if ds.Deaths == 0 {
		t.Error("no worker deaths recorded under unconditional kills")
	}
	if ds.Fallbacks == 0 {
		t.Error("budget exhaustion did not record an in-process fallback")
	}
}

// poolRef runs seeds on an in-process pool: the shard result every
// backend path must reproduce exactly.
func poolRef(t *testing.T, cfg system.Config, seeds []uint64) session.ShardResult {
	t.Helper()
	pool := session.NewPool()
	defer pool.Close()
	want, err := pool.Run(context.Background(), session.Shard{Config: cfg, Seeds: seeds, Parallelism: 1})
	if err != nil {
		t.Fatal(err)
	}
	return want
}

// requireShardIdentical asserts got reproduces want bit-for-bit, complete.
func requireShardIdentical(t *testing.T, got, want session.ShardResult) {
	t.Helper()
	if got.Completed != len(want.Metrics) {
		t.Fatalf("completed %d of %d", got.Completed, len(want.Metrics))
	}
	for i := range want.Metrics {
		if !sameBits(t, got.Metrics[i], want.Metrics[i]) {
			t.Fatalf("rep %d diverged:\n got %s\nwant %s", i, metricsSig(got.Metrics[i]), metricsSig(want.Metrics[i]))
		}
	}
}

// TestSlowConsumerKeepsWorkers stalls the run loop in OnResult for
// several chunk deadlines while both workers finish their chunks. The
// done frames that arrived meanwhile must count, not the coordinator's
// late clock: no healthy worker may be reaped.
func TestSlowConsumerKeepsWorkers(t *testing.T) {
	if testing.Short() {
		t.Skip("spawns worker processes")
	}
	cfg := shortCfg(1200)
	seeds := []uint64{1, 2, 3, 4, 5, 6}
	want := poolRef(t, cfg, seeds)
	b := testBackend(t, ProcOptions{Workers: 2, Heartbeat: 50 * time.Millisecond, WorkerTimeout: 200 * time.Millisecond}, 1)
	var calls atomic.Int32 // a fallback would call OnResult from pool goroutines
	got, err := b.Run(context.Background(), session.Shard{Config: cfg, Seeds: seeds, Parallelism: 1,
		OnResult: func(int, *system.Metrics) {
			if calls.Add(1) == 2 {
				time.Sleep(1500 * time.Millisecond)
			}
		}})
	if err != nil {
		t.Fatal(err)
	}
	requireShardIdentical(t, got, want)
	if ds := b.DistribStats(); ds.Deaths != 0 {
		t.Fatalf("a slow consumer got %d healthy workers reaped (respawns=%d retries=%d)", ds.Deaths, ds.Respawns, ds.Retries)
	}
}

// cancelingWorker is an in-memory fake worker that answers every shard
// frame with a CodeCanceled done frame nobody asked for, and every ping
// with a pong.
func cancelingWorker(conn net.Conn) {
	defer conn.Close()
	fw := newFrameWriter(conn)
	for {
		kind, payload, err := readFrame(conn, 0, nil)
		if err != nil {
			return
		}
		var m idMsg
		switch kind {
		case msgShard:
			var sm shardMsg
			if decodeMsg(kind, payload, &sm) != nil {
				return
			}
			err = fw.send(msgDone, &doneMsg{ID: sm.ID, Code: CodeCanceled, Error: "unasked"})
		case msgPing:
			if decodeMsg(kind, payload, &m) != nil {
				return
			}
			err = fw.send(msgPong, &m)
		}
		if err != nil {
			return
		}
	}
}

// pipeConn adapts one end of an in-memory pipe to the WorkerConn seam.
type pipeConn struct{ net.Conn }

func (c pipeConn) Kill() { _ = c.Conn.Close() }
func (c pipeConn) Wait() {}

// TestUnaskedCancelReapsWorker pins termination without a circuit
// breaker: a fleet whose every worker cancels every chunk unasked must
// not retry forever. Each unasked cancel is a protocol violation that
// reaps its worker, so the respawn budget runs out and the run degrades
// to the in-process pool with the pool's results.
func TestUnaskedCancelReapsWorker(t *testing.T) {
	cfg := shortCfg(800)
	seeds := []uint64{1, 2, 3, 4, 5, 6}
	want := poolRef(t, cfg, seeds)
	const workers = 2
	b := NewProcBackend(ProcOptions{Workers: workers, Dial: func() (WorkerConn, error) {
		coord, worker := net.Pipe()
		go cancelingWorker(worker)
		return pipeConn{coord}, nil
	}})
	b.chunk = 2
	defer b.Close()
	var got session.ShardResult
	var err error
	within(t, 10*time.Second, func() {
		got, err = b.Run(context.Background(), session.Shard{Config: cfg, Seeds: seeds, Parallelism: 1})
	})
	if err != nil {
		t.Fatal(err)
	}
	requireShardIdentical(t, got, want)
	ds := b.DistribStats()
	if ds.Deaths == 0 || ds.Deaths > workers+respawnBudget {
		t.Fatalf("deaths = %d, want 1..%d", ds.Deaths, workers+respawnBudget)
	}
	if ds.Fallbacks == 0 {
		t.Fatal("the run never fell back to the in-process pool")
	}
}

// TestStalledWriteStillBounded connects to a worker that never reads,
// so the coordinator's first shard frame stalls in Write. The run loop
// never writes and stats never wait on a write, so cancellation still
// bounds Run: the unacknowledged cancel reaps the worker, which
// unblocks the stalled write.
func TestStalledWriteStillBounded(t *testing.T) {
	b := NewProcBackend(ProcOptions{
		Workers:       1,
		Heartbeat:     50 * time.Millisecond,
		WorkerTimeout: 200 * time.Millisecond,
		Dial: func() (WorkerConn, error) {
			coord, _ := net.Pipe() // nothing ever reads the worker's end
			return pipeConn{coord}, nil
		},
	})
	defer b.Close()
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	time.AfterFunc(100*time.Millisecond, cancel)
	var err error
	within(t, 100*time.Millisecond+2*b.opts.WorkerTimeout+2*time.Second, func() {
		_, err = b.Run(ctx, session.Shard{Config: shortCfg(800), Seeds: []uint64{1, 2}, Parallelism: 1})
	})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	if ds := b.DistribStats(); ds.Deaths != 1 {
		t.Fatalf("deaths = %d, want the stalled worker reaped once", ds.Deaths)
	}
}

// TestHedgingWinsStragglers elects one worker as a straggler (every
// frame it writes is delayed far beyond its peers' chunk latency) and
// requires an idle worker to speculatively re-run its outstanding chunk
// and win — first result wins, results unchanged.
func TestHedgingWinsStragglers(t *testing.T) {
	if testing.Short() {
		t.Skip("spawns worker processes")
	}
	cfg := shortCfg(1200)
	job := session.Job{Config: cfg, Reps: 8}
	want := chaosRef(t, job)

	lock := filepath.Join(t.TempDir(), "slow.lock")
	b := testBackend(t, ProcOptions{
		Workers:       2,
		Heartbeat:     50 * time.Millisecond,
		WorkerTimeout: 5 * time.Second,
		HedgeFactor:   1,
		Env: []string{
			victimLockEnv + "=" + lock,
			victimSpecEnv + "=distrib/frame-write=delay(400)",
		},
	}, 1)
	s := session.NewWithBackend(b)
	defer s.Close()
	got, err := s.Run(context.Background(), job)
	if err != nil {
		t.Fatalf("run with a straggler failed: %v", err)
	}
	requireIdentical(t, got, want)
	if _, err := os.Stat(lock); err != nil {
		t.Fatalf("straggler lock never created — the slow path was not exercised: %v", err)
	}
	ds := b.DistribStats()
	if ds.HedgesWon == 0 {
		t.Error("no hedge ever won against a 400ms-per-frame straggler")
	}
}

// TestCloseAfterWorkerKill pins Close's contract when the fleet is
// half-dead: killing a worker out from under the backend must not make
// Close leak goroutines or processes, and Close is idempotent.
func TestCloseAfterWorkerKill(t *testing.T) {
	if testing.Short() {
		t.Skip("spawns worker processes")
	}
	baseline := runtime.NumGoroutine()
	cfg := shortCfg(800)
	b := testBackend(t, ProcOptions{Workers: 2}, 2)
	if _, err := b.Run(context.Background(), session.Shard{
		Config: cfg, Seeds: []uint64{1, 2, 3}, Parallelism: 1,
	}); err != nil {
		t.Fatal(err)
	}
	b.mu.Lock()
	if len(b.workers) == 0 {
		b.mu.Unlock()
		t.Fatal("no workers after a run")
	}
	victim := b.workers[0]
	b.mu.Unlock()
	victim.conn.Kill()
	if err := b.Close(); err != nil {
		t.Fatalf("Close after external kill: %v", err)
	}
	if err := b.Close(); err != nil {
		t.Fatalf("second Close not idempotent: %v", err)
	}
	// Reader goroutines and watchers must all unwind; give the runtime
	// a moment to reclaim them.
	deadline := time.Now().Add(5 * time.Second)
	for {
		if n := runtime.NumGoroutine(); n <= baseline {
			break
		}
		if time.Now().After(deadline) {
			buf := make([]byte, 1<<16)
			t.Fatalf("goroutines leaked after Close: %d > baseline %d\n%s",
				runtime.NumGoroutine(), baseline, buf[:runtime.Stack(buf, true)])
		}
		time.Sleep(10 * time.Millisecond)
	}
}

// TestCloseFailsRunsInFlight pins Close's contract for runs in flight:
// they fail at once with the backend-closed error instead of waiting
// for a heartbeat tick to notice the silent workers, and nothing falls
// back to an in-process pool created after Close.
func TestCloseFailsRunsInFlight(t *testing.T) {
	if testing.Short() {
		t.Skip("spawns worker processes")
	}
	cfg := shortCfg(20000)
	b := testBackend(t, ProcOptions{Workers: 2}, 1)
	first := make(chan struct{})
	var once sync.Once
	done := make(chan error, 1)
	go func() {
		_, err := b.Run(context.Background(), session.Shard{
			Config: cfg, Seeds: []uint64{1, 2, 3, 4, 5, 6, 7, 8}, Parallelism: 1,
			OnResult: func(int, *system.Metrics) { once.Do(func() { close(first) }) },
		})
		done <- err
	}()
	select {
	case <-first:
	case err := <-done:
		t.Fatalf("run ended before any result: %v", err)
	}
	start := time.Now()
	if err := b.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}
	select {
	case err := <-done:
		if !errors.Is(err, errBackendClosed) {
			t.Fatalf("Run after Close returned %v, want %v", err, errBackendClosed)
		}
		if el := time.Since(start); el > 250*time.Millisecond {
			t.Fatalf("Run returned %v after Close, want < 250ms", el)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("Run still blocked 10s after Close")
	}
	if ds := b.DistribStats(); ds.Fallbacks != 0 {
		t.Fatalf("Close triggered %d in-process fallbacks", ds.Fallbacks)
	}
	b.mu.Lock()
	defer b.mu.Unlock()
	if b.fallback != nil {
		t.Fatal("a fallback pool was created after Close")
	}
}

// FuzzProtocolDecode fuzzes the frame decoder end to end: whatever the
// bytes — truncated, oversized, bit-flipped, or garbage — reading and
// decoding must finish promptly with either clean EOF or a structured
// *FrameError, never a panic, an unbounded allocation, or a hang, and
// every payload it accepts must still re-encode to the same bytes after
// the reader has reused its buffer for every later frame. The seed
// corpus is real captured frames of every kind plus deliberate
// corruptions of them.
func FuzzProtocolDecode(f *testing.F) {
	capture := func(kind msgKind, msg message) []byte {
		var buf bytes.Buffer
		if err := newFrameWriter(&buf).send(kind, msg); err != nil {
			f.Fatal(err)
		}
		return buf.Bytes()
	}
	wc, err := ToWire(shortCfg(100))
	if err != nil {
		f.Fatal(err)
	}
	// A real result: one 1024-node burst replication, with a Series, per-
	// node utilization and per-stage slices for the fuzzer to corrupt.
	burst := shortCfg(25)
	burst.Nodes = 1024
	if burst.Scenario, err = scenario.Preset("burst", burst.Horizon); err != nil {
		f.Fatal(err)
	}
	run, err := system.RunWith(burst, nil)
	if err != nil {
		f.Fatal(err)
	}
	frames := [][]byte{
		capture(msgShard, &shardMsg{ID: 1, Config: wc, Seeds: []uint64{1, 2, 3}, Parallelism: 2}),
		capture(msgCancel, &idMsg{ID: 1}),
		capture(msgPing, &idMsg{ID: 9}),
		capture(msgPong, &idMsg{ID: 9}),
		capture(msgResult, &resultMsg{ID: 1, Index: 0, Metrics: &system.Metrics{}}),
		capture(msgResult, &resultMsg{ID: 1, Index: 1, Metrics: run}),
		capture(msgDone, &doneMsg{ID: 1, Completed: 3, Code: CodeOK}),
		capture(msgHello, &ourHello),
		capture(msgHello, &helloMsg{Magic: 0xDEADBEEF, Version: ProtocolVersion}),
		capture(msgHello, &helloMsg{Magic: ProtocolMagic, Version: ProtocolVersion + 7}),
		capture(msgDone, &doneMsg{ID: 2, Completed: 1, Code: CodeError, Error: "replication 1 failed",
			Pool: obs.PoolStats{WarmAcquires: 3, ColdAcquires: 1, BusySeconds: 0.25}}),
	}
	var stream []byte
	for _, fr := range frames {
		f.Add(fr)
		stream = append(stream, fr...)
	}
	f.Add(stream)                                                   // several frames back to back
	f.Add(slices.Concat(frames[5], frames[10], frames[6]))          // an error string in a reused buffer, then a frame over it
	f.Add(stream[:len(stream)-3])                                   // truncated mid-payload
	f.Add(stream[:2])                                               // truncated mid-header
	f.Add([]byte{0xFF, 0xFF, 0xFF, 0xFF, byte(msgResult), 1, 2, 3}) // absurd length
	flipped := append([]byte(nil), frames[0]...)
	flipped[4] = corruptKind // what the corrupt failpoint produces
	f.Add(flipped)
	bitrot := append([]byte(nil), frames[6]...)
	bitrot[7] ^= 0x40
	f.Add(bitrot)
	deep := append([]byte(nil), frames[5]...)
	deep[len(deep)/2] ^= 0x40 // inside the Metrics encoding
	f.Add(deep)

	f.Fuzz(func(t *testing.T, data []byte) {
		// Read as the coordinator does, through one reused buffer, and keep
		// every accepted message until the stream ends: a decode that kept
		// a view of the buffer re-encodes to a later frame's bytes.
		type accepted struct {
			kind    msgKind
			msg     message
			payload []byte
		}
		var kept []accepted
		fr := &frameReader{r: bytes.NewReader(data)}
		for {
			kind, payload, err := fr.next()
			if err != nil {
				var fe *FrameError
				if !errors.Is(err, io.EOF) && !errors.As(err, &fe) {
					t.Fatalf("unstructured read error %T: %v", err, err)
				}
				break
			}
			var m message
			switch kind {
			case msgShard:
				// The worker reads each frame into a fresh buffer, because
				// a shard keeps its Config as a view of the payload.
				payload = bytes.Clone(payload)
				m = new(shardMsg)
			case msgCancel, msgPing, msgPong:
				m = new(idMsg)
			case msgResult:
				m = new(resultMsg)
			case msgDone:
				m = new(doneMsg)
			case msgHello:
				m = new(helloMsg)
			default:
				continue // callers reject unknown kinds; nothing to decode
			}
			if derr := decodeMsg(kind, payload, m); derr != nil {
				var fe *FrameError
				if !errors.As(derr, &fe) {
					t.Fatalf("unstructured decode error %T: %v", derr, derr)
				}
				continue
			}
			kept = append(kept, accepted{kind, m, bytes.Clone(payload)})
		}
		for i, a := range kept {
			if again := a.msg.appendTo(nil); !bytes.Equal(again, a.payload) {
				t.Fatalf("message %d (kind %d): accepted payload re-encodes differently once the stream has ended", i, a.kind)
			}
		}
	})
}

// TestReadFrameBoundedAllocation pins the incremental payload read: a
// frame header claiming a near-maxFrame payload backed by almost no
// bytes must fail without ever allocating more than one read chunk.
func TestReadFrameBoundedAllocation(t *testing.T) {
	hdr := make([]byte, 5, 5+64)
	claim := uint32(maxFrame) // largest admissible claim
	hdr[0] = byte(claim >> 24)
	hdr[1] = byte(claim >> 16)
	hdr[2] = byte(claim >> 8)
	hdr[3] = byte(claim)
	hdr[4] = byte(msgResult)
	data := append(hdr, make([]byte, 64)...)

	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	_, _, err := readFrame(bytes.NewReader(data), 0, nil)
	runtime.ReadMemStats(&after)
	var fe *FrameError
	if !errors.As(err, &fe) || fe.Op != "payload" {
		t.Fatalf("err = %v, want *FrameError payload truncation", err)
	}
	if grew := after.TotalAlloc - before.TotalAlloc; grew > 2*readChunk {
		t.Fatalf("truncated 1GiB claim allocated %d bytes, want <= %d", grew, 2*readChunk)
	}
}

// bytesPerCall returns the heap bytes one call of f allocates, averaged
// over n calls.
func bytesPerCall(n int, f func()) float64 {
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	for range n {
		f()
	}
	runtime.ReadMemStats(&after)
	return float64(after.TotalAlloc-before.TotalAlloc) / float64(n)
}

// TestWarmReaderAllocatesNoPayload pins the coordinator's reused read
// buffer: once the first frame has sized it, reading and routing a
// 1024-node burst replication's result frame allocates its decoded
// Metrics and a small constant, and no copy of the roughly 15 KB
// payload.
func TestWarmReaderAllocatesNoPayload(t *testing.T) {
	const rounds, frames, slack = 3, 32, 512
	burst := shortCfg(25)
	burst.Nodes = 1024
	var err error
	if burst.Scenario, err = scenario.Preset("burst", burst.Horizon); err != nil {
		t.Fatal(err)
	}
	run, err := system.RunWith(burst, nil)
	if err != nil {
		t.Fatal(err)
	}
	enc, err := run.MarshalBinary()
	if err != nil {
		t.Fatal(err)
	}
	var stream bytes.Buffer
	fw := newFrameWriter(&stream)
	for i := range 1 + rounds*frames {
		if err := fw.send(msgResult, &resultMsg{ID: 1, Index: i, Metrics: run}); err != nil {
			t.Fatal(err)
		}
	}
	var sink *system.Metrics
	decoded := bytesPerCall(frames, func() {
		sink = new(system.Metrics)
		if err := sink.UnmarshalBinary(enc); err != nil {
			t.Fatal(err)
		}
	})

	b := NewProcBackend(ProcOptions{Workers: 1})
	w := &procWorker{fr: newFrameReader(&stream)}
	read := func() {
		kind, payload, err := w.fr.next()
		if err != nil {
			t.Fatal(err)
		}
		if err := b.route(w, kind, payload); err != nil {
			t.Fatal(err)
		}
	}
	read() // the first frame sizes the buffer
	best := bytesPerCall(frames, read)
	for range rounds - 1 {
		best = min(best, bytesPerCall(frames, read))
	}
	t.Logf("%d-byte result frames: %.0f B per frame read and routed, %.0f B per decoded Metrics",
		len(enc)+16, best, decoded)
	if best > decoded+slack {
		t.Fatalf("a warm reader allocated %.0f B per frame, want at most the decoded Metrics' %.0f B plus %d",
			best, decoded, slack)
	}
}
