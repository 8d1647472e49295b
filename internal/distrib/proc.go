package distrib

import (
	"bufio"
	"context"
	"errors"
	"fmt"
	"io"
	"os"
	"os/exec"
	"sort"
	"sync"
	"time"

	"repro/internal/failpoint"
	"repro/internal/obs"
	"repro/internal/session"
	"repro/internal/system"
)

// errWorkerDead marks a sub-shard that failed because its worker
// process died, hung, or broke protocol: the chunk is re-run on a
// surviving worker (after a capped exponential backoff), which is safe
// because replications are pure functions of (config, seed).
var errWorkerDead = errors.New("distrib: worker process died")

// errWorkerHung marks the liveness-deadline flavour of worker loss: the
// process never closed its pipe, but stopped answering heartbeats. It
// wraps errWorkerDead so every recovery path treats hangs and deaths
// identically — the hung process is killed and its chunk reassigned.
var errWorkerHung = fmt.Errorf("worker hung (missed liveness deadline): %w", errWorkerDead)

// errChunkDeadline marks a sub-shard that overran its execution
// deadline (derived from the EWMA of observed chunk latency) even
// though the worker kept answering heartbeats — a wedged or
// pathologically slow execution. Wrapping errWorkerDead reuses the
// kill-and-reassign recovery.
var errChunkDeadline = fmt.Errorf("sub-shard exceeded its execution deadline: %w", errWorkerDead)

// WorkerConn is the transport seam between the coordinator and one
// worker endpoint: a bidirectional byte stream carrying the frame
// protocol, plus the lifecycle hooks the supervisor needs. The default
// implementation wraps a spawned process's stdin/stdout pipes;
// internal/netdist provides one over a TCP connection.
type WorkerConn interface {
	io.Reader
	io.Writer
	// Close initiates a graceful shutdown by closing the
	// coordinator->worker direction (the worker sees EOF and exits after
	// in-flight shards finish). Reads may keep draining afterwards.
	Close() error
	// Kill forcefully tears the endpoint down; it must unblock any
	// in-flight Read. Safe after Close and safe to call more than once.
	Kill()
	// Wait blocks until the endpoint's resources are reclaimed (process
	// reaped, connection closed). Called after Kill or Close.
	Wait()
}

// ProcOptions configures a ProcBackend.
type ProcOptions struct {
	// Workers is the number of worker processes; 0 means 2.
	Workers int
	// Command is the worker argv. Empty re-executes the current binary
	// with -shard-server, which is the mode both CLIs serve.
	Command []string
	// Env appends to the inherited environment of worker processes.
	Env []string
	// Dial, when set, replaces process spawning: every worker slot (and
	// every respawn) is established by dialing a fresh WorkerConn
	// instead of exec'ing Command. Command, Env, and Stderr are ignored.
	// This is the seam internal/netdist uses to run the coordinator's
	// full supervision machinery — heartbeats, retries, hedging,
	// respawn budget — over TCP connections to remote workers.
	Dial func() (WorkerConn, error)
	// DegradeToLocal extends graceful degradation to the initial fleet:
	// when not a single worker can be established at the start of a Run,
	// the shard executes on the embedded in-process pool (recorded in
	// DistribStats.Fallbacks) instead of failing the Run. Remote workers
	// being unreachable is an expected operational state; an unspawnable
	// local process is a misconfiguration, so the default stays strict.
	DegradeToLocal bool
	// ChunkSize caps seeds per dispatched sub-shard; 0 picks
	// max(1, seeds/(4·workers)) so work-stealing has slack to balance.
	ChunkSize int
	// Stderr receives worker stderr; nil inherits this process's.
	Stderr io.Writer

	// Heartbeat is the liveness-probe interval: while a sub-shard is
	// outstanding and the worker is silent, the coordinator pings it
	// this often. 0 means 1s.
	Heartbeat time.Duration
	// WorkerTimeout is the liveness deadline: a worker that produces no
	// frame (result, done, or pong) for this long is declared hung,
	// killed, and its chunk reassigned. 0 means 10s; values below twice
	// the heartbeat are clamped up to it.
	WorkerTimeout time.Duration
	// HedgeFactor scales the straggler threshold: an idle worker
	// speculatively re-runs the oldest outstanding chunk once its age
	// exceeds HedgeFactor times the EWMA of completed-chunk latency
	// (first result wins; the duplicate is deduplicated and cancelled).
	// 0 means 4; negative disables hedging.
	HedgeFactor float64
	// RespawnBudget bounds recovery per Run: at most this many mid-run
	// worker respawns, and after this many consecutive chunk failures
	// the circuit breaker trips and the backend degrades gracefully to
	// the in-process pool for the remaining seeds. 0 means 4.
	RespawnBudget int
	// RetryBackoff is the base delay before a failed chunk is
	// redispatched; it doubles per attempt, capped at 2s. 0 means 50ms.
	RetryBackoff time.Duration
}

// workers resolves the worker-count default.
func (o ProcOptions) workers() int {
	if o.Workers <= 0 {
		return 2
	}
	return o.Workers
}

// heartbeat resolves the liveness-probe interval.
func (o ProcOptions) heartbeat() time.Duration {
	if o.Heartbeat <= 0 {
		return time.Second
	}
	return o.Heartbeat
}

// workerTimeout resolves the liveness deadline.
func (o ProcOptions) workerTimeout() time.Duration {
	d := o.WorkerTimeout
	if d <= 0 {
		d = 10 * time.Second
	}
	if min := 2 * o.heartbeat(); d < min {
		d = min
	}
	return d
}

// hedgeFactor resolves the straggler threshold multiplier; <= 0 means
// hedging is disabled (0 itself selects the default).
func (o ProcOptions) hedgeFactor() float64 {
	if o.HedgeFactor == 0 {
		return 4
	}
	if o.HedgeFactor < 0 {
		return 0
	}
	return o.HedgeFactor
}

// respawnBudget resolves the per-run recovery budget.
func (o ProcOptions) respawnBudget() int {
	if o.RespawnBudget <= 0 {
		return 4
	}
	return o.RespawnBudget
}

// retryBackoff resolves the capped exponential chunk-retry backoff for
// the given prior attempt count.
func (o ProcOptions) retryBackoff(attempts int) time.Duration {
	base := o.RetryBackoff
	if base <= 0 {
		base = 50 * time.Millisecond
	}
	const cap = 2 * time.Second
	d := base
	for i := 0; i < attempts && d < cap; i++ {
		d *= 2
	}
	if d > cap {
		d = cap
	}
	return d
}

// errBackendClosed fails runs on a closed backend, including dispatches
// still in flight when Close ran. It does not wrap errWorkerDead: a
// closed backend retries nothing and falls back to nothing.
var errBackendClosed = errors.New("distrib: backend closed")

// reply is one routed worker frame: a replication's result, or (done
// set) the dispatch's closing outcome.
type reply struct {
	index   int
	metrics *system.Metrics
	done    *doneMsg
}

// flight is one dispatch awaiting its worker's frames. Its buffer holds
// a whole chunk's results plus the done frame, so the reader never
// blocks on a slow dispatch; a worker that overflows it broke protocol.
// A requeued chunk's done frame counts as a steal.
type flight struct {
	size     int
	requeued bool
	replies  chan reply
}

// procConn adapts a spawned worker process to the WorkerConn seam:
// writes go to its stdin, reads come from its stdout, Kill signals the
// process, and Wait reaps it.
type procConn struct {
	cmd *exec.Cmd
	in  io.WriteCloser
	out io.ReadCloser
}

func (c *procConn) Read(p []byte) (int, error)  { return c.out.Read(p) }
func (c *procConn) Write(p []byte) (int, error) { return c.in.Write(p) }
func (c *procConn) Close() error                { return c.in.Close() }

func (c *procConn) Kill() {
	if c.cmd.Process != nil {
		_ = c.cmd.Process.Kill()
	}
}

func (c *procConn) Wait() { _ = c.cmd.Wait() }

// procWorker is one attached worker endpoint (a spawned process or a
// dialed connection), shared by every run in flight.
type procWorker struct {
	conn WorkerConn
	fw   *frameWriter
	br   *bufio.Reader
	slot int // fleet slot the worker fills

	// gone closes once the worker fails — a read error, a protocol
	// violation, a missed liveness deadline, a reap, or Close — and
	// wakes every dispatch still waiting on it; err (set first) says why.
	gone chan struct{}

	// Everything below is guarded by the backend's mu (cold path: once
	// per frame at most, never per event): failure state, the
	// dispatches awaiting frames by dispatch id, liveness, and the
	// coordinator-side stats.
	dead    bool
	err     error
	flights map[uint64]*flight
	last    time.Time // last frame, or the start of the first dispatch on an idle worker
	pinged  bool      // a liveness ping is unanswered

	id         uint64
	subShards  uint64
	steals     uint64
	framesRecv uint64
	bytesRecv  uint64
	pool       obs.PoolStats // latest pool gauges from a done frame
}

// ProcBackend implements session.Backend across worker processes: it
// splits a shard's seed range into contiguous chunks, work-steals the
// chunks across N persistent workers (each a ServeWorker process with
// its own warm workspace pool), and merges results in seed order, so
// its output is byte-identical to the in-process pool at any worker
// count.
//
// Concurrent Run calls share the fleet side by side. Each run keeps its
// own chunks, recovery budget and seed-order merge, and keeps at most
// one chunk in flight per worker, so a shard's Parallelism is honoured;
// a worker runs the chunks of different runs concurrently on its own
// pool. One reader per worker routes result and done frames to their
// dispatch by id.
//
// The coordinator supervises its fleet: per-worker heartbeats detect
// hung processes (not just closed pipes) within a liveness deadline,
// per-sub-shard execution deadlines derived from observed chunk
// latency catch wedged executions, failed chunks are retried with
// capped exponential backoff on surviving (or mid-run respawned)
// workers, and an idle worker speculatively re-runs the slowest
// outstanding chunk (first result wins; duplicates are deduplicated
// deterministically, so hedging never changes results). A failed
// worker fails every dispatch on it, whichever run it belongs to; runs
// that see one death share one replacement, and the fleet never
// exceeds Workers. When a run's respawn budget is exhausted — or no
// worker can be kept alive — the backend degrades gracefully: the run's
// remaining seeds execute on an embedded in-process pool and the
// fallback is recorded in DistribStats. Every recovery path preserves
// bit-identical merged output, because replications are pure functions
// of (config, seed).
//
// Configurations that cannot cross a process boundary (ErrNotWirable:
// an attached trace recorder, an unregistered Shape or Demand) fall
// back to the embedded in-process pool transparently.
type ProcBackend struct {
	opts ProcOptions

	spawnMu sync.Mutex // serializes fleet changes (spawns into slots); taken before mu

	mu       sync.Mutex    // guards workers/fallback/closed/nextID, worker state, and all stats below
	workers  []*procWorker // fleet slots; nil or dead until (re)spawned
	fallback *session.Pool
	closed   bool
	nextID   uint64

	// Coordinator stats (see DistribStats): worker ids, fleet health,
	// recovery counters, the seed-order merge buffer's high-water mark,
	// and the final stats of reaped workers.
	workerSeq        uint64
	deaths           uint64
	respawns         uint64
	mergeHWM         uint64
	heartbeatsMissed uint64
	retries          uint64
	hedgesWon        uint64
	hedgesLost       uint64
	fallbacks        uint64
	decodeRejects    uint64
	retired          []obs.WorkerStats
}

// NewProcBackend returns a backend; worker processes spawn lazily on
// the first Run that needs them.
func NewProcBackend(opts ProcOptions) *ProcBackend {
	return &ProcBackend{opts: opts, workers: make([]*procWorker, opts.workers())}
}

// Close shuts the workers down (closing stdin lets them exit cleanly;
// they are killed as a backstop, and every worker is reaped even if an
// earlier one fails to shut down) and drops the fallback pool. Runs in
// flight fail at once with a "backend closed" error. The first shutdown
// error wins; Close is idempotent — the second call returns nil without
// touching anything.
func (b *ProcBackend) Close() error {
	b.mu.Lock()
	if b.closed {
		b.mu.Unlock()
		return nil
	}
	b.closed = true
	var workers []*procWorker
	for _, w := range b.workers {
		if w != nil && !w.dead {
			w.dead, w.err = true, errBackendClosed
			close(w.gone)
			workers = append(workers, w)
		}
	}
	b.workers = nil
	fallback := b.fallback
	b.fallback = nil
	b.mu.Unlock()
	var firstErr error
	for _, w := range workers {
		if err := w.conn.Close(); err != nil && !errors.Is(err, os.ErrClosed) && firstErr == nil {
			firstErr = fmt.Errorf("distrib: close worker %d: %w", w.id, err)
		}
	}
	for _, w := range workers {
		w.conn.Kill()
		w.conn.Wait()
	}
	if fallback != nil {
		fallback.Close()
	}
	return firstErr
}

// spawn establishes one worker endpoint — a process over pipes, or a
// dialed connection when opts.Dial is set.
func (b *ProcBackend) spawn() (*procWorker, error) {
	if _, err := failpoint.Inject("distrib/spawn"); err != nil {
		return nil, fmt.Errorf("distrib: start worker: %w", err)
	}
	var conn WorkerConn
	if b.opts.Dial != nil {
		c, err := b.opts.Dial()
		if err != nil {
			return nil, fmt.Errorf("distrib: dial worker: %w", err)
		}
		conn = c
	} else {
		c, err := spawnProc(b.opts)
		if err != nil {
			return nil, err
		}
		conn = c
	}
	return &procWorker{
		conn:    conn,
		fw:      newFrameWriter(conn),
		br:      bufio.NewReaderSize(conn, 1<<16),
		gone:    make(chan struct{}),
		flights: map[uint64]*flight{},
	}, nil
}

// spawnProc starts one worker process on stdin/stdout pipes.
func spawnProc(opts ProcOptions) (*procConn, error) {
	argv := opts.Command
	if len(argv) == 0 {
		exe, err := os.Executable()
		if err != nil {
			return nil, fmt.Errorf("distrib: resolve worker binary: %w", err)
		}
		argv = []string{exe, "-shard-server"}
	}
	cmd := exec.Command(argv[0], argv[1:]...)
	if len(opts.Env) > 0 {
		cmd.Env = append(os.Environ(), opts.Env...)
	}
	if opts.Stderr != nil {
		cmd.Stderr = opts.Stderr
	} else {
		cmd.Stderr = os.Stderr
	}
	stdin, err := cmd.StdinPipe()
	if err != nil {
		return nil, err
	}
	stdout, err := cmd.StdoutPipe()
	if err != nil {
		return nil, err
	}
	if err := cmd.Start(); err != nil {
		return nil, fmt.Errorf("distrib: start worker %q: %w", argv[0], err)
	}
	return &procConn{cmd: cmd, in: stdin, out: stdout}, nil
}

// fill returns the live worker in fleet slot i. An empty slot, or one
// whose worker failed, gets a fresh spawn when spawn is set (a respawn
// if the slot held a worker before) and stays empty (nil, nil)
// otherwise. The caller holds spawnMu, so runs that see one death share
// one replacement.
func (b *ProcBackend) fill(i int, spawn bool) (*procWorker, error) {
	b.mu.Lock()
	if b.closed {
		b.mu.Unlock()
		return nil, errBackendClosed
	}
	old := b.workers[i]
	if old != nil && !old.dead {
		b.mu.Unlock()
		return old, nil
	}
	b.mu.Unlock()
	if !spawn {
		return nil, nil
	}
	w, err := b.spawn()
	if err != nil {
		return nil, err
	}
	b.mu.Lock()
	if b.closed {
		b.mu.Unlock()
		w.conn.Kill()
		w.conn.Wait()
		return nil, errBackendClosed
	}
	b.workerSeq++
	w.id, w.slot = b.workerSeq, i
	if old != nil {
		b.respawns++
	}
	b.workers[i] = w
	b.mu.Unlock()
	go b.readLoop(w)
	go b.watch(w)
	return w, nil
}

// attach returns a run's view of the fleet: every slot's live worker,
// spawning into empty or failed slots. After the first failed spawn it
// runs on what it has; with no worker at all it fails.
func (b *ProcBackend) attach() ([]*procWorker, error) {
	b.spawnMu.Lock()
	defer b.spawnMu.Unlock()
	var live []*procWorker
	var spawnErr error
	for i := 0; i < b.opts.workers(); i++ {
		w, err := b.fill(i, spawnErr == nil)
		if errors.Is(err, errBackendClosed) {
			return nil, err
		}
		if err != nil {
			spawnErr = err
		}
		if w != nil {
			live = append(live, w)
		}
	}
	if len(live) == 0 {
		return nil, spawnErr
	}
	return live, nil
}

// replace returns the live successor of a failed worker in its slot,
// spawning one unless a concurrent run already did.
func (b *ProcBackend) replace(old *procWorker) (*procWorker, error) {
	b.spawnMu.Lock()
	defer b.spawnMu.Unlock()
	return b.fill(old.slot, true)
}

// reap fails a worker: it records the cause, wakes every dispatch
// waiting on it, archives its final stats as a death, and reclaims its
// endpoint. The first cause wins; later calls (and calls after Close)
// do nothing.
func (b *ProcBackend) reap(w *procWorker, cause error) {
	b.mu.Lock()
	if w.dead {
		b.mu.Unlock()
		return
	}
	w.dead, w.err = true, cause
	close(w.gone)
	b.deaths++
	b.retired = append(b.retired, b.workerStatsLocked(w))
	b.mu.Unlock()
	_ = w.conn.Close()
	w.conn.Kill()
	go w.conn.Wait()
}

// readLoop routes the worker's frames to their dispatches until a read
// error or a protocol violation fails the worker.
func (b *ProcBackend) readLoop(w *procWorker) {
	for {
		kind, payload, err := readFrame(w.br)
		if err != nil {
			b.reap(w, fmt.Errorf("%w: read: %v", errWorkerDead, err))
			return
		}
		if err := b.route(w, kind, payload); err != nil {
			b.countDecodeReject()
			b.reap(w, fmt.Errorf("%w: %v", errWorkerDead, err))
			return
		}
	}
}

// route delivers one frame. Any frame proves the worker alive; results
// and done frames go to the dispatch they name, and frames of finished
// or abandoned dispatches (a cancelled hedge, a timed-out chunk) are
// dropped. A malformed frame is an error: the stream can no longer be
// trusted.
func (b *ProcBackend) route(w *procWorker, kind msgKind, payload []byte) error {
	var (
		id uint64
		r  reply
	)
	switch kind {
	case msgPong:
	case msgResult:
		var m resultMsg
		if err := decodeMsg(kind, payload, &m); err != nil {
			return err
		}
		id, r = m.ID, reply{index: m.Index, metrics: m.Metrics}
	case msgDone:
		var m doneMsg
		if err := decodeMsg(kind, payload, &m); err != nil {
			return err
		}
		id, r = m.ID, reply{done: &m}
	default:
		return fmt.Errorf("unexpected frame kind %d", kind)
	}
	b.mu.Lock()
	defer b.mu.Unlock()
	w.framesRecv++
	w.bytesRecv += uint64(len(payload)) + frameOverhead
	w.last, w.pinged = time.Now(), false
	fl := w.flights[id]
	if kind == msgPong || fl == nil {
		return nil
	}
	if r.done != nil {
		delete(w.flights, id)
		w.subShards++
		if fl.requeued {
			w.steals++
		}
		w.pool = r.done.Pool // cumulative gauges; latest frame supersedes
	} else if r.index < 0 || r.index >= fl.size || r.metrics == nil {
		return fmt.Errorf("malformed result frame (id %d, index %d)", id, r.index)
	}
	select {
	case fl.replies <- r:
		return nil
	default:
		return fmt.Errorf("more results than seeds for dispatch %d", id)
	}
}

// watch probes the worker's liveness while dispatches wait on it: after
// a heartbeat of silence it pings, counts a ping still unanswered at
// the next probe as missed, and fails the worker once it has been
// silent past the liveness deadline.
func (b *ProcBackend) watch(w *procWorker) {
	hb, liveness := b.opts.heartbeat(), b.opts.workerTimeout()
	t := time.NewTicker(hb)
	defer t.Stop()
	var seq uint64
	for {
		select {
		case <-w.gone:
			return
		case <-t.C:
		}
		b.mu.Lock()
		silent := time.Since(w.last)
		probe := len(w.flights) > 0 && silent >= hb
		if probe {
			if w.pinged {
				b.heartbeatsMissed++
			}
			w.pinged = true
		}
		b.mu.Unlock()
		switch {
		case !probe:
			continue
		case silent > liveness:
			b.reap(w, fmt.Errorf("worker %d silent for %v: %w", w.id, silent.Round(time.Millisecond), errWorkerHung))
			return
		}
		seq++
		if err := w.fw.send(msgPing, pingMsg{Seq: seq}); err != nil {
			b.reap(w, fmt.Errorf("%w: ping: %v", errWorkerDead, err))
			return
		}
	}
}

// localPool records a fallback and returns the embedded in-process
// pool; a closed backend has none.
func (b *ProcBackend) localPool() (*session.Pool, error) {
	b.mu.Lock()
	defer b.mu.Unlock()
	if b.closed {
		return nil, errBackendClosed
	}
	if b.fallback == nil {
		b.fallback = session.NewPool()
	}
	b.fallbacks++
	return b.fallback, nil
}

// chunk is a contiguous [start, end) slice of a shard's seed range.
// requeued marks a dispatch of a chunk put back after a worker failure
// (or dispatched speculatively); the worker that completes it records a
// steal.
type chunk struct {
	start, end int
	requeued   bool
}

// chunkSeeds cuts n seeds into in-order chunks of at most size.
func chunkSeeds(n, size int) []chunk {
	var out []chunk
	for start := 0; start < n; start += size {
		end := start + size
		if end > n {
			end = n
		}
		out = append(out, chunk{start: start, end: end})
	}
	return out
}

// chunkSize resolves the sub-shard granularity.
func (b *ProcBackend) chunkSize(n, workers int) int {
	if b.opts.ChunkSize > 0 {
		return b.opts.ChunkSize
	}
	size := n / (4 * workers)
	if size < 1 {
		size = 1
	}
	return size
}

// chunkState tracks one chunk's dispatch lifecycle under the run's mu:
// how many dispatches are outstanding (a hedge makes it two), whether
// it finished, its retry backoff gate, and the workers its outstanding
// dispatches run on (so the winner can cancel the loser).
type chunkState struct {
	c         chunk
	attempts  int       // failed attempts so far (drives the backoff)
	notBefore time.Time // backoff gate for the next dispatch
	running   int       // outstanding dispatches (0, 1, or 2 with a hedge)
	done      bool
	hedged    bool // a speculative duplicate has been dispatched
	startedAt time.Time
	active    map[uint64]*procWorker // dispatch id -> worker
}

// Run implements session.Backend. Results are merged in seed order;
// cancellation returns the longest finished contiguous seed prefix
// together with ctx's error, exactly like the in-process pool. (Unlike
// the in-process pool, OnResult may additionally have fired for a few
// completed replications beyond that prefix — chunks cancel
// independently — which streaming and progress hooks tolerate by
// construction.)
//
// Worker failures never invalidate the run: dead, hung, or misbehaving
// workers are reaped and their chunks retried (with backoff) on
// survivors or mid-run respawns; if the recovery budget runs out, the
// remaining seeds execute on the embedded in-process pool. The only
// hard failures are a replication error inside the simulation itself,
// an unspawnable initial fleet, and Close.
func (b *ProcBackend) Run(ctx context.Context, shard session.Shard) (session.ShardResult, error) {
	if len(shard.Seeds) == 0 {
		return session.ShardResult{Metrics: []*system.Metrics{}}, ctx.Err()
	}
	wc, err := ToWire(shard.Config)
	if err != nil {
		if errors.Is(err, ErrNotWirable) {
			pool, perr := b.localPool()
			if perr != nil {
				return session.ShardResult{}, perr
			}
			return pool.Run(ctx, shard)
		}
		return session.ShardResult{}, err
	}

	workers, err := b.attach()
	if err != nil {
		if b.opts.DegradeToLocal {
			if pool, perr := b.localPool(); perr == nil {
				return pool.Run(ctx, shard)
			}
		}
		return session.ShardResult{}, err
	}

	chunks := chunkSeeds(len(shard.Seeds), b.chunkSize(len(shard.Seeds), len(workers)))
	states := make([]*chunkState, len(chunks))
	for i, c := range chunks {
		states[i] = &chunkState{c: c, active: map[uint64]*procWorker{}}
	}

	var (
		mu          sync.Mutex
		doneCount   int // chunks that completed
		live        = len(workers)
		consecFails int  // consecutive chunk failures (circuit breaker)
		respawned   int  // mid-run respawns consumed from the budget
		degraded    bool // circuit breaker tripped: stop dispatching to workers
		failErr     error
		cancelled   bool
		ewma        float64 // EWMA of completed-chunk latency, seconds
		ewmaN       int
	)
	budget := b.opts.respawnBudget()
	cond := sync.NewCond(&mu)
	runCtx, cancelRun := context.WithCancel(ctx)
	defer cancelRun()

	metrics := make([]*system.Metrics, len(shard.Seeds))
	delivered := make([]bool, len(shard.Seeds))
	deliveredCount, prefix := 0, 0 // for merge-buffer depth: arrived − emittable
	record := func(i int, m *system.Metrics) {
		mu.Lock()
		first := !delivered[i]
		delivered[i] = true
		metrics[i] = m
		if first {
			deliveredCount++
			for prefix < len(delivered) && delivered[prefix] {
				prefix++
			}
			// Results held back because an earlier seed is still running;
			// lock order run-local mu → b.mu is taken nowhere in reverse.
			if d := uint64(deliveredCount - prefix); d > 0 {
				b.noteMergeDepth(d)
			}
		}
		mu.Unlock()
		// A chunk re-run after a worker failure (or a hedged duplicate)
		// replays indices another dispatch already streamed; OnResult
		// fires once per index — first result wins, deterministically,
		// because every dispatch computes the identical metrics.
		if first && shard.OnResult != nil {
			shard.OnResult(i, m)
		}
	}

	// Propagate caller cancellation into the dispatch state so idle
	// workers stop waiting for chunks, and re-broadcast periodically so
	// time-gated decisions (backoff expiry, straggler age) are
	// re-evaluated without a condition-variable timeout.
	stopWatch := make(chan struct{})
	go func() {
		select {
		case <-runCtx.Done():
			mu.Lock()
			cancelled = true
			cond.Broadcast()
			mu.Unlock()
		case <-stopWatch:
		}
	}()
	tick := b.opts.heartbeat() / 4
	if tick < 5*time.Millisecond {
		tick = 5 * time.Millisecond
	}
	if tick > 250*time.Millisecond {
		tick = 250 * time.Millisecond
	}
	go func() {
		t := time.NewTicker(tick)
		defer t.Stop()
		for {
			select {
			case <-t.C:
				cond.Broadcast()
			case <-stopWatch:
				return
			}
		}
	}()

	// pickWork selects the next dispatch for an idle worker: the first
	// queued chunk whose backoff elapsed, else — past the straggler
	// threshold — a speculative duplicate of the oldest outstanding
	// chunk. Caller holds mu.
	hedgeFactor := b.opts.hedgeFactor()
	pickWork := func() (*chunkState, bool) {
		now := time.Now()
		for _, cs := range states {
			if cs.done || cs.running > 0 || now.Before(cs.notBefore) {
				continue
			}
			return cs, false
		}
		if hedgeFactor > 0 && ewmaN > 0 {
			thr := time.Duration(hedgeFactor * ewma * float64(time.Second))
			if hb := b.opts.heartbeat(); thr < hb {
				thr = hb
			}
			var best *chunkState
			var bestAge time.Duration
			for _, cs := range states {
				if cs.done || cs.running != 1 || cs.hedged {
					continue
				}
				if age := now.Sub(cs.startedAt); age > thr && age > bestAge {
					best, bestAge = cs, age
				}
			}
			if best != nil {
				return best, true
			}
		}
		return nil, false
	}

	// requeue puts a failed dispatch's chunk back with backoff, and
	// trips the circuit breaker after too many consecutive failures.
	// Caller holds mu.
	requeue := func(cs *chunkState) {
		if cs.done || cs.running > 0 {
			return // another dispatch (a hedge) still carries the chunk
		}
		cs.attempts++
		cs.hedged = false
		cs.notBefore = time.Now().Add(b.opts.retryBackoff(cs.attempts - 1))
		b.countRetry()
		consecFails++
		if consecFails >= budget {
			degraded = true
		}
	}

	var wg sync.WaitGroup
	var dispatch func(w *procWorker)
	dispatch = func(w *procWorker) {
		defer wg.Done()
		for {
			mu.Lock()
			var cs *chunkState
			var isHedge bool
			for {
				if failErr != nil || cancelled || degraded || doneCount == len(states) {
					mu.Unlock()
					return
				}
				cs, isHedge = pickWork()
				if cs != nil {
					break
				}
				cond.Wait()
			}
			cs.running++
			if isHedge {
				cs.hedged = true
			} else {
				cs.startedAt = time.Now()
			}
			c := cs.c
			c.requeued = cs.attempts > 0 || isHedge
			deadline := time.Duration(0)
			if ewmaN > 0 {
				deadline = time.Duration(8 * ewma * float64(time.Second))
				if min := 2 * b.opts.workerTimeout(); deadline < min {
					deadline = min
				}
				for i := 0; i < cs.attempts && i < 3; i++ {
					deadline *= 2
				}
			}
			b.mu.Lock()
			b.nextID++
			id := b.nextID
			b.mu.Unlock()
			cs.active[id] = w
			start := time.Now()
			mu.Unlock()

			cerr := b.runChunk(runCtx, w, &wc, shard, c, id, deadline, record)

			mu.Lock()
			delete(cs.active, id)
			cs.running--
			switch {
			case cs.done:
				// Another dispatch won the race; this one's results were
				// deduplicated. Nothing to account — hedge win/loss was
				// recorded by the winner.
			case cerr == nil:
				cs.done = true
				doneCount++
				consecFails = 0
				if cs.hedged {
					if isHedge {
						b.countHedge(true)
					} else {
						b.countHedge(false)
					}
				}
				// First result wins: cancel the loser so its worker frees
				// up (its late results are deduplicated regardless).
				for oid, ow := range cs.active {
					go func(ow *procWorker, oid uint64) {
						_ = ow.fw.send(msgCancel, cancelMsg{ID: oid})
					}(ow, oid)
				}
				el := time.Since(start).Seconds()
				if ewmaN == 0 {
					ewma = el
				} else {
					ewma = 0.7*ewma + 0.3*el
				}
				ewmaN++
			case isCancellation(cerr):
				if !cancelled {
					// A cancel ack without a run cancellation: the chunk
					// was cancelled as a hedge loser but lost its winner
					// (or a stray); put it back.
					requeue(cs)
				}
			case errors.Is(cerr, errWorkerDead):
				requeue(cs)
			default:
				if failErr == nil {
					failErr = cerr
					cancelRun()
				}
			}
			cond.Broadcast()
			dead := errors.Is(cerr, errWorkerDead)
			mu.Unlock()
			if !dead {
				continue
			}

			// The worker is gone (died, hung, or broke protocol): reap
			// it and — within the budget — replace it after a capped
			// backoff so the fleet heals mid-run.
			b.reap(w, cerr)
			mu.Lock()
			live--
			canRespawn := !cancelled && failErr == nil && !degraded &&
				doneCount < len(states) && respawned < budget
			attempt := respawned
			if canRespawn {
				respawned++
			}
			mu.Unlock()
			if canRespawn {
				select {
				case <-time.After(b.opts.retryBackoff(attempt)):
				case <-runCtx.Done():
					return
				}
				if nw, rerr := b.replace(w); rerr == nil {
					mu.Lock()
					live++
					mu.Unlock()
					wg.Add(1)
					go dispatch(nw)
					return
				}
				// Spawn failure consumes budget like any other failure.
				mu.Lock()
				consecFails++
				if consecFails >= budget {
					degraded = true
				}
				mu.Unlock()
			}
			mu.Lock()
			if live == 0 && !cancelled && failErr == nil && doneCount < len(states) {
				// No worker left and no respawn coming: degrade to the
				// in-process pool rather than fail the run.
				degraded = true
			}
			cond.Broadcast()
			mu.Unlock()
			return
		}
	}
	for _, w := range workers {
		wg.Add(1)
		go dispatch(w)
	}
	wg.Wait()
	close(stopWatch)

	// Graceful degradation: the circuit breaker tripped (or the fleet
	// could not be kept alive), so every seed not yet delivered runs on
	// the embedded in-process pool. Determinism makes the switch
	// invisible in the results.
	if degraded && failErr == nil && ctx.Err() == nil {
		var idxs []int
		for i, d := range delivered {
			if !d {
				idxs = append(idxs, i)
			}
		}
		if len(idxs) > 0 {
			pool, perr := b.localPool()
			if perr != nil {
				return session.ShardResult{}, perr
			}
			seeds := make([]uint64, len(idxs))
			for j, i := range idxs {
				seeds[j] = shard.Seeds[i]
			}
			fb := session.Shard{
				Config:      shard.Config,
				Seeds:       seeds,
				Parallelism: shard.Parallelism,
				OnResult:    func(j int, m *system.Metrics) { record(idxs[j], m) },
			}
			if _, ferr := pool.Run(ctx, fb); ferr != nil && !isCancellation(ferr) {
				failErr = ferr
			}
		}
	}

	if failErr != nil && !isCancellation(failErr) {
		return session.ShardResult{}, failErr
	}
	if cerr := ctx.Err(); cerr != nil {
		// Longest contiguous finished prefix; chunks cancel
		// independently, so completions beyond the first hole are
		// discarded (deterministic re-runs would reproduce them).
		completed := 0
		for completed < len(metrics) && metrics[completed] != nil {
			completed++
		}
		for i := completed; i < len(metrics); i++ {
			metrics[i] = nil
		}
		return session.ShardResult{Metrics: metrics, Completed: completed}, cerr
	}
	return session.ShardResult{Metrics: metrics, Completed: len(metrics)}, nil
}

// runChunk dispatches one sub-shard to a worker and consumes the frames
// the worker's reader routes to it, up to the coded done frame. A
// failed worker and an overrun execution deadline return errors
// wrapping errWorkerDead; the caller reaps the worker and re-queues the
// chunk.
func (b *ProcBackend) runChunk(ctx context.Context, w *procWorker, wc *WireConfig,
	shard session.Shard, c chunk, id uint64, deadline time.Duration,
	record func(int, *system.Metrics)) error {
	if _, err := failpoint.Inject("distrib/dispatch"); err != nil {
		return fmt.Errorf("%w: dispatch: %v", errWorkerDead, err)
	}
	fl := &flight{size: c.end - c.start, requeued: c.requeued, replies: make(chan reply, c.end-c.start+1)}
	b.mu.Lock()
	if w.dead {
		b.mu.Unlock()
		return w.err
	}
	if len(w.flights) == 0 {
		w.last, w.pinged = time.Now(), false // liveness restarts on an idle worker
	}
	w.flights[id] = fl
	b.mu.Unlock()
	defer func() {
		b.mu.Lock()
		delete(w.flights, id)
		b.mu.Unlock()
	}()

	msg := shardMsg{
		ID:          id,
		Config:      *wc,
		Seeds:       shard.Seeds[c.start:c.end],
		Parallelism: shard.Parallelism,
	}
	if err := w.fw.send(msgShard, msg); err != nil {
		return fmt.Errorf("%w: send: %v", errWorkerDead, err)
	}
	var overrun <-chan time.Time
	if deadline > 0 {
		t := time.NewTimer(deadline)
		defer t.Stop()
		overrun = t.C
	}
	cancel := ctx.Done()
	for {
		var r reply
		select {
		case r = <-fl.replies:
		case <-w.gone:
			select {
			case r = <-fl.replies: // frames routed before the failure still count
			default:
				return w.err
			}
		case <-cancel:
			// Forward cancellation as a frame, then keep waiting for the
			// worker's (possibly partial) results.
			cancel = nil
			_ = w.fw.send(msgCancel, cancelMsg{ID: id})
			continue
		case <-overrun:
			return fmt.Errorf("sub-shard exceeded %v: %w", deadline, errChunkDeadline)
		}
		if r.done != nil {
			return r.done.Code.err(r.done.Error)
		}
		record(c.start+r.index, r.metrics)
	}
}

// noteMergeDepth raises the merge-buffer high-water mark.
func (b *ProcBackend) noteMergeDepth(d uint64) {
	b.mu.Lock()
	if d > b.mergeHWM {
		b.mergeHWM = d
	}
	b.mu.Unlock()
}

// countRetry, countHedge, and countDecodeReject
// bump the coordinator's recovery counters (cold path, under b.mu).
func (b *ProcBackend) countRetry() {
	b.mu.Lock()
	b.retries++
	b.mu.Unlock()
}

func (b *ProcBackend) countHedge(won bool) {
	b.mu.Lock()
	if won {
		b.hedgesWon++
	} else {
		b.hedgesLost++
	}
	b.mu.Unlock()
}

func (b *ProcBackend) countDecodeReject() {
	b.mu.Lock()
	b.decodeRejects++
	b.mu.Unlock()
}

// workerStatsLocked snapshots one worker's stats; b.mu must be held.
func (b *ProcBackend) workerStatsLocked(w *procWorker) obs.WorkerStats {
	frames, bytes := w.fw.counts()
	return obs.WorkerStats{
		ID:         w.id,
		Alive:      !w.dead,
		SubShards:  w.subShards,
		Steals:     w.steals,
		FramesSent: frames,
		FramesRecv: w.framesRecv,
		BytesSent:  bytes,
		BytesRecv:  w.bytesRecv,
		Pool:       w.pool,
	}
}

// DistribStats implements session.DistribStatser: a point-in-time view
// of the coordinator — fleet health, recovery counters (heartbeats
// missed, chunk retries, hedge outcomes, in-process fallbacks, frame
// rejects), per-worker transport and dispatch counters (live and
// retired, ordered by spawn id), and the seed-order merge buffer's
// high-water mark.
func (b *ProcBackend) DistribStats() *obs.DistribStats {
	b.mu.Lock()
	defer b.mu.Unlock()
	out := &obs.DistribStats{
		Deaths:             b.deaths,
		Respawns:           b.respawns,
		MergeDepthHWM:      b.mergeHWM,
		HeartbeatsMissed:   b.heartbeatsMissed,
		Retries:            b.retries,
		HedgesWon:          b.hedgesWon,
		HedgesLost:         b.hedgesLost,
		Fallbacks:          b.fallbacks,
		FrameDecodeRejects: b.decodeRejects,
		Workers:            append([]obs.WorkerStats(nil), b.retired...),
	}
	for _, w := range b.workers {
		if w == nil || w.dead {
			continue // archived in retired by reap
		}
		out.Workers = append(out.Workers, b.workerStatsLocked(w))
	}
	sort.Slice(out.Workers, func(i, j int) bool { return out.Workers[i].ID < out.Workers[j].ID })
	return out
}

// PoolStats implements session.PoolStatser: the fleet-wide total of
// every worker's pool gauges (as last reported over the wire) plus the
// in-process fallback pool, if one ever ran.
func (b *ProcBackend) PoolStats() obs.PoolStats {
	b.mu.Lock()
	defer b.mu.Unlock()
	var ps obs.PoolStats
	for _, w := range b.retired {
		ps.Add(w.Pool)
	}
	for _, w := range b.workers {
		if w == nil || w.dead {
			continue // already counted via retired
		}
		ps.Add(w.pool)
	}
	if b.fallback != nil {
		ps.Add(b.fallback.PoolStats())
	}
	return ps
}
