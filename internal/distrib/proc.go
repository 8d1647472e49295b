package distrib

import (
	"context"
	"errors"
	"fmt"
	"io"
	"os"
	"os/exec"
	"sort"
	"sync"
	"time"

	"repro/internal/obs"
	"repro/internal/session"
	"repro/internal/system"
)

// errWorkerDead marks a sub-shard that failed because its worker
// process died, hung, or broke protocol: the chunk is re-run on a
// surviving worker (after a capped exponential backoff), which is safe
// because replications are pure functions of (config, seed).
var errWorkerDead = errors.New("distrib: worker process died")

// errWorkerHung marks the hung flavour of worker loss: the process
// never closed its pipe, but stopped answering heartbeats or left a
// cancel unacknowledged. It wraps errWorkerDead so every recovery path
// treats hangs and deaths identically — the hung process is killed and
// its chunk reassigned.
var errWorkerHung = fmt.Errorf("worker hung (missed a liveness or cancel deadline): %w", errWorkerDead)

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
	// with -shard-server, which is the mode sdasim, sdascn and sdaserve
	// all serve.
	Command []string
	// Env appends to the inherited environment of worker processes.
	Env []string
	// Dial, when set, replaces process spawning: every worker slot (and
	// every respawn) is established by dialing a fresh WorkerConn
	// instead of exec'ing Command. Command, Env, and Stderr are ignored.
	// This is the seam internal/netdist uses to run the coordinator's
	// full supervision machinery — heartbeats, retries, hedging,
	// respawn budget — over TCP connections to remote workers. A dialing
	// fleet also degrades at the start of a Run: when not a single worker
	// can be dialed, the shard executes on the embedded in-process pool
	// (recorded in DistribStats.Fallbacks). Unreachable remote workers
	// are an expected operational state; an unspawnable local process is
	// a misconfiguration, so a spawned fleet fails the Run instead.
	Dial func() (WorkerConn, error)
	// Stderr receives worker stderr; nil inherits this process's.
	Stderr io.Writer

	// Heartbeat is the liveness-probe interval: while a sub-shard is
	// outstanding and the worker is silent, the coordinator pings it
	// this often. 0 means 1s.
	Heartbeat time.Duration
	// WorkerTimeout is the liveness deadline: a worker that produces no
	// frame (result, done, or pong) for this long is declared hung,
	// killed, and its chunk reassigned. Twice it is also the floor of a
	// chunk's execution deadline and the time a worker has to acknowledge
	// a cancel. 0 means 10s; values below twice the heartbeat are clamped
	// up to it.
	WorkerTimeout time.Duration
	// HedgeFactor scales the straggler threshold: an idle worker
	// speculatively re-runs the oldest outstanding chunk once its age
	// exceeds HedgeFactor times the EWMA of completed-chunk latency
	// (first result wins; the duplicate is deduplicated and cancelled).
	// 0 means 4; negative disables hedging.
	HedgeFactor float64
}

// respawnBudget bounds the mid-run worker respawns of one Run. Every
// failed dispatch reaps its worker, so a fleet that keeps failing runs
// out of workers once the budget is spent, and the run's remaining
// seeds fall back to the in-process pool. A failed chunk (and a
// respawn) waits retryBackoff before its next attempt.
const respawnBudget = 4

// retryBackoff is the capped exponential delay after the given number
// of prior attempts: 50ms, doubling, at most 2s.
func retryBackoff(attempts int) time.Duration {
	d := 50 * time.Millisecond
	for i := 0; i < attempts && d < 2*time.Second; i++ {
		d *= 2
	}
	return min(d, 2*time.Second)
}

// errBackendClosed fails runs on a closed backend, including dispatches
// still in flight when Close ran. It does not wrap errWorkerDead: a
// closed backend retries nothing and falls back to nothing.
var errBackendClosed = errors.New("distrib: backend closed")

// procConn adapts a started worker process to the WorkerConn seam:
// writes and Close go to its stdin, reads come from its stdout, Kill
// signals the process, and Wait reaps it.
type procConn struct {
	io.WriteCloser // stdin
	io.Reader      // stdout
	cmd            *exec.Cmd
}

func (c *procConn) Kill() { _ = c.cmd.Process.Kill() }
func (c *procConn) Wait() { _ = c.cmd.Wait() }

// procWorker is one attached worker endpoint (a spawned process or a
// dialed connection), shared by every run in flight. It has two
// goroutines: readLoop posts its frames into the runs they belong to,
// and writeLoop writes its outbox in order and probes its liveness.
type procWorker struct {
	conn WorkerConn
	fw   *frameWriter
	fr   *frameReader
	slot int // fleet slot the worker fills

	// wake (capacity 1) tells the writer that its outbox has frames or
	// that the worker failed.
	wake chan struct{}

	// Everything below is guarded by the backend's mu (cold path: once
	// per frame at most, never per event): failure state (a read error,
	// a protocol violation, a missed deadline, a reap, or Close; err
	// says why), the dispatches awaiting frames by dispatch id, the
	// frames queued for the writer, liveness, and the coordinator-side
	// stats.
	dead    bool
	err     error
	flights map[uint64]*dispatch
	outbox  []outFrame
	last    time.Time // last frame, or the start of the first dispatch on an idle worker
	pinged  bool      // a liveness ping is unanswered

	id         uint64
	subShards  uint64
	steals     uint64
	framesRecv uint64
	bytesRecv  uint64
	pool       obs.PoolStats // latest pool gauges from a done frame
}

// outFrame is one frame queued for a worker's writer.
type outFrame struct {
	kind msgKind
	msg  message
}

// ProcBackend implements session.Backend across worker processes: it
// splits a shard's seed range into contiguous chunks, work-steals the
// chunks across N persistent workers (each a ServeWorker process with
// its own warm workspace pool), and merges results in seed order, so
// its output is byte-identical to the in-process pool at any worker
// count.
//
// Supervision has two levels. The fleet is shared by concurrent runs.
// A worker has two goroutines and a dispatch none: the reader posts the
// worker's frames straight into their runs, and the writer sends its
// frames in order and pings it past a heartbeat of silence. A failed
// worker ends every dispatch on it whichever run it belongs to, runs
// that see one death share one replacement, and the fleet never
// exceeds Workers. Each Run is one supervisor loop over its own chunks
// (see Run): at most one chunk in flight per worker, so a shard's
// Parallelism is honoured, with its own execution deadlines, retries,
// hedges, and respawn budget, and a fallback to an embedded in-process
// pool once that budget is spent. Every recovery path preserves
// bit-identical merged output, because replications are pure functions
// of (config, seed).
//
// Configurations that cannot cross a process boundary (ErrNotWirable:
// an attached trace recorder, a Shape or Demand without a wire tag)
// fall back to the embedded in-process pool transparently.
type ProcBackend struct {
	opts  ProcOptions
	chunk int // seeds per sub-shard when positive; tests pin chunk geometry with it

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

// NewProcBackend returns a backend with opts' defaults resolved; worker
// processes spawn lazily on the first Run that needs them.
func NewProcBackend(opts ProcOptions) *ProcBackend {
	if opts.Workers <= 0 {
		opts.Workers = 2
	}
	if opts.Heartbeat <= 0 {
		opts.Heartbeat = time.Second
	}
	if opts.WorkerTimeout <= 0 {
		opts.WorkerTimeout = 10 * time.Second
	}
	opts.WorkerTimeout = max(opts.WorkerTimeout, 2*opts.Heartbeat)
	if opts.HedgeFactor == 0 {
		opts.HedgeFactor = 4
	}
	return &ProcBackend{opts: opts, workers: make([]*procWorker, opts.Workers)}
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
			b.failLocked(w, errBackendClosed)
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
	var conn WorkerConn
	var err error
	if b.opts.Dial != nil {
		if conn, err = b.opts.Dial(); err != nil {
			return nil, fmt.Errorf("distrib: dial worker: %w", err)
		}
	} else if conn, err = spawnProc(b.opts); err != nil {
		return nil, err
	}
	return &procWorker{
		conn:    conn,
		fw:      newFrameWriter(conn),
		fr:      newFrameReader(conn),
		wake:    make(chan struct{}, 1),
		flights: map[uint64]*dispatch{},
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
	return &procConn{WriteCloser: stdin, Reader: stdout, cmd: cmd}, nil
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
	go b.writeLoop(w)
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
	for i := 0; i < b.opts.Workers; i++ {
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

// reap fails a worker: it records the cause, ends every dispatch still
// registered on it, archives its final stats as a death, and reclaims
// its endpoint. The first cause wins; later calls (and calls after
// Close) do nothing.
func (b *ProcBackend) reap(w *procWorker, cause error) {
	b.mu.Lock()
	if w.dead {
		b.mu.Unlock()
		return
	}
	b.failLocked(w, cause)
	b.deaths++
	b.retired = append(b.retired, b.workerStatsLocked(w))
	b.mu.Unlock()
	_ = w.conn.Close()
	w.conn.Kill()
	go w.conn.Wait()
}

// failLocked marks w failed, stops its writer, and posts the end of
// every dispatch still registered on it into that dispatch's run; b.mu
// is held. The post never blocks (see dispatch.run).
func (b *ProcBackend) failLocked(w *procWorker, cause error) {
	w.dead, w.err = true, cause
	w.poke()
	for id, d := range w.flights {
		delete(w.flights, id)
		d.run <- runEvent{d: d, err: cause}
	}
}

// readLoop posts the worker's frames into their runs until a read error
// or a protocol violation fails the worker. Every frame lands in the
// reader's one reused buffer; route decodes it into fresh values and
// keeps no view of it.
func (b *ProcBackend) readLoop(w *procWorker) {
	for {
		kind, payload, err := w.fr.next()
		if err != nil {
			b.reap(w, fmt.Errorf("%w: read: %v", errWorkerDead, err))
			return
		}
		if err := b.route(w, kind, payload); err != nil {
			b.mu.Lock()
			b.decodeRejects++
			b.mu.Unlock()
			b.reap(w, fmt.Errorf("%w: %v", errWorkerDead, err))
			return
		}
	}
}

// route delivers one frame. Any frame proves the worker alive; results
// and done frames are posted into the run of the dispatch they name,
// and frames of finished or abandoned dispatches (a cancelled hedge, a
// timed-out chunk) are dropped. A malformed frame, or a result beyond
// its dispatch's seed count, is an error: the stream can no longer be
// trusted.
func (b *ProcBackend) route(w *procWorker, kind msgKind, payload []byte) error {
	var (
		id   uint64
		ev   runEvent
		done doneMsg
	)
	switch kind {
	case msgPong:
	case msgResult:
		var m resultMsg
		if err := decodeMsg(kind, payload, &m); err != nil {
			return err
		}
		id, ev = m.ID, runEvent{index: m.Index, metrics: m.Metrics}
	case msgDone:
		if err := decodeMsg(kind, payload, &done); err != nil {
			return err
		}
		id, ev = done.ID, runEvent{err: done.Code.err(done.Error)}
	default:
		return fmt.Errorf("unexpected frame kind %d", kind)
	}
	b.mu.Lock()
	defer b.mu.Unlock()
	w.framesRecv++
	w.bytesRecv += uint64(len(payload)) + frameOverhead
	w.last, w.pinged = time.Now(), false
	d := w.flights[id]
	if kind == msgPong || d == nil {
		return nil
	}
	size := d.cs.c.end - d.cs.c.start
	switch {
	case kind == msgDone:
		delete(w.flights, id)
		w.subShards++
		if d.requeued {
			w.steals++
		}
		w.pool = done.Pool // cumulative gauges; latest frame supersedes
	case ev.index < 0 || ev.index >= size:
		return fmt.Errorf("malformed result frame (id %d, index %d)", id, ev.index)
	case d.results == size:
		return fmt.Errorf("more results than seeds for dispatch %d", id)
	default:
		d.results++
	}
	ev.d = d
	d.run <- ev
	return nil
}

// queue hands a frame for d to its worker's writer, unless d has
// already ended. It never waits on the wire.
func (b *ProcBackend) queue(d *dispatch, kind msgKind, msg message) {
	b.mu.Lock()
	defer b.mu.Unlock()
	if w := d.w; w.flights[d.id] == d {
		w.outbox = append(w.outbox, outFrame{kind: kind, msg: msg})
		w.poke()
	}
}

// poke wakes w's writer without waiting.
func (w *procWorker) poke() {
	select {
	case w.wake <- struct{}{}:
	default:
	}
}

// writeLoop is the worker's only writer: it sends queued frames in
// order, so a cancel never overtakes its shard frame, and probes
// liveness while dispatches wait on the worker. After a heartbeat of
// silence it pings, counts a ping still unanswered at the next probe as
// missed, and fails the worker once it has been silent past the
// liveness deadline. A stalled write stalls the probe too; the run
// loops' chunk deadlines and cancel-ack bounds still reap the worker.
func (b *ProcBackend) writeLoop(w *procWorker) {
	hb, liveness := b.opts.Heartbeat, b.opts.WorkerTimeout
	t := time.NewTicker(hb)
	defer t.Stop()
	var seq uint64
	for {
		var batch []outFrame
		select {
		case <-w.wake:
			b.mu.Lock()
			dead := w.dead
			batch, w.outbox = w.outbox, nil
			b.mu.Unlock()
			if dead {
				return
			}
		case <-t.C:
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
			batch = []outFrame{{kind: msgPing, msg: &idMsg{ID: seq}}}
		}
		for _, f := range batch {
			if err := w.fw.send(f.kind, f.msg); err != nil {
				b.reap(w, fmt.Errorf("%w: send: %v", errWorkerDead, err))
				return
			}
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
type chunk struct{ start, end int }

// chunkSeeds cuts n seeds into in-order chunks of at most size.
func chunkSeeds(n, size int) []chunk {
	var out []chunk
	for start := 0; start < n; start += size {
		out = append(out, chunk{start: start, end: min(start+size, n)})
	}
	return out
}

// chunkState is one chunk's lifecycle in its run's loop: pending while
// no dispatch carries it (dispatchable once its backoff gate passes),
// running while one does (two with a hedge), and done once a dispatch
// finishes it. A failed dispatch puts it back to pending.
type chunkState struct {
	c         chunk
	attempts  int       // failed attempts so far (drive the backoff and the deadline)
	notBefore time.Time // backoff gate for the next dispatch
	running   int       // outstanding dispatches (0, 1, or 2 with a hedge)
	done      bool
	hedged    bool      // a speculative duplicate has been dispatched
	startedAt time.Time // start of the primary dispatch (the straggler's age)
}

// dispatch is one chunk sent to one worker. The run loop owns it; the
// worker's reader and whoever fails the worker only post its frames and
// its end into run, under the backend's mu.
type dispatch struct {
	id       uint64
	w        *procWorker
	cs       *chunkState
	hedge    bool
	requeued bool // a retry or a hedge: the worker that completes it records a steal
	start    time.Time
	ackBy    time.Time // once stopped, the worker is reaped unless it acks by then

	run     chan<- runEvent // the owning run's events, sized so a post never blocks (see Run)
	results int             // result frames posted; guarded by the backend's mu
}

// runEvent is one message to a run loop: a replication's result (metrics
// set), how a dispatch ended (d set, metrics nil), or a respawn report
// (d nil: the slot's live worker, or the error that left it empty).
type runEvent struct {
	d       *dispatch
	index   int // seed index within the dispatch's chunk
	metrics *system.Metrics
	err     error
	w       *procWorker
}

// procRun is one Run's supervisor state, all of it owned by the loop in
// the caller's goroutine. Readers, failing workers and respawns only
// post to the loop, over events.
type procRun struct {
	b      *ProcBackend
	shard  session.Shard
	wc     []byte // ToWire(shard.Config), sent in every chunk's shard frame
	chunks []*chunkState
	idle   []*procWorker // the run's workers with none of its chunks in flight
	flying map[*dispatch]struct{}
	events chan runEvent

	spawning  int  // respawns not yet reported
	done      int  // chunks done
	respawned int  // mid-run respawns scheduled, out of respawnBudget
	halted    bool // cancelled or failed: dispatch nothing more
	failErr   error
	ewma      float64 // EWMA of completed-chunk latency, seconds
	ewmaN     int

	metrics           []*system.Metrics // nil until delivered
	delivered, prefix int               // merge-buffer depth is delivered − prefix
}

// Run implements session.Backend. Results are merged in seed order;
// cancellation returns the longest finished contiguous seed prefix
// together with ctx's error, exactly like the in-process pool. (Unlike
// the in-process pool, OnResult may additionally have fired for a few
// completed replications beyond that prefix — chunks cancel
// independently — which streaming and progress hooks tolerate by
// construction.)
//
// One loop in the caller's goroutine supervises the run: it hands
// pending chunks to idle workers, one per worker; merges the results
// the workers' readers post to it; retries failed chunks after a capped
// exponential backoff on survivors or mid-run respawns; hedges
// stragglers; and reaps the worker of a dispatch that overruns its
// chunk deadline, or that leaves a cancel unacknowledged for twice
// WorkerTimeout, so cancellation bounds Run even on a wedged worker.
// One timer wakes the loop for the next such moment. Every failed
// dispatch costs its worker, and mid-run respawns are capped at
// respawnBudget, so a fleet that keeps failing runs out; the remaining
// seeds then execute on the embedded in-process pool. The only hard
// failures are a replication error inside the simulation itself, a
// spawned fleet that cannot start a single worker, and Close.
func (b *ProcBackend) Run(ctx context.Context, shard session.Shard) (session.ShardResult, error) {
	if len(shard.Seeds) == 0 {
		return session.ShardResult{Metrics: []*system.Metrics{}}, ctx.Err()
	}
	r := &procRun{
		b:       b,
		shard:   shard,
		flying:  map[*dispatch]struct{}{},
		metrics: make([]*system.Metrics, len(shard.Seeds)),
		halted:  ctx.Err() != nil,
	}
	// A config that cannot cross a process boundary (ErrNotWirable, the
	// only error ToWire returns) runs in process, and so does a shard on
	// a dialing fleet that cannot reach a single worker.
	wc, err := ToWire(shard.Config)
	degraded := err != nil
	if !degraded {
		workers, err := b.attach()
		switch {
		case err == nil:
			size := b.chunk
			if size <= 0 {
				size = max(1, len(shard.Seeds)/(4*len(workers))) // slack for work-stealing to balance
			}
			for _, c := range chunkSeeds(len(shard.Seeds), size) {
				r.chunks = append(r.chunks, &chunkState{c: c})
			}
			// At most one dispatch per fleet slot is in flight, posting at
			// most its seed count in results plus its end, and at most
			// respawnBudget respawns report: readers never block on the
			// loop, so pongs keep flowing while it is busy.
			r.events = make(chan runEvent, b.opts.Workers*(size+1)+respawnBudget)
			r.wc, r.idle = wc, workers
			degraded = r.loop(ctx)
		case b.opts.Dial != nil:
			degraded = true
		default:
			return session.ShardResult{}, err
		}
	}

	// Graceful degradation: every seed not yet delivered runs on the
	// embedded in-process pool. Determinism makes the switch invisible
	// in the results.
	if degraded && r.failErr == nil && ctx.Err() == nil && r.delivered < len(r.metrics) {
		var idxs []int
		var seeds []uint64
		for i, m := range r.metrics {
			if m == nil {
				idxs, seeds = append(idxs, i), append(seeds, shard.Seeds[i])
			}
		}
		pool, perr := b.localPool()
		if perr != nil {
			return session.ShardResult{}, perr
		}
		var mu sync.Mutex // the pool reports from its worker goroutines
		fb := session.Shard{Config: shard.Config, Seeds: seeds, Parallelism: shard.Parallelism,
			OnResult: func(j int, m *system.Metrics) {
				mu.Lock()
				r.record(idxs[j], m)
				mu.Unlock()
				if shard.OnResult != nil {
					shard.OnResult(idxs[j], m)
				}
			}}
		if _, ferr := pool.Run(ctx, fb); !session.IsCancellation(ferr) {
			r.failErr = ferr
		}
	}

	if r.failErr != nil && !session.IsCancellation(r.failErr) {
		return session.ShardResult{}, r.failErr
	}
	if cerr := ctx.Err(); cerr != nil {
		// Longest contiguous finished prefix; chunks cancel
		// independently, so completions beyond the first hole are
		// discarded (deterministic re-runs would reproduce them).
		clear(r.metrics[r.prefix:])
		return session.ShardResult{Metrics: r.metrics, Completed: r.prefix}, cerr
	}
	return session.ShardResult{Metrics: r.metrics, Completed: len(r.metrics)}, nil
}

// loop supervises the run until no dispatch is outstanding and the run
// is finished or halted, and reports whether it ran out of workers
// instead. Each pass first applies every event already waiting, so no
// deadline is judged against a dispatch whose end has arrived, however
// long OnResult took. It then dispatches what it can, enforces
// deadlines, and sleeps until an event arrives or the earliest future
// moment the pass noted.
func (r *procRun) loop(ctx context.Context) (degraded bool) {
	timer := time.NewTimer(time.Hour)
	defer timer.Stop()
	cancel := ctx.Done()
	for {
		select {
		case ev := <-r.events:
			r.handle(ev)
			continue
		default:
		}
		now := time.Now()
		var wakeAt time.Time
		ahead := func(t time.Time) bool { // notes t as a wake-up unless it has passed
			if !t.After(now) {
				return false
			}
			if wakeAt.IsZero() || t.Before(wakeAt) {
				wakeAt = t
			}
			return true
		}
		r.assign(now, ahead)
		r.expire(ahead)
		if len(r.flying) == 0 {
			if r.halted || r.done == len(r.chunks) {
				return false
			}
			if len(r.idle) == 0 && r.spawning == 0 {
				return true // no worker left and none coming
			}
		}
		var wake <-chan time.Time
		if !wakeAt.IsZero() {
			timer.Reset(time.Until(wakeAt))
			wake = timer.C
		}
		select {
		case ev := <-r.events:
			r.handle(ev)
		case <-cancel:
			cancel = nil
			r.halt()
		case <-wake:
		}
	}
}

// chunkDeadline bounds a dispatch of cs by the current EWMA of
// completed-chunk latency: max(8·ewma, 2·WorkerTimeout), doubled per
// failed attempt up to three times. It is zero (unbounded) only until
// the run's first chunk completes; from then on it bounds dispatches
// already running too.
func (r *procRun) chunkDeadline(cs *chunkState) time.Duration {
	if r.ewmaN == 0 {
		return 0
	}
	lim := max(time.Duration(8*r.ewma*float64(time.Second)), 2*r.b.opts.WorkerTimeout)
	for i := 0; i < cs.attempts && i < 3; i++ {
		lim *= 2
	}
	return lim
}

// assign hands each idle worker the first pending chunk whose backoff
// passed, else a speculative duplicate of the oldest running chunk past
// the straggler threshold, max(HedgeFactor·ewma, Heartbeat).
func (r *procRun) assign(now time.Time, ahead func(time.Time) bool) {
	var thr time.Duration
	if f := r.b.opts.HedgeFactor; f > 0 && r.ewmaN > 0 {
		thr = max(time.Duration(f*r.ewma*float64(time.Second)), r.b.opts.Heartbeat)
	}
	for len(r.idle) > 0 && !r.halted {
		var pick, straggler *chunkState
		for _, cs := range r.chunks {
			switch {
			case cs.done:
			case cs.running == 0:
				if !ahead(cs.notBefore) && pick == nil {
					pick = cs
				}
			case cs.running == 1 && !cs.hedged && thr > 0 && !ahead(cs.startedAt.Add(thr)):
				if straggler == nil || cs.startedAt.Before(straggler.startedAt) {
					straggler = cs
				}
			}
		}
		hedge := pick == nil
		if hedge {
			pick = straggler
		}
		if pick == nil {
			return
		}
		last := len(r.idle) - 1 // the most recently freed worker, just proven responsive
		r.launch(r.idle[last], pick, hedge, now)
		r.idle = r.idle[:last]
	}
}

// expire reaps the worker of every dispatch past its chunk deadline or
// its cancel-ack bound. A reaped dispatch's end is then waiting in
// events, so the next pass applies it before it could be judged again.
func (r *procRun) expire(ahead func(time.Time) bool) {
	for d := range r.flying {
		switch lim := r.chunkDeadline(d.cs); {
		case lim > 0 && !ahead(d.start.Add(lim)):
			r.b.reap(d.w, fmt.Errorf("sub-shard exceeded %v: %w", lim, errChunkDeadline))
		case !d.ackBy.IsZero() && !ahead(d.ackBy):
			r.b.reap(d.w, fmt.Errorf("worker %d did not acknowledge a cancel within %v: %w",
				d.w.id, 2*r.b.opts.WorkerTimeout, errWorkerHung))
		}
	}
}

// launch registers one dispatch of cs on w and queues its shard frame
// for w's writer. On a worker that has already failed, the dispatch
// ends at once with the worker's error.
func (r *procRun) launch(w *procWorker, cs *chunkState, hedge bool, now time.Time) {
	cs.running++
	if hedge {
		cs.hedged = true
	} else {
		cs.startedAt = now
	}
	d := &dispatch{w: w, cs: cs, hedge: hedge, requeued: cs.attempts > 0 || hedge, start: now, run: r.events}
	r.flying[d] = struct{}{}
	b := r.b
	b.mu.Lock()
	b.nextID++
	d.id = b.nextID
	if w.dead {
		d.run <- runEvent{d: d, err: w.err}
	} else {
		if len(w.flights) == 0 {
			w.last, w.pinged = now, false // liveness restarts on an idle worker
		}
		w.flights[d.id] = d
	}
	b.mu.Unlock()
	b.queue(d, msgShard, &shardMsg{ID: d.id, Config: r.wc, Seeds: r.shard.Seeds[cs.c.start:cs.c.end], Parallelism: r.shard.Parallelism})
}

// handle applies one event: a respawned worker joins the idle set, a
// result is merged, and an ended dispatch settles its chunk and frees
// its worker, or — if the worker failed — reaps it and schedules a
// replacement within the budget.
func (r *procRun) handle(ev runEvent) {
	d := ev.d
	switch {
	case d == nil:
		r.spawning--
		if ev.err == nil {
			r.idle = append(r.idle, ev.w)
		}
		return
	case ev.metrics != nil:
		i := d.cs.c.start + ev.index
		if r.record(i, ev.metrics) && r.shard.OnResult != nil {
			r.shard.OnResult(i, ev.metrics)
		}
		return
	}
	cs, err := d.cs, ev.err
	delete(r.flying, d)
	cs.running--
	if session.IsCancellation(err) && !r.halted && !cs.done {
		// The run never asked for this cancel: the worker broke protocol.
		err = fmt.Errorf("%w: worker %d cancelled dispatch %d unasked: %v", errWorkerDead, d.w.id, d.id, err)
	}
	switch {
	case cs.done:
		// Another dispatch won the race; this one's results were
		// deduplicated, and the winner scored the hedge.
	case err == nil:
		r.finish(d)
	case errors.Is(err, errWorkerDead):
		// Put the chunk back behind its backoff, unless a hedge carries it.
		if cs.running == 0 {
			cs.attempts++
			cs.hedged = false
			cs.notBefore = time.Now().Add(retryBackoff(cs.attempts - 1))
			r.b.mu.Lock()
			r.b.retries++
			r.b.mu.Unlock()
		}
	case session.IsCancellation(err):
	case r.failErr == nil:
		r.failErr = err
		r.halt()
	}
	if !errors.Is(err, errWorkerDead) {
		r.idle = append(r.idle, d.w)
		return
	}
	r.b.reap(d.w, err)
	if !r.halted && r.done < len(r.chunks) && r.respawned < respawnBudget {
		// After its backoff, the slot's live successor joins the run.
		// Nothing waits for it: a spawn or dial bounds it, and its report
		// never blocks, even after the run has ended.
		slot := d.w.slot
		time.AfterFunc(retryBackoff(r.respawned), func() {
			r.b.spawnMu.Lock()
			w, err := r.b.fill(slot, true)
			r.b.spawnMu.Unlock()
			r.events <- runEvent{w: w, err: err}
		})
		r.respawned++
		r.spawning++
	}
}

// finish marks d's chunk done. First result wins: any other dispatch
// of the chunk is stopped (its late results are deduplicated anyway),
// the hedge is scored, and the chunk's latency feeds the EWMA.
func (r *procRun) finish(d *dispatch) {
	d.cs.done = true
	r.done++
	if d.cs.hedged {
		r.b.mu.Lock()
		if d.hedge {
			r.b.hedgesWon++
		} else {
			r.b.hedgesLost++
		}
		r.b.mu.Unlock()
	}
	for o := range r.flying {
		if o.cs == d.cs {
			r.stop(o)
		}
	}
	el := time.Since(d.start).Seconds()
	if r.ewmaN == 0 {
		r.ewma = el
	} else {
		r.ewma = 0.7*r.ewma + 0.3*el
	}
	r.ewmaN++
}

// halt stops every outstanding dispatch: the run was cancelled or failed.
func (r *procRun) halt() {
	r.halted = true
	for d := range r.flying {
		r.stop(d)
	}
}

// stop queues a cancel frame for d and gives the worker twice
// WorkerTimeout to acknowledge it: a live worker stops at its next
// replication boundary, a wedged one is reaped.
func (r *procRun) stop(d *dispatch) {
	if d.ackBy.IsZero() {
		d.ackBy = time.Now().Add(2 * r.b.opts.WorkerTimeout)
		r.b.queue(d, msgCancel, &idMsg{ID: d.id})
	}
}

// record merges one result and reports whether it is the first for its
// index. First result wins: a chunk re-run after a failure (or a hedge)
// replays indices another dispatch already delivered, with identical
// metrics, so OnResult fires once per index.
func (r *procRun) record(i int, m *system.Metrics) bool {
	if r.metrics[i] != nil {
		return false
	}
	r.metrics[i] = m
	r.delivered++
	for r.prefix < len(r.metrics) && r.metrics[r.prefix] != nil {
		r.prefix++
	}
	if depth := uint64(r.delivered - r.prefix); depth > 0 {
		// Results held back because an earlier seed is still running.
		r.b.mu.Lock()
		r.b.mergeHWM = max(r.b.mergeHWM, depth)
		r.b.mu.Unlock()
	}
	return true
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
	var ps obs.PoolStats
	for _, w := range b.DistribStats().Workers { // live and retired
		ps.Add(w.Pool)
	}
	b.mu.Lock()
	fallback := b.fallback
	b.mu.Unlock()
	if fallback != nil {
		ps.Add(fallback.PoolStats())
	}
	return ps
}
