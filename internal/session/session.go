// Package session is the unified run layer of the reproduction: every
// public entry point — single simulations, replicated runs, scenario
// runs, experiment sweep cells, both CLIs — executes through a Session.
//
// A Session owns the execution resources that are worth keeping warm
// between calls: a pool of per-worker system.Workspaces (engine, task
// pools, ready queues, node group, and reconfigurable workload sources),
// leased to workers for the duration of a batch and returned afterwards.
// A Job describes what to run — a configuration (which carries the
// optional scenario and trace recorder) and a replication count — and
// functional options (WithParallelism, WithProgress) tune the run; the
// same options are accepted by New (session-wide defaults) and by each
// call (per-run overrides). A scenario job's merged time series comes
// from Result.MergedSeries.
//
// Every run method takes a context.Context, and cancellation is
// deterministic-safe: replications are claimed in seed order and a
// claimed replication always runs to completion, so the partial result
// of a cancelled run is the exact seed prefix of the full run — each
// finished replication's metrics are bit-identical to the uncancelled
// run's, and the result says exactly which seeds finished.
//
// The Backend interface is the seam the distributed runners plug into:
// the in-process Pool executes shards on the runner worker pool with
// warm workspaces, and the process and TCP backends (internal/distrib,
// internal/netdist) implement the same one-method contract, so
// everything above it (Session, streaming, experiments, CLIs) is the
// same on every backend.
package session

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/failpoint"
	"repro/internal/obs"
	"repro/internal/runner"
	"repro/internal/scenario"
	"repro/internal/stats"
	"repro/internal/system"
)

// Job describes one unit of replicated simulation work: a configuration
// and the number of independent replications. Replication i runs with
// seed Config.Seed + i; a Reps of zero means one replication.
type Job struct {
	// Config is the model configuration shared by every replication
	// (Config.Seed seeds the first one). Config.Scenario makes every
	// replication time-varying with per-window series metrics;
	// Config.Trace records every replication's lifecycle events and
	// forces the sequential path.
	Config system.Config
	// Reps is the replication count; 0 runs a single replication.
	Reps int
}

// reps resolves the replication count.
func (j Job) reps() (int, error) {
	if j.Reps < 0 {
		return 0, fmt.Errorf("session: job reps = %d, want >= 0", j.Reps)
	}
	if j.Reps == 0 {
		return 1, nil
	}
	return j.Reps, nil
}

// seeds resolves the replication count and lists the job's replication
// seeds. A job whose range Config.Seed .. Config.Seed+reps-1 does not
// fit in uint64 is rejected: silent wraparound would rerun seeds 0, 1,
// ... and hand the backend duplicate replications presented as
// independent ones.
func (j Job) seeds() ([]uint64, error) {
	reps, err := j.reps()
	if err != nil {
		return nil, err
	}
	if base := j.Config.Seed; base > ^uint64(0)-uint64(reps-1) {
		return nil, fmt.Errorf("session: seed range %d+%d wraps around uint64; lower Config.Seed or Reps", base, reps)
	}
	return seedRange(j.Config.Seed, reps), nil
}

// options is the resolved option set of one call.
type options struct {
	parallelism int
	progress    func(done, total int)
}

// Option configures a Session (as a default for every call) or a single
// run (overriding the session default).
type Option func(*options)

// WithParallelism bounds the worker pool: 0 (the default) uses all
// cores, 1 forces the sequential path. Results are bit-identical at
// every setting — each replication owns its seed-derived RNG substreams
// — so parallelism only changes wall-clock time.
func WithParallelism(n int) Option { return func(o *options) { o.parallelism = n } }

// WithProgress observes batch completion: fn is called after each
// finished replication with the number done and the total. It may be
// called concurrently from worker goroutines and must be safe for that.
func WithProgress(fn func(done, total int)) Option { return func(o *options) { o.progress = fn } }

// Shard is the unit of work a Backend executes: one configuration and a
// run of seeds, one replication per seed, results index-aligned with Seeds.
type Shard struct {
	// Config is the per-replication configuration; Config.Seed is
	// ignored in favour of Seeds[i].
	Config system.Config
	// Seeds lists the replication seeds in result order.
	Seeds []uint64
	// Parallelism bounds the backend's worker fan-out (0 = backend
	// default, 1 = sequential).
	Parallelism int
	// OnResult, when non-nil, is called as each replication finishes
	// with its index within Seeds and its metrics — possibly
	// concurrently from worker goroutines, and in completion order, not
	// seed order. Streaming and progress reporting hang off this hook.
	// m is read-only, as every Backend result is.
	OnResult func(i int, m *system.Metrics)
}

// ShardResult is a Backend's answer: per-replication metrics aligned
// with Shard.Seeds. Completed is the length of the finished seed prefix;
// it equals len(Metrics) == len(Seeds) unless the run was cancelled, in
// which case Metrics[i] is nil for i >= Completed. The Metrics values
// are read-only and may be shared with other callers (see Backend); the
// slice itself belongs to the caller.
type ShardResult struct {
	Metrics   []*system.Metrics
	Completed int
}

// Backend executes shards. The in-process implementation is Pool; a
// distributed runner implements the same contract over remote workers.
// Run returns the shard's results in seed order. On cancellation it
// returns the completed seed prefix together with ctx's error; any
// other error invalidates the whole shard.
//
// Results are read-only. A Backend may hand the same *system.Metrics to
// several callers — the shard-result cache returns its stored value on
// every hit — so neither a caller nor an OnResult hook may write to a
// returned Metrics, its slices or its Series; merge into a fresh value
// (Result.MergedSeries does).
type Backend interface {
	Run(ctx context.Context, shard Shard) (ShardResult, error)
}

// Pool is the in-process Backend: shards fan out on a bounded worker
// pool, and each worker leases a warm system.Workspace from the pool's
// free list for the duration of the shard, so consecutive shards reuse
// engines, task pools, queues, and workload sources across calls. A Pool
// is safe for concurrent Run calls; workspaces are never shared between
// concurrent shards.
type Pool struct {
	mu     sync.Mutex
	free   []*system.Workspace
	closed bool

	// Reuse gauges: leases served warm (recycled workspace) vs cold
	// (fresh allocation), counted under mu on the lease path (once per
	// worker per shard, not per replication). busyNanos accumulates the
	// wall-clock time workers spent inside RunWith; atomic because
	// workers report concurrently.
	warm, cold uint64
	busyNanos  atomic.Int64
}

// NewPool returns an empty pool; workspaces are created on demand.
func NewPool() *Pool { return &Pool{} }

// acquire leases a workspace (creating one if the free list is empty).
func (p *Pool) acquire() *system.Workspace {
	// Leasing is infallible, so this seam serves the timing faults:
	// delay simulates lease contention, hang a wedged simulation. In a
	// shard-worker process the main loop keeps answering pings while a
	// shard hangs here, so heartbeats cannot see it; the coordinator's
	// chunk deadline (or, after a cancel, its ack bound) catches it.
	failpoint.Inject("session/pool-acquire")
	p.mu.Lock()
	defer p.mu.Unlock()
	if n := len(p.free); n > 0 {
		ws := p.free[n-1]
		p.free[n-1] = nil
		p.free = p.free[:n-1]
		p.warm++
		return ws
	}
	p.cold++
	return system.NewWorkspace()
}

// PoolStats reports the pool's cumulative reuse gauges. Sessions expose
// it through Snapshot; worker processes ship it home in done frames.
func (p *Pool) PoolStats() obs.PoolStats {
	p.mu.Lock()
	warm, cold := p.warm, p.cold
	p.mu.Unlock()
	return obs.PoolStats{
		WarmAcquires: warm,
		ColdAcquires: cold,
		BusySeconds:  time.Duration(p.busyNanos.Load()).Seconds(),
	}
}

// release returns a leased workspace to the free list (dropping it if
// the pool was closed while the lease was out).
func (p *Pool) release(ws *system.Workspace) {
	p.mu.Lock()
	defer p.mu.Unlock()
	if p.closed {
		return
	}
	p.free = append(p.free, ws)
}

// Close drops every warm workspace. Shards already running finish
// normally; their workspaces are discarded on release.
func (p *Pool) Close() {
	p.mu.Lock()
	defer p.mu.Unlock()
	p.closed, p.free = true, nil
}

// Run implements Backend on the runner worker pool. A shared
// Config.Trace recorder is cross-replication mutable state, so tracing
// forces the sequential path.
func (p *Pool) Run(ctx context.Context, shard Shard) (ShardResult, error) {
	par := shard.Parallelism
	if shard.Config.Trace != nil {
		par = 1
	}
	run := runner.New(par)
	metrics := make([]*system.Metrics, len(shard.Seeds))
	// The runner never starts more workers than there are seeds, so a
	// huge requested parallelism costs no lease slots.
	leases := make([]*system.Workspace, min(run.Workers(), len(shard.Seeds)))
	defer func() {
		for _, ws := range leases {
			if ws != nil {
				p.release(ws)
			}
		}
	}()
	completed, err := run.RunWorkersContext(ctx, len(shard.Seeds), func(worker, i int) error {
		ws := leases[worker]
		if ws == nil {
			ws = p.acquire()
			leases[worker] = ws
		}
		cfg := shard.Config
		cfg.Seed = shard.Seeds[i]
		started := time.Now()
		m, rerr := system.RunWith(cfg, ws)
		p.busyNanos.Add(int64(time.Since(started)))
		if rerr != nil {
			return rerr
		}
		metrics[i] = m
		if shard.OnResult != nil {
			shard.OnResult(i, m)
		}
		return nil
	})
	if err != nil && !IsCancellation(err) {
		// A replication failed: the shard has no usable prefix.
		return ShardResult{}, err
	}
	return ShardResult{Metrics: metrics, Completed: completed}, err
}

// Session is the stateful entry point of the run API: construction
// resolves the default options, and the warm workspace pool (or a
// caller-provided Backend) persists across every Run, Stream, and
// experiment sweep issued through it. Create one Session per logical
// client and reuse it; a Session is safe for concurrent calls.
type Session struct {
	defaults options
	backend  Backend
	pool     *Pool // non-nil when backend is the owned in-process pool

	mu     sync.Mutex
	closed bool

	// Run-layer metrics, accumulated by instrument() around every Run
	// and Stream: engine counters merged across finished replications,
	// job/replication totals, and the in-flight gauge. All cold-path —
	// obsMu is taken once per replication completion, never during
	// event dispatch.
	obsMu        sync.Mutex
	engineTotals obs.EngineStats
	jobsStarted  uint64
	jobsFinished uint64
	repsDone     uint64
	inFlight     atomic.Int64
}

// New returns a Session running on the in-process Pool backend with the
// given default options.
func New(opts ...Option) *Session {
	p := NewPool()
	s := NewWithBackend(p, opts...)
	s.pool = p
	return s
}

// NewWithBackend returns a Session running every job through b — the
// seam a distributed runner plugs into. The options become the session
// defaults exactly as with New.
func NewWithBackend(b Backend, opts ...Option) *Session {
	s := &Session{backend: b}
	for _, opt := range opts {
		opt(&s.defaults)
	}
	return s
}

// Close releases the session's warm workspaces (for the in-process
// backend) and marks the session unusable; subsequent calls fail. Runs
// already in flight finish normally.
func (s *Session) Close() error {
	s.mu.Lock()
	s.closed = true
	s.mu.Unlock()
	if s.pool != nil {
		s.pool.Close()
	}
	return nil
}

// resolve merges per-call options over the session defaults and checks
// liveness.
func (s *Session) resolve(opts []Option) (options, error) {
	s.mu.Lock()
	closed := s.closed
	s.mu.Unlock()
	if closed {
		return options{}, fmt.Errorf("session: closed")
	}
	o := s.defaults
	for _, opt := range opts {
		opt(&o)
	}
	return o, nil
}

// Result is a completed (or cancelled) job: per-replication metrics in
// seed order plus the replication-level aggregates. A scenario job's
// merged time series is not part of it: MergedSeries builds one on
// request, so a caller that reads only the estimates pays no merge.
type Result struct {
	// Runs holds the finished replications' metrics in seed order. For a
	// cancelled job this is the finished seed prefix. The Metrics are
	// the backend's read-only results, possibly shared with other
	// callers: read them, never write to them.
	Runs []*system.Metrics
	// Seeds lists the seeds that finished, aligned with Runs.
	Seeds []uint64
	// Partial reports that cancellation cut the job short: Runs covers a
	// strict prefix of the requested seeds.
	Partial bool
	// LocalMD and GlobalMD estimate the class miss percentages across
	// Runs with 95% confidence intervals.
	LocalMD  stats.Estimate
	GlobalMD stats.Estimate
}

// MergedSeries merges the Runs' scenario time series in seed order into
// a fresh series, whose CSV is byte-identical at every parallelism
// level and on every backend. It is nil when the job had no scenario or
// no run finished. Each call merges anew and never writes to a run.
func (r *Result) MergedSeries() (*scenario.Series, error) {
	if len(r.Runs) == 0 || r.Runs[0].Series == nil {
		return nil, nil
	}
	out := r.Runs[0].Series.Clone()
	for _, m := range r.Runs[1:] {
		if err := out.Merge(m.Series); err != nil {
			return nil, err
		}
	}
	return out, nil
}

// Run executes the job and blocks until it finishes or ctx ends it
// early. Cancellation is deterministic-safe: replications are claimed in
// seed order and never interrupted mid-run, so on cancellation Run
// returns the finished seed prefix as a valid partial Result — marked
// Partial, listing exactly the seeds that finished — alongside ctx's
// error. Any other error returns a nil Result: Run surfaced no
// intermediate results, so there is no prefix to stand behind (Stream,
// which has already emitted items, instead returns the emitted prefix
// as a Partial result alongside the error).
func (s *Session) Run(ctx context.Context, job Job, opts ...Option) (*Result, error) {
	o, err := s.resolve(opts)
	if err != nil {
		return nil, err
	}
	seeds, err := job.seeds()
	if err != nil {
		return nil, err
	}
	shard := Shard{
		Config:      job.Config,
		Seeds:       seeds,
		Parallelism: o.parallelism,
	}
	if o.progress != nil {
		shard.OnResult = progressHook(o.progress, len(seeds))
	}
	finish := s.instrument(&shard)
	res, err := s.backend.Run(ctx, shard)
	finish()
	if err != nil && !IsCancellation(err) {
		return nil, err
	}
	return aggregate(shard, res), err
}

// instrument wraps shard.OnResult with the session's run-layer
// accounting — job and in-flight gauges up front, per-replication
// engine-counter merges as results land — and returns the finish
// function to call once the backend's Run returns. OnResult fires at
// most once per seed index on every backend (the multi-process
// coordinator dedups chunk re-runs), so the totals count each
// replication exactly once even across worker deaths.
func (s *Session) instrument(shard *Shard) (finish func()) {
	total := int64(len(shard.Seeds))
	s.obsMu.Lock()
	s.jobsStarted++
	s.obsMu.Unlock()
	s.inFlight.Add(total)
	var seen atomic.Int64
	prev := shard.OnResult
	shard.OnResult = func(i int, m *system.Metrics) {
		seen.Add(1)
		s.inFlight.Add(-1)
		s.obsMu.Lock()
		s.engineTotals.Merge(m.Engine)
		s.repsDone++
		s.obsMu.Unlock()
		if prev != nil {
			prev(i, m)
		}
	}
	return func() {
		// Replications a cancelled or failed run never got to leave the
		// in-flight gauge here.
		s.inFlight.Add(seen.Load() - total)
		s.obsMu.Lock()
		s.jobsFinished++
		s.obsMu.Unlock()
	}
}

// PoolStatser is the optional Backend facet for workspace-pool gauges;
// the in-process Pool implements it, and the multi-process coordinator
// aggregates its workers' pools.
type PoolStatser interface {
	PoolStats() obs.PoolStats
}

// DistribStatser is the optional Backend facet for multi-process
// coordinator statistics (per-worker sub-shards, frames, deaths).
type DistribStatser interface {
	DistribStats() *obs.DistribStats
}

// NetStatser is the optional Backend facet for network-transport
// statistics (connections, reconnects, wire traffic).
type NetStatser interface {
	NetStats() obs.NetStats
}

// CacheStatser is the optional Backend facet for shard-result-cache
// statistics (hits, misses, evictions, footprint).
type CacheStatser interface {
	CacheStats() obs.CacheStats
}

// Unwrapper is implemented by middleware backends (the shard-result
// cache) that delegate execution to an inner Backend; Snapshot follows
// the chain so inner facets stay visible through the wrapper.
type Unwrapper interface {
	Unwrap() Backend
}

// Snapshot returns a point-in-time view of the session's runtime
// metrics: engine counters accumulated over every finished replication,
// job and in-flight gauges, the backend's pool stats, and — on the
// multi-process backend — per-worker coordinator stats. It is safe to
// call concurrently with runs (the /metrics endpoint scrapes it live)
// and never touches the simulation hot path.
func (s *Session) Snapshot() obs.Snapshot {
	var snap obs.Snapshot
	s.obsMu.Lock()
	snap.Engine = s.engineTotals
	snap.Session = obs.SessionStats{
		JobsStarted:           s.jobsStarted,
		JobsFinished:          s.jobsFinished,
		ReplicationsCompleted: s.repsDone,
	}
	s.obsMu.Unlock()
	snap.Session.ReplicationsInFlight = s.inFlight.Load()
	CollectBackendStats(s.backend, &snap)
	return snap
}

// CollectBackendStats fills snap's backend-derived fields (pool,
// distrib, net, cache) from b, following Unwrap chains so a middleware
// backend (the shard-result cache) does not hide the facets of the
// transport it wraps. The outermost implementation of each facet wins.
func CollectBackendStats(b Backend, snap *obs.Snapshot) {
	var (
		poolSet bool
	)
	for b != nil {
		if ps, ok := b.(PoolStatser); ok && !poolSet {
			snap.Session.Pool = ps.PoolStats()
			poolSet = true
		}
		if ds, ok := b.(DistribStatser); ok && snap.Distrib == nil {
			snap.Distrib = ds.DistribStats()
		}
		if ns, ok := b.(NetStatser); ok && snap.Net == nil {
			v := ns.NetStats()
			snap.Net = &v
		}
		if cs, ok := b.(CacheStatser); ok && snap.Cache == nil {
			v := cs.CacheStats()
			snap.Cache = &v
		}
		u, ok := b.(Unwrapper)
		if !ok {
			break
		}
		b = u.Unwrap()
	}
}

// IsCancellation reports whether err is a context cancellation or
// deadline rather than a run failure — the one error class that still
// carries a valid (partial) result. The distributed backends apply the
// same test.
func IsCancellation(err error) bool {
	return errors.Is(err, context.Canceled) || errors.Is(err, context.DeadlineExceeded)
}

// seedRange lists reps consecutive seeds from base.
func seedRange(base uint64, reps int) []uint64 {
	seeds := make([]uint64, reps)
	for i := range seeds {
		seeds[i] = base + uint64(i)
	}
	return seeds
}

// progressHook adapts a progress callback to the OnResult hook with a
// shared completion counter.
func progressHook(progress func(done, total int), total int) func(int, *system.Metrics) {
	var mu sync.Mutex
	done := 0
	return func(int, *system.Metrics) {
		mu.Lock()
		done++
		d := done
		mu.Unlock()
		progress(d, total)
	}
}

// aggregate builds a Result from a shard's (possibly partial) outcome.
func aggregate(shard Shard, res ShardResult) *Result {
	runs := res.Metrics[:res.Completed]
	out := &Result{
		Runs:    runs,
		Seeds:   shard.Seeds[:res.Completed],
		Partial: res.Completed < len(shard.Seeds),
	}
	if len(runs) > 0 {
		local := make([]float64, len(runs))
		global := make([]float64, len(runs))
		for i, m := range runs {
			local[i] = m.MDLocal()
			global[i] = m.MDGlobal()
		}
		out.LocalMD = stats.MeanCI(local)
		out.GlobalMD = stats.MeanCI(global)
	}
	return out
}
