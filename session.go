package repro

import (
	"context"
	"io"

	"repro/internal/distrib"
	"repro/internal/experiment"
	"repro/internal/netdist"
	"repro/internal/obs"
	"repro/internal/session"
)

// Session API ------------------------------------------------------------
//
// The Session/Job API is the unified run layer: one stateful entry point
// whose warm per-worker workspaces (engine, pools, queues, node group,
// reconfigurable workload sources) persist across calls, with functional
// options instead of positional arguments, context-aware cancellation
// with deterministic seed-prefix partial results, a streaming surface,
// and a pluggable Backend — the seam a distributed runner implements.

// Job describes one run request: a configuration and a replication
// count (0 means one). Replication i uses seed Config.Seed + i. The
// configuration carries the run's optional Scenario and Trace recorder.
type Job = session.Job

// RunOption configures a Session (as a call default) or one run.
type RunOption = session.Option

// RunResult is a completed or cancelled job: per-replication metrics in
// seed order, the seeds that finished, and class miss-percentage
// estimates. Its MergedSeries method merges the runs' scenario series
// (when the job had one) on request.
type RunResult = session.Result

// StreamItem is one streamed replication result (index, seed, metrics —
// including the replication's own scenario series chunk).
type StreamItem = session.Item

// RunStream is an in-flight streaming run: Items yields per-replication
// results in seed order as workers finish; Result blocks for the final
// aggregate.
type RunStream = session.Stream

// Shard is the unit of work a Backend executes: one configuration plus
// a seed range, one replication per seed.
type Shard = session.Shard

// ShardResult is a Backend's seed-ordered answer; on cancellation it
// covers the finished seed prefix. Its Metrics are read-only.
type ShardResult = session.ShardResult

// Backend executes shards — the seam a distributed runner plugs into.
// The in-process worker pool is the built-in implementation. The
// Metrics a Backend returns are read-only and may be shared between
// callers (a ResultCache hit returns its stored value).
type Backend = session.Backend

// WithParallelism bounds a run's worker pool: 0 uses all cores, 1
// forces the sequential path. Results are bit-identical at any setting.
func WithParallelism(n int) RunOption { return session.WithParallelism(n) }

// WithProgress observes per-replication completion (fn may be called
// concurrently from worker goroutines).
func WithProgress(fn func(done, total int)) RunOption { return session.WithProgress(fn) }

// MetricsSnapshot is a point-in-time view of a session's runtime
// metrics, returned by Session.Snapshot: engine counters accumulated
// over every finished replication (deterministic — identical for a
// given workload at any parallelism, queue kind, or backend),
// job/in-flight/pool gauges, and per-worker coordinator stats on the
// multi-process backend. WritePrometheus renders it in Prometheus text
// exposition format; the CLIs' -metrics-addr flag serves it live.
type MetricsSnapshot = obs.Snapshot

// Session owns the execution resources of the run API: a worker pool
// whose per-worker warm workspaces persist across every call (or a
// caller-provided Backend). Create one with NewSession, share it freely
// (it is safe for concurrent use), and Close it to release the warm
// state. All run methods take a context; cancelling it stops new
// replications while finished ones keep their seed-ordered results.
type Session struct {
	*session.Session
}

// NewSession returns a session on the in-process backend; opts become
// the session-wide defaults (overridable per call).
func NewSession(opts ...RunOption) *Session {
	return &Session{session.New(opts...)}
}

// NewSessionWithBackend returns a session that executes every job
// through b — the distributed-runner seam. Everything above the Backend
// (streaming, experiments, the CLIs) works unchanged.
func NewSessionWithBackend(b Backend, opts ...RunOption) *Session {
	return &Session{session.NewWithBackend(b, opts...)}
}

// Distributed execution --------------------------------------------------

// ProcBackend is the multi-process Backend: a coordinator that spawns N
// shard-worker processes, splits each shard's seed range into
// sub-shards, work-steals them across the workers, and merges results
// in seed order, so its output is byte-identical to the in-process pool
// at any worker count. The coordinator supervises its fleet: heartbeat
// liveness probes reap hung workers like dead ones, failed sub-shards
// retry with backoff on survivors (or mid-run respawns, within a
// budget), idle workers speculatively re-run stragglers' chunks (first
// result wins, deduplicated), and when the fleet cannot be kept alive
// the remaining seeds degrade gracefully to an in-process pool — every
// recovery path preserves bit-identical results. Configurations that
// cannot cross a process boundary (an attached trace recorder)
// transparently fall back to in-process execution. Close it to shut the
// workers down.
type ProcBackend = distrib.ProcBackend

// ProcBackendOptions configures NewProcBackend: worker-process count,
// the worker argv (empty re-executes the current binary with
// -shard-server — the mode both CLIs serve), sub-shard granularity,
// worker stderr routing, and the supervision knobs (heartbeat interval,
// liveness deadline, hedge threshold, respawn budget, retry backoff).
type ProcBackendOptions = distrib.ProcOptions

// NewProcBackend returns a multi-process backend; worker processes
// spawn lazily on the first run that needs them. Use it with
// NewSessionWithBackend:
//
//	backend := repro.NewProcBackend(repro.ProcBackendOptions{Workers: 3})
//	defer backend.Close()
//	sess := repro.NewSessionWithBackend(backend)
//	defer sess.Close()
func NewProcBackend(opts ProcBackendOptions) *ProcBackend {
	return distrib.NewProcBackend(opts)
}

// ServeShardWorker runs the worker half of the shard protocol on r and
// w until the coordinator closes the connection — the body of a
// -shard-server process. Programs embedding this package as a worker
// call ServeShardWorker(os.Stdin, os.Stdout) when spawned by a
// ProcBackend.
func ServeShardWorker(r io.Reader, w io.Writer) error {
	return distrib.ServeWorker(r, w)
}

// Remote execution & service mode ----------------------------------------

// WorkerServer serves shard workers over TCP: every accepted connection
// must open with the protocol handshake (magic + version, so mismatched
// binaries fail with a structured error before any shard state exists)
// and then speaks the same frame protocol a -shard-server process does,
// with its own warm worker pool per connection. The CLIs expose it as
// -serve-workers.
type WorkerServer = netdist.Server

// ListenWorkers binds a WorkerServer (":0" picks a free port); call
// Serve to accept coordinators and Close to shut down.
func ListenWorkers(addr string) (*WorkerServer, error) {
	return netdist.Listen(addr)
}

// NetBackend is the remote Backend: the ProcBackend coordinator —
// heartbeats, retry, hedging, respawn budget and all — running over TCP
// connections to a static list of WorkerServer addresses. A lost
// connection is re-dialed like a dead process; with every address
// unreachable, shards degrade to the embedded in-process pool. Output
// is byte-identical to every other backend. The CLIs expose it as
// -connect.
type NetBackend = netdist.NetBackend

// NetBackendOptions configures NewNetBackend: the worker address list,
// the dial timeout, and the ProcBackend supervision knobs.
type NetBackendOptions = netdist.BackendOptions

// NewNetBackend returns a Backend over remote TCP workers; connections
// are dialed lazily on the first run.
func NewNetBackend(opts NetBackendOptions) (*NetBackend, error) {
	return netdist.NewBackend(opts)
}

// ResultCache is the deterministic shard-result cache: a Backend
// middleware keyed by (configuration fingerprint, seed) that keeps the
// inner backend's Metrics and serves a hit as the stored value itself,
// so a hit is the result of a fresh simulation — caching can never
// change results, only skip work. The CLIs expose it as -cache-mb.
type ResultCache = netdist.Cache

// NewResultCache wraps inner with a result cache bounded at maxBytes,
// counted as the results' Metrics codec length (<= 0 picks 256 MiB).
func NewResultCache(inner Backend, maxBytes int64) *ResultCache {
	return netdist.NewCache(inner, maxBytes)
}

// QueryService is the long-running simulation service behind the
// sdaserve CLI: JSON job specs over HTTP, run counters kept per
// configuration fingerprint, a shared ResultCache, and seed-ordered
// NDJSON streaming to many concurrent clients.
type QueryService = netdist.Service

// QueryServiceOptions configures NewQueryService.
type QueryServiceOptions = netdist.ServiceOptions

// NewQueryService builds a service over the given transport; serve its
// Handler with net/http and Close it on shutdown.
func NewQueryService(opts QueryServiceOptions) *QueryService {
	return netdist.NewService(opts)
}

// ConfigFingerprint is the cache and session key: a stable content hash
// of every behavior-determining configuration knob except the seed — 32
// hex characters of sha256 over a canonical, versioned (revision 4)
// binary encoding of the wire configuration. Identical configurations
// collide across processes and recompilations; any knob change — even
// to a setting with provably identical results, like the event queue —
// produces a different fingerprint. It fails with an error for
// configurations that cannot cross a process boundary (an attached
// trace recorder).
func ConfigFingerprint(cfg SimConfig) (string, error) {
	return distrib.ConfigFingerprint(cfg)
}

// Experiment runs a registered paper artifact ("fig2b", "combined", ...)
// through this session: sweep cells execute on the session's warm
// workspaces and the run is bounded by ctx.
func (s *Session) Experiment(ctx context.Context, id string, o ExperimentOptions) (*ExperimentResult, error) {
	e, err := experiment.ByID(id)
	if err != nil {
		return nil, err
	}
	return e.Run(ctx, s.Session, o)
}
