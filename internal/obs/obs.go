// Package obs is the runtime-metrics layer of the reproduction: plain
// counter structs that every execution layer fills in (the simulation
// engine and nodes per replication, the session pool per run, the
// multi-process coordinator per worker), a deterministic merge, and the
// export surface — Prometheus text rendering, process runtime gauges and
// a rate/ETA progress meter. The HTTP server that exposes them lives with
// the CLIs (cmd/internal/cliflags), so linking the simulator links no
// network package.
//
// The design rule is zero overhead when nothing is looking: hot-path
// layers count into plain (non-atomic) uint64 fields they already own —
// the engine counts on itself, nodes count on themselves — and the
// counters are folded into obs structs only at replication end, off the
// hot path. Nothing here runs during event dispatch, so the simulation's
// 0 allocs/op steady state and byte-identical output are unaffected
// whether or not a /metrics listener exists.
//
// Everything replication-scoped (EngineStats) is a pure function of
// (configuration, seed) and therefore deterministic; wall-clock-derived
// gauges (busy seconds, rates, ETA) live only in the session/pool/
// distrib structs, which never feed back into simulation results.
package obs

// EngineStats aggregates one or more replications' engine, queue, and
// task-lifecycle counters. For a single replication it is a pure
// function of (configuration, seed); Merge folds replications together
// deterministically (sums for counters, maxima for high-water marks).
type EngineStats struct {
	// EventsScheduled, EventsFired, and EventsCancelled count engine
	// events over the run: scheduled is every event queued,
	// fired every executed event, cancelled every successful Cancel.
	// Modulated arrival streams thin their candidates inline, so a
	// rejected candidate is never an event and is not counted here.
	EventsScheduled uint64
	EventsFired     uint64
	EventsCancelled uint64
	// QueuePromotions counts near-tier spreads of the event queue: 1 in
	// a replication whose queued events outgrew the engine's spread
	// threshold, else 0.
	QueuePromotions uint64
	// PendingHWM is the pending-event high-water mark (engine queue
	// depth); ReadyHWM is the deepest any node's ready queue got.
	PendingHWM uint64
	ReadyHWM   uint64
	// TasksSubmitted counts node submissions (a preempted task
	// re-queues without resubmitting, so submitted ≥ completed +
	// aborted always holds and the three tie out exactly in
	// non-preemptive runs that drain).
	TasksSubmitted uint64
	// TasksCompleted and TasksAborted count service completions and
	// tardy-policy discards; Preemptions counts suspensions of a
	// running task.
	TasksCompleted uint64
	TasksAborted   uint64
	Preemptions    uint64
}

// Merge folds another replication's counters into s: counts add,
// high-water marks take the maximum. Merging in any order yields the
// same result, so parallel completion order does not affect totals.
func (s *EngineStats) Merge(o EngineStats) {
	s.EventsScheduled += o.EventsScheduled
	s.EventsFired += o.EventsFired
	s.EventsCancelled += o.EventsCancelled
	s.QueuePromotions += o.QueuePromotions
	if o.PendingHWM > s.PendingHWM {
		s.PendingHWM = o.PendingHWM
	}
	if o.ReadyHWM > s.ReadyHWM {
		s.ReadyHWM = o.ReadyHWM
	}
	s.TasksSubmitted += o.TasksSubmitted
	s.TasksCompleted += o.TasksCompleted
	s.TasksAborted += o.TasksAborted
	s.Preemptions += o.Preemptions
}

// PoolStats describes a workspace pool's reuse behaviour: how often a
// lease was served warm (a recycled workspace) versus cold (a fresh
// allocation), and how much wall-clock time leased workspaces spent
// actually running replications.
type PoolStats struct {
	WarmAcquires uint64
	ColdAcquires uint64
	BusySeconds  float64
}

// Add folds another pool's stats in (used when worker processes report
// their own pools home and the coordinator presents a fleet total).
func (p *PoolStats) Add(o PoolStats) {
	p.WarmAcquires += o.WarmAcquires
	p.ColdAcquires += o.ColdAcquires
	p.BusySeconds += o.BusySeconds
}

// SessionStats is the run-layer view: job and replication counts plus
// the in-flight gauge, and the pool gauges of whatever backend the
// session runs on.
type SessionStats struct {
	JobsStarted           uint64
	JobsFinished          uint64
	ReplicationsCompleted uint64
	// ReplicationsInFlight counts requested-but-unfinished
	// replications of jobs currently running.
	ReplicationsInFlight int64
	Pool                 PoolStats
}

// WorkerStats is one multi-process worker's coordinator-side view.
type WorkerStats struct {
	// ID is the worker's spawn ordinal (stable across its lifetime;
	// a respawned replacement gets a fresh ID).
	ID uint64
	// Alive is false once the coordinator reaped the worker.
	Alive bool
	// SubShards counts sub-shards this worker ran to a done frame;
	// Steals counts the subset it picked up after another worker died
	// (re-queued chunks).
	SubShards uint64
	Steals    uint64
	// Frame/byte totals per direction, measured at the coordinator
	// (sent = coordinator→worker, recv = worker→coordinator).
	FramesSent uint64
	FramesRecv uint64
	BytesSent  uint64
	BytesRecv  uint64
	// Pool is the worker process's own workspace-pool stats, carried
	// home in its most recent done frame.
	Pool PoolStats
}

// DistribStats is the multi-process coordinator's view: fleet health,
// the seed-order merge buffer's high-water mark, and per-worker detail.
type DistribStats struct {
	// Deaths counts workers the coordinator reaped mid-run; Respawns
	// counts replacements spawned after the initial fleet stood up.
	Deaths   uint64
	Respawns uint64
	// MergeDepthHWM is the most replications ever held finished but
	// undeliverable because an earlier seed was still running — the
	// cost of the seed-order delivery guarantee.
	MergeDepthHWM uint64
	// HeartbeatsMissed counts liveness pings that went unanswered
	// before the next probe (a hung worker shows up here before it is
	// declared dead); Retries counts failed sub-shards re-queued for
	// another dispatch.
	HeartbeatsMissed uint64
	Retries          uint64
	// HedgesWon counts speculative straggler re-dispatches that beat
	// the original; HedgesLost counts ones the original beat.
	HedgesWon  uint64
	HedgesLost uint64
	// Fallbacks counts shards (or shard remainders, after the recovery
	// budget ran out) executed on the embedded in-process pool.
	Fallbacks uint64
	// FrameDecodeRejects counts malformed worker frames the coordinator
	// rejected (corrupt, truncated, or protocol-violating).
	FrameDecodeRejects uint64
	Workers            []WorkerStats
}

// NetStats is the network shard backend's transport view: connection
// lifecycle at the dialing coordinator plus frame/byte totals summed
// across the connections' coordinator-side wire stats.
type NetStats struct {
	// Connections counts worker connections successfully dialed and
	// handshaken; Reconnects is the subset that re-established an
	// address that had already connected before (a worker came back).
	Connections uint64
	Reconnects  uint64
	// DialErrors counts dial or handshake failures.
	DialErrors uint64
	// Frame/byte totals per direction across all connections, including
	// closed ones (sent = coordinator→worker).
	FramesSent uint64
	FramesRecv uint64
	BytesSent  uint64
	BytesRecv  uint64
}

// CacheStats describes the deterministic shard-result cache: per-seed
// hit/miss traffic, entry lifecycle, and the current footprint.
type CacheStats struct {
	// Hits and Misses count seed lookups (a shard of 20 seeds with 8
	// cached counts 8 hits and 12 misses).
	Hits   uint64
	Misses uint64
	// Inserts counts seed-run entries stored; Evictions counts entries
	// dropped under byte pressure; Bypasses counts shards that skipped
	// the cache because their configuration has no fingerprint.
	Inserts   uint64
	Evictions uint64
	Bypasses  uint64
	// Entries and Bytes gauge the cache's current contents; Bytes
	// counts each result at its Metrics codec length, plus bookkeeping.
	Entries uint64
	Bytes   uint64
}

// Snapshot is a point-in-time view of a session's runtime metrics:
// engine counters accumulated across every finished replication, the
// run-layer gauges, and — when the session runs on the multi-process
// backend — the coordinator's per-worker stats. Snapshots are plain
// data: taking one never blocks the hot path.
type Snapshot struct {
	Engine  EngineStats
	Session SessionStats
	// Distrib is nil unless the backend exposes coordinator stats.
	Distrib *DistribStats
	// Net is nil unless the backend dials remote workers.
	Net *NetStats
	// Cache is nil unless a shard-result cache fronts the backend.
	Cache *CacheStats
}
