package obs

import (
	"fmt"
	"io"
	"strconv"
)

// WritePrometheus renders the snapshot in Prometheus text exposition
// format (version 0.0.4): one HELP/TYPE header per series followed by
// its samples. Engine and session series are scalars; distrib series
// carry a worker="<id>" label per worker process.
func (s Snapshot) WritePrometheus(w io.Writer) error {
	pw := promWriter{w: w}

	pw.counter("repro_engine_events_scheduled_total", "Engine events scheduled across finished replications.", s.Engine.EventsScheduled)
	pw.counter("repro_engine_events_fired_total", "Engine events executed across finished replications.", s.Engine.EventsFired)
	pw.counter("repro_engine_events_cancelled_total", "Engine events cancelled before firing.", s.Engine.EventsCancelled)
	pw.counter("repro_engine_queue_promotions_total", "Event-queue near-tier spreads.", s.Engine.QueuePromotions)
	pw.gauge("repro_engine_pending_events_hwm", "Deepest pending-event queue of any replication.", float64(s.Engine.PendingHWM))
	pw.gauge("repro_engine_ready_queue_hwm", "Deepest per-node ready queue of any replication.", float64(s.Engine.ReadyHWM))
	pw.counter("repro_engine_tasks_submitted_total", "Tasks submitted to nodes.", s.Engine.TasksSubmitted)
	pw.counter("repro_engine_tasks_completed_total", "Tasks that completed service.", s.Engine.TasksCompleted)
	pw.counter("repro_engine_tasks_aborted_total", "Tasks discarded by a tardy policy.", s.Engine.TasksAborted)
	pw.counter("repro_engine_preemptions_total", "Running tasks suspended by a newcomer.", s.Engine.Preemptions)

	pw.counter("repro_session_jobs_started_total", "Jobs the session has started.", s.Session.JobsStarted)
	pw.counter("repro_session_jobs_finished_total", "Jobs the session has finished.", s.Session.JobsFinished)
	pw.counter("repro_session_replications_completed_total", "Replications finished across all jobs.", s.Session.ReplicationsCompleted)
	pw.gauge("repro_session_replications_in_flight", "Requested-but-unfinished replications of running jobs.", float64(s.Session.ReplicationsInFlight))
	pw.counter("repro_session_pool_warm_acquires_total", "Workspace leases served from the warm free list.", s.Session.Pool.WarmAcquires)
	pw.counter("repro_session_pool_cold_acquires_total", "Workspace leases that allocated a fresh workspace.", s.Session.Pool.ColdAcquires)
	pw.counterf("repro_session_pool_busy_seconds_total", "Wall-clock seconds workspaces spent running replications.", s.Session.Pool.BusySeconds)

	if d := s.Distrib; d != nil {
		pw.counter("repro_distrib_worker_deaths_total", "Worker processes reaped mid-run.", d.Deaths)
		pw.counter("repro_distrib_worker_respawns_total", "Replacement workers spawned after the initial fleet.", d.Respawns)
		pw.gauge("repro_distrib_merge_depth_hwm", "Most replications held for seed-order delivery.", float64(d.MergeDepthHWM))
		pw.counter("repro_distrib_heartbeats_missed_total", "Liveness pings that went unanswered before the next probe.", d.HeartbeatsMissed)
		pw.counter("repro_distrib_retries_total", "Failed sub-shards re-queued for another dispatch.", d.Retries)
		pw.counter("repro_distrib_hedges_won_total", "Speculative straggler re-dispatches that beat the original.", d.HedgesWon)
		pw.counter("repro_distrib_hedges_lost_total", "Speculative straggler re-dispatches the original beat.", d.HedgesLost)
		pw.counter("repro_distrib_fallbacks_total", "Shards (or remainders) degraded to the in-process pool.", d.Fallbacks)
		pw.counter("repro_distrib_frame_decode_rejects_total", "Malformed worker frames the coordinator rejected.", d.FrameDecodeRejects)

		pw.head("repro_distrib_worker_alive", "Whether the worker process is live (1) or reaped (0).", "gauge")
		for _, ws := range d.Workers {
			alive := 0.0
			if ws.Alive {
				alive = 1
			}
			pw.sample("repro_distrib_worker_alive", ws.ID, alive)
		}
		workerCounter := func(name, help string, value func(WorkerStats) float64) {
			pw.head(name, help, "counter")
			for _, ws := range d.Workers {
				pw.sample(name, ws.ID, value(ws))
			}
		}
		workerCounter("repro_distrib_worker_subshards_total", "Sub-shards the worker ran to completion.",
			func(ws WorkerStats) float64 { return float64(ws.SubShards) })
		workerCounter("repro_distrib_worker_steals_total", "Sub-shards the worker picked up after another worker died.",
			func(ws WorkerStats) float64 { return float64(ws.Steals) })
		workerCounter("repro_distrib_worker_frames_sent_total", "Protocol frames sent coordinator-to-worker.",
			func(ws WorkerStats) float64 { return float64(ws.FramesSent) })
		workerCounter("repro_distrib_worker_frames_recv_total", "Protocol frames received worker-to-coordinator.",
			func(ws WorkerStats) float64 { return float64(ws.FramesRecv) })
		workerCounter("repro_distrib_worker_bytes_sent_total", "Protocol bytes sent coordinator-to-worker.",
			func(ws WorkerStats) float64 { return float64(ws.BytesSent) })
		workerCounter("repro_distrib_worker_bytes_recv_total", "Protocol bytes received worker-to-coordinator.",
			func(ws WorkerStats) float64 { return float64(ws.BytesRecv) })
		workerCounter("repro_distrib_worker_pool_warm_acquires_total", "Warm workspace leases inside the worker process.",
			func(ws WorkerStats) float64 { return float64(ws.Pool.WarmAcquires) })
		workerCounter("repro_distrib_worker_pool_cold_acquires_total", "Cold workspace leases inside the worker process.",
			func(ws WorkerStats) float64 { return float64(ws.Pool.ColdAcquires) })
		workerCounter("repro_distrib_worker_pool_busy_seconds_total", "Wall-clock seconds the worker's workspaces spent running replications.",
			func(ws WorkerStats) float64 { return ws.Pool.BusySeconds })
	}

	if n := s.Net; n != nil {
		pw.counter("repro_net_connections_total", "Worker connections dialed and handshaken.", n.Connections)
		pw.counter("repro_net_reconnects_total", "Connections that re-established a previously connected worker address.", n.Reconnects)
		pw.counter("repro_net_dial_errors_total", "Worker dial or handshake failures.", n.DialErrors)
		pw.counter("repro_net_frames_sent_total", "Protocol frames sent coordinator-to-worker over the network.", n.FramesSent)
		pw.counter("repro_net_frames_recv_total", "Protocol frames received worker-to-coordinator over the network.", n.FramesRecv)
		pw.counter("repro_net_bytes_sent_total", "Protocol bytes sent coordinator-to-worker over the network.", n.BytesSent)
		pw.counter("repro_net_bytes_recv_total", "Protocol bytes received worker-to-coordinator over the network.", n.BytesRecv)
	}

	if c := s.Cache; c != nil {
		pw.counter("repro_cache_hits_total", "Seed lookups served from the shard-result cache.", c.Hits)
		pw.counter("repro_cache_misses_total", "Seed lookups that required fresh simulation.", c.Misses)
		pw.counter("repro_cache_inserts_total", "Seed-run entries stored in the cache.", c.Inserts)
		pw.counter("repro_cache_evictions_total", "Cache entries dropped under byte pressure.", c.Evictions)
		pw.counter("repro_cache_bypass_total", "Shards that skipped the cache (unfingerprintable configuration).", c.Bypasses)
		pw.gauge("repro_cache_entries", "Seed-run entries currently cached.", float64(c.Entries))
		pw.gauge("repro_cache_bytes", "Encoded bytes currently cached.", float64(c.Bytes))
	}
	return pw.err
}

// promWriter accumulates the first write error so rendering code stays
// linear.
type promWriter struct {
	w   io.Writer
	err error
}

func (pw *promWriter) printf(format string, args ...any) {
	if pw.err != nil {
		return
	}
	_, pw.err = fmt.Fprintf(pw.w, format, args...)
}

// head writes one series' HELP and TYPE lines.
func (pw *promWriter) head(name, help, typ string) {
	pw.printf("# HELP %s %s\n# TYPE %s %s\n", name, help, name, typ)
}

// counter, counterf, and gauge write a headed scalar sample.
func (pw *promWriter) counter(name, help string, v uint64) {
	pw.head(name, help, "counter")
	pw.printf("%s %s\n", name, strconv.FormatUint(v, 10))
}

func (pw *promWriter) counterf(name, help string, v float64) {
	pw.head(name, help, "counter")
	pw.printf("%s %s\n", name, formatFloat(v))
}

func (pw *promWriter) gauge(name, help string, v float64) {
	pw.head(name, help, "gauge")
	pw.printf("%s %s\n", name, formatFloat(v))
}

// sample writes one worker-labelled sample.
func (pw *promWriter) sample(name string, worker uint64, v float64) {
	pw.printf("%s{worker=\"%d\"} %s\n", name, worker, formatFloat(v))
}

// formatFloat renders integral values without an exponent or trailing
// zeros, matching what scrape-side assertions and humans expect.
func formatFloat(v float64) string {
	return strconv.FormatFloat(v, 'g', -1, 64)
}
