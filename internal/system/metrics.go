package system

import (
	"repro/internal/obs"
	"repro/internal/scenario"
	"repro/internal/stats"
)

// Metrics is the outcome of one simulation run. Miss ratios follow the
// paper's primary measure: the fraction of missed deadlines conditional
// on task class (MD_local, MD_global), over tasks that arrived after the
// warmup window. Under the abort policy, discarded tasks count as missed.
type Metrics struct {
	// LocalGenerated and GlobalGenerated count arrivals over the whole
	// horizon (including warmup).
	LocalGenerated  int64
	GlobalGenerated int64

	// LocalDone counts local tasks that left the system before the
	// horizon: served, or discarded by the tardy policy. GlobalDone
	// counts global instances that finished: completed end to end, or
	// killed when the tardy policy discarded one of their subtasks.
	// Both include their aborted counts below.
	LocalDone  int64
	GlobalDone int64

	// LocalAborted / GlobalAborted count tardy-policy discards (whole
	// instances for globals); they are part of LocalDone / GlobalDone.
	LocalAborted  int64
	GlobalAborted int64

	// LocalMiss and GlobalMiss are the class-conditional miss ratios
	// (post-warmup).
	LocalMiss  stats.Ratio
	GlobalMiss stats.Ratio

	// StageMiss is the fraction of global subtasks that missed their
	// *virtual* deadline (post-warmup) — a diagnostic for how strategies
	// spread slack across stages.
	StageMiss stats.Ratio

	// LocalResponse and GlobalResponse accumulate response times
	// (finish − arrival) of post-warmup completions.
	LocalResponse  stats.Welford
	GlobalResponse stats.Welford

	// GlobalTardiness accumulates finish − deadline over post-warmup
	// global instances that missed (how late the late ones are).
	GlobalTardiness stats.Welford

	// InheritedSlack accumulates per-instance leftover virtual slack
	// (section 4.2.2's "rich get richer" diagnostic).
	InheritedSlack stats.Welford

	// StageMissByIndex and StageSlackByIndex break global subtask
	// behaviour down by leaf position (stage 0 = first released):
	// the per-stage virtual-deadline miss ratio, and the slack
	// available when the stage was released (dl_i − ar_i − pex_i).
	// They expose the section 4.2.2 phenomena: under UD early stages
	// hold all the slack; under EQS/EQF it is spread evenly, and
	// inheritance makes later stages richer. Slices grow to the
	// largest observed stage index.
	StageMissByIndex  []stats.Ratio
	StageSlackByIndex []stats.Welford

	// Utilization is per-node busy time divided by the horizon.
	Utilization []float64

	// LocalInFlight and GlobalInFlight report work still queued or in
	// service when the horizon ended (excluded from all ratios).
	LocalInFlight  int64
	GlobalInFlight int64

	// Engine carries the replication's engine/queue/node runtime
	// counters (event totals, queue high-water marks, task lifecycle
	// counts), collected once at replication end. Like every other
	// field it is a deterministic function of (configuration, seed) —
	// wall-clock gauges live in the session layer, never here — so
	// results stay bit-identical whether or not anyone reads it.
	Engine obs.EngineStats

	// Series is the per-window time series of a scenario run (miss
	// ratios, lateness, queue lengths binned over fixed intervals); nil
	// unless Config.Scenario was set. Unlike the whole-run ratios
	// above, Series windows span the full horizon including warmup —
	// the warmup transient is part of what a timeline shows.
	Series *scenario.Series
}

// MDLocal returns the local miss ratio in percent.
func (m *Metrics) MDLocal() float64 { return 100 * m.LocalMiss.Value() }

// MDGlobal returns the global miss ratio in percent.
func (m *Metrics) MDGlobal() float64 { return 100 * m.GlobalMiss.Value() }

// observeStage records one completed global subtask's stage statistics.
func (m *Metrics) observeStage(stage int, missed bool, slackAtRelease float64) {
	if stage < 0 {
		return
	}
	for len(m.StageMissByIndex) <= stage {
		m.StageMissByIndex = append(m.StageMissByIndex, stats.Ratio{})
		m.StageSlackByIndex = append(m.StageSlackByIndex, stats.Welford{})
	}
	m.StageMissByIndex[stage].Observe(missed)
	m.StageSlackByIndex[stage].Add(slackAtRelease)
}

// MeanUtilization averages per-node utilization.
func (m *Metrics) MeanUtilization() float64 {
	if len(m.Utilization) == 0 {
		return 0
	}
	sum := 0.0
	for _, u := range m.Utilization {
		sum += u
	}
	return sum / float64(len(m.Utilization))
}
