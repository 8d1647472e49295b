package experiment

import (
	"context"
	"fmt"

	"repro/internal/scenario"
	"repro/internal/session"
	"repro/internal/stats"
	"repro/internal/system"
)

// ScenarioResult is the outcome of a replicated scenario run: the merged
// time series plus the per-replication whole-run metrics and their
// replication-level miss-percentage estimates.
type ScenarioResult struct {
	// Scenario is the scenario that was run.
	Scenario *scenario.Scenario
	// Series is the time series merged across all replications.
	Series *scenario.Series
	// Runs holds per-replication metrics in seed order (each with its
	// own unmerged Series).
	Runs []*system.Metrics
	// LocalMD and GlobalMD are replication-level estimates of the
	// whole-run miss percentages, as in session.Result.
	LocalMD  stats.Estimate
	GlobalMD stats.Estimate
}

// RunScenarioWith executes reps independent replications of cfg under
// the scenario on sess under ctx, with
// seeds Seed, Seed+1, ..., and merges the per-window time series across
// replications in seed order, so the result — including the merged
// series' CSV bytes — is identical at every parallelism level.
// Cancellation fails the run with ctx's error — callers that want
// seed-prefix partial results should run the scenario Job through the
// session API directly. This is the one implementation behind
// repro.Session.RunScenario and the scenario CLI.
func RunScenarioWith(ctx context.Context, sess *session.Session,
	cfg system.Config, sc *scenario.Scenario, reps int, opts ...session.Option) (*ScenarioResult, error) {
	if sc == nil {
		return nil, fmt.Errorf("experiment: RunScenario with nil scenario")
	}
	if reps <= 0 {
		return nil, fmt.Errorf("experiment: reps = %d, want > 0", reps)
	}
	res, err := sess.Run(ctx, session.Job{Config: cfg, Scenario: sc, Reps: reps}, opts...)
	if err != nil {
		return nil, err
	}
	series, err := res.MergedSeries()
	if err != nil {
		return nil, err
	}
	return &ScenarioResult{
		Scenario: sc,
		Series:   series,
		Runs:     res.Runs,
		LocalMD:  res.LocalMD,
		GlobalMD: res.GlobalMD,
	}, nil
}
