// Session: the unified run API — warm workspaces, streaming results,
// and deterministic-safe cancellation.
//
// The example runs a burst-scenario job of 12 replications twice
// through one Session. The first pass streams: per-replication results
// arrive over a channel in seed order as workers finish, long before
// the batch is done. The second pass cancels mid-run and shows that the
// partial result is the exact seed prefix of the first pass — same
// seeds, same numbers — because a claimed replication always runs to
// completion and unclaimed ones never start.
package main

import (
	"context"
	"fmt"
	"log"

	"repro"
)

func main() {
	if err := run(); err != nil {
		log.Fatal(err)
	}
}

func run() error {
	cfg := repro.BaselineConfig()
	cfg.Horizon = 20000
	sc, err := repro.ScenarioPreset("burst", cfg.Horizon)
	if err != nil {
		return err
	}
	cfg.Scenario = sc
	job := repro.Job{Config: cfg, Reps: 12}

	// One session for both passes: the second reuses the first's warm
	// per-worker workspaces (engine, pools, queues, workload sources).
	sess := repro.NewSession(repro.WithParallelism(4))
	defer sess.Close()

	fmt.Println("streaming 12 replications (seed order, delivered as workers finish):")
	st, err := sess.Stream(context.Background(), job)
	if err != nil {
		return err
	}
	for it := range st.Items() {
		fmt.Printf("  rep %2d (seed %2d): MD_local %5.2f%%  MD_global %5.2f%%\n",
			it.Index, it.Seed, it.Metrics.MDLocal(), it.Metrics.MDGlobal())
	}
	full, err := st.Result()
	if err != nil {
		return err
	}
	series, err := full.MergedSeries()
	if err != nil {
		return err
	}
	fmt.Printf("merged: MD_local %.2f%% ±%.2f, MD_global %.2f%% ±%.2f over %d windows\n\n",
		full.LocalMD.Mean, full.LocalMD.HalfCI, full.GlobalMD.Mean, full.GlobalMD.HalfCI,
		series.Len())

	// Second pass: cancel after the third result. The partial result is
	// a valid seed prefix — each finished replication bit-identical to
	// the full pass above.
	fmt.Println("same job, cancelled after 3 replications:")
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	partial, err := sess.Run(ctx, job, repro.WithProgress(func(done, total int) {
		if done == 3 {
			cancel()
		}
	}))
	if err != nil && partial == nil {
		return err // a real failure, not a cancellation
	}
	fmt.Printf("  partial=%t, finished seeds %v of %d requested\n",
		partial.Partial, partial.Seeds, job.Reps)
	for i, m := range partial.Runs {
		match := "=="
		if m.MDGlobal() != full.Runs[i].MDGlobal() || m.MDLocal() != full.Runs[i].MDLocal() {
			match = "!=" // never happens: prefix determinism
		}
		fmt.Printf("  rep %2d: MD_global %5.2f%% %s full run's %5.2f%%\n",
			i, m.MDGlobal(), match, full.Runs[i].MDGlobal())
	}
	return nil
}
