// Distributed: multi-process execution behind the Backend seam.
//
// The example runs the same burst-scenario job twice — once on the
// default in-process worker pool, once on a ProcBackend that fans
// sub-shards out across three worker processes — and shows that the
// merged results are bit-identical. The worker processes are this very
// binary re-executed with -shard-server, which hands stdin/stdout to
// repro.ServeShardWorker: that one flag is the whole worker contract,
// exactly how the sdasim/sdascn CLIs serve their own workers.
package main

import (
	"context"
	"flag"
	"fmt"
	"log"
	"os"

	"repro"
)

func main() {
	shardServer := flag.Bool("shard-server", false,
		"serve as a shard-worker process on stdin/stdout (spawned by the coordinator)")
	flag.Parse()
	if *shardServer {
		if err := repro.ServeShardWorker(os.Stdin, os.Stdout); err != nil {
			log.Fatal(err)
		}
		return
	}
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
	job := repro.Job{Config: cfg, Reps: 8}

	// Reference pass: the in-process pool.
	local := repro.NewSession()
	defer local.Close()
	ref, err := local.Run(context.Background(), job)
	if err != nil {
		return err
	}

	// Distributed pass: three worker processes. An empty Command
	// re-executes the current binary with -shard-server appended, which
	// is why the flag handling in main exists.
	backend := repro.NewProcBackend(repro.ProcBackendOptions{Workers: 3})
	defer backend.Close()
	sess := repro.NewSessionWithBackend(backend)
	defer sess.Close()
	dist, err := sess.Run(context.Background(), job)
	if err != nil {
		return err
	}

	fmt.Printf("%d replications on 3 worker processes vs the in-process pool:\n", job.Reps)
	for i := range dist.Runs {
		match := "=="
		if dist.Runs[i].MDLocal() != ref.Runs[i].MDLocal() ||
			dist.Runs[i].MDGlobal() != ref.Runs[i].MDGlobal() {
			match = "!=" // never happens: the merge is seed-ordered and exact
		}
		fmt.Printf("  rep %d: MD_global %5.2f%% %s pool's %5.2f%%\n",
			i, dist.Runs[i].MDGlobal(), match, ref.Runs[i].MDGlobal())
	}
	fmt.Printf("merged: MD_local %.2f%% ±%.2f (pool %.2f%% ±%.2f) — byte-identical at any worker count\n",
		dist.LocalMD.Mean, dist.LocalMD.HalfCI, ref.LocalMD.Mean, ref.LocalMD.HalfCI)
	return nil
}
