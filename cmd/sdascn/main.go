// Command sdascn runs a declarative scenario — time-varying load, node
// faults, alternative demand distributions — against the paper's
// simulation model and emits a per-window time-series CSV (miss ratios,
// lateness, queue lengths).
//
// Usage:
//
//	sdascn -list
//	sdascn -preset burst                        # built-in 3x overload burst
//	sdascn -spec storm.json -reps 8 -parallel 8
//	sdascn -preset outage -ssp EQF -psp DIV-1 -load 0.7 -out series.csv
//	sdascn -preset churn -nodes 1024 -churn-rate 2   # generated per-node faults
//	sdascn -preset burst -backend proc -workers 3    # multi-process execution
//
// The spec file is JSON:
//
//	{
//	  "name": "spike",
//	  "interval": 1000,
//	  "phases": [
//	    {"duration": 20000, "rate": 1},
//	    {"duration": 5000,  "rate": 3},
//	    {"duration": 0,     "rate": 1}
//	  ],
//	  "events": [
//	    {"kind": "outage",   "node": 0, "at": 21000, "duration": 2000},
//	    {"kind": "slowdown", "node": 1, "at": 30000, "duration": 5000, "factor": 0.5}
//	  ],
//	  "demand": {"dist": "pareto", "alpha": 2.5}
//	}
//
// The churn preset is generated rather than hand-written: every node
// gets its own Poisson fault schedule (-churn-rate faults per node on
// average across the run, a -churn-slow fraction of them slowdowns), so
// 1024-node churn runs need no 1024-entry spec file. The schedule is a
// pure function of (-nodes, -seed, churn flags).
//
// The run executes through a repro.Session; replications fan out across
// cores (-parallel: 0 = all cores, 1 = sequential) or, with
// -backend proc, across -workers worker processes speaking the distrib
// shard protocol. The merged CSV is byte-identical at every worker
// count and across backends, which the CI determinism jobs assert.
package main

import (
	"context"
	"flag"
	"fmt"
	"io"
	"os"
	"strings"

	"repro"
	"repro/cmd/internal/cliflags"
)

func main() {
	if err := run(os.Args[1:], os.Stdout, os.Stderr); err != nil {
		fmt.Fprintln(os.Stderr, "sdascn:", err)
		os.Exit(1)
	}
}

// churnPreset is the generated preset name handled outside the static
// preset table.
const churnPreset = "churn"

// progressLabel names the -progress meter after the scenario.
func progressLabel(sc *repro.Scenario) string {
	if name := sc.Name(); name != "" {
		return name
	}
	return "scenario"
}

func run(args []string, out, errOut io.Writer) (retErr error) {
	fs := flag.NewFlagSet("sdascn", flag.ContinueOnError)
	fs.SetOutput(errOut)
	var (
		list      = fs.Bool("list", false, "list built-in scenario presets and exit")
		specPath  = fs.String("spec", "", "path to a JSON scenario spec")
		preset    = fs.String("preset", "", "built-in scenario name (see -list)")
		horizon   = fs.Float64("horizon", 50000, "simulated time units per replication")
		reps      = fs.Int("reps", 2, "independent replications to merge")
		seed      = fs.Uint64("seed", 1, "base random seed (replication i uses seed+i; also seeds -preset churn)")
		load      = fs.Float64("load", 0, "nominal system load (default: Table 1's 0.5)")
		ssp       = fs.String("ssp", "", "serial strategy: UD, ED, EQS, EQF, ... (default UD)")
		psp       = fs.String("psp", "", "parallel strategy: UD, DIV-<x>, GF, ... (default UD)")
		churnRate = fs.Float64("churn-rate", 2, "churn preset: mean faults per node across the run")
		churnSlow = fs.Float64("churn-slow", 0.25, "churn preset: fraction of faults that are slowdowns instead of outages")
		outPath   = fs.String("out", "", "write the CSV here instead of stdout")
		quiet     = fs.Bool("quiet", false, "suppress the summary line on stderr")
		common    = cliflags.Register(fs)
	)
	if err := fs.Parse(args); err != nil {
		return err
	}
	// Chaos arms before any backend work — including worker mode, so a
	// directly-started worker and one inheriting the coordinator's
	// environment behave the same.
	if err := common.ArmFailpoints(); err != nil {
		return err
	}
	if common.ShardServer {
		// Worker mode: serve sub-shards over stdin/stdout for a
		// -backend proc coordinator, then exit.
		return cliflags.ServeShardWorker()
	}
	if common.ServeWorkers != "" {
		// Network-worker mode: serve shard workers over TCP for remote
		// -connect coordinators until interrupted.
		return cliflags.ServeTCPWorkers(common.ServeWorkers, errOut)
	}
	stopProf, err := common.StartProfiling()
	if err != nil {
		return err
	}
	// The exit heap profile is written inside stop; a write failure must
	// reach the exit status, not just stderr.
	defer func() {
		if perr := stopProf(); perr != nil && retErr == nil {
			retErr = perr
		}
	}()

	if *list {
		for _, line := range repro.ScenarioPresets() {
			fmt.Fprintln(out, line)
		}
		fmt.Fprintf(out, "%-10s %s\n", churnPreset,
			"generated per-node fault schedules (uses -nodes, -seed, -churn-rate, -churn-slow)")
		return nil
	}
	if (*specPath == "") == (*preset == "") {
		fs.Usage()
		return fmt.Errorf("need exactly one of -spec or -preset (or -list)")
	}
	if *horizon <= 0 {
		return fmt.Errorf("-horizon %v, want > 0", *horizon)
	}
	if err := common.ValidateNodes(); err != nil {
		return err
	}

	cfg := repro.BaselineConfig()
	cfg.Horizon = *horizon
	cfg.Seed = *seed
	if *load > 0 {
		cfg.Load = *load
	}
	if common.Nodes > 0 {
		cfg.Nodes = common.Nodes
	}
	if *ssp != "" {
		cfg.SSP = *ssp
	}
	if *psp != "" {
		cfg.PSP = *psp
	}

	var sc *repro.Scenario
	switch {
	case *specPath != "":
		data, rerr := os.ReadFile(*specPath)
		if rerr != nil {
			return rerr
		}
		sc, err = repro.ParseScenario(data)
	case *preset == churnPreset:
		sc, err = repro.ChurnScenario(cfg.Nodes, *churnRate, *horizon,
			repro.ChurnOptions{Seed: *seed, SlowdownFrac: *churnSlow})
	default:
		sc, err = repro.ScenarioPreset(*preset, *horizon)
	}
	if err != nil {
		return err
	}

	backend, closeBackend, err := common.ResolveBackend()
	if err != nil {
		return err
	}
	defer closeBackend()
	sessOpts := []repro.RunOption{repro.WithParallelism(common.Parallel)}
	var sess *repro.Session
	if backend != nil {
		sess = repro.NewSessionWithBackend(backend, sessOpts...)
	} else {
		sess = repro.NewSession(sessOpts...)
	}
	defer sess.Close()

	// -metrics-addr scrapes the session live; counters advance as
	// replications finish, gauges (in-flight, pool) reflect the moment.
	stopMetrics, err := common.StartMetrics(sess.Snapshot)
	if err != nil {
		return err
	}
	defer stopMetrics()

	var runOpts []repro.RunOption
	if pm := common.ProgressMeter(progressLabel(sc)); pm != nil {
		runOpts = append(runOpts, repro.WithProgress(pm))
	}
	res, err := sess.RunScenario(context.Background(), cfg, sc, *reps, runOpts...)
	if err != nil {
		return err
	}

	var csv strings.Builder
	if err := res.Series.WriteCSV(&csv); err != nil {
		return err
	}
	if *outPath != "" {
		if err := os.WriteFile(*outPath, []byte(csv.String()), 0o644); err != nil {
			return err
		}
		fmt.Fprintf(out, "wrote %s (%d windows)\n", *outPath, res.Series.Len())
	} else {
		fmt.Fprint(out, csv.String())
	}
	if !*quiet {
		name := sc.Name()
		if name == "" {
			name = "scenario"
		}
		fmt.Fprintf(errOut, "%s: %s-%s, load %g, %d reps: MD_local %.2f%% ±%.2f, MD_global %.2f%% ±%.2f\n",
			name, cfg.SSP, cfg.PSP, cfg.Load, *reps,
			res.LocalMD.Mean, res.LocalMD.HalfCI, res.GlobalMD.Mean, res.GlobalMD.HalfCI)
	}
	return nil
}
