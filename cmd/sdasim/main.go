// Command sdasim regenerates the paper's tables and figures.
//
// Usage:
//
//	sdasim -list
//	sdasim -exp fig2b                       # laptop-scale defaults
//	sdasim -exp fig2b -format chart
//	sdasim -exp all -horizon 1e6 -reps 2    # paper scale
//	sdasim -exp fig4 -format csv -out results/
//	sdasim -exp all -parallel 8 -progress   # bound the worker pool
//	sdasim -exp abl-hot -nodes 1024         # scale the topology
//	sdasim -exp fig2b -backend proc -workers 3   # fan out across processes
//
// Every experiment runs through one repro.Session, so consecutive
// experiments share warm per-worker workspaces. Sweeps fan their
// (curve, data-point) cells out across cores; -parallel bounds the
// worker pool (0 = GOMAXPROCS, 1 = sequential). Results are
// bit-identical regardless of parallelism: each replication derives its
// own RNG substreams from its seed.
//
// -nodes overrides the node count k for every replication (experiments
// that pin node-dependent parameters reject incompatible overrides with
// a descriptive error).
//
// Experiment ids are those of the experiment registry (-list prints it;
// see internal/experiment): table1, fig2a, fig2b, fig3, fig4, combined,
// abl-pexerr, abl-abort, abl-mlf, abl-m, abl-hetm, abl-hot, abl-relflex,
// ext-as, ext-adiv, ext-preempt, diag-stages.
package main

import (
	"context"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"strings"
	"time"

	"repro"
	"repro/cmd/internal/cliflags"
	"repro/internal/experiment"
)

func main() {
	if err := run(os.Args[1:], os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "sdasim:", err)
		os.Exit(1)
	}
}

func run(args []string, out io.Writer) (retErr error) {
	fs := flag.NewFlagSet("sdasim", flag.ContinueOnError)
	var (
		list    = fs.Bool("list", false, "list experiments and exit")
		expID   = fs.String("exp", "", "experiment id, or 'all'")
		horizon = fs.Float64("horizon", 0, "simulated time units per replication (default 50000; paper: 1e6)")
		reps    = fs.Int("reps", 0, "replications per data point (default 2)")
		seed    = fs.Uint64("seed", 0, "base random seed (default 1)")
		target  = fs.Float64("targetci", 0, "add replications (up to -maxreps) until every 95% half-width is at or below this many percentage points (paper protocol: 0.35); 0 disables")
		maxReps = fs.Int("maxreps", 0, "replication cap for -targetci (default 10)")
		common  = cliflags.Register(fs)

		format = fs.String("format", "table", "output format: table, chart, csv, json, or all")
		outDir = fs.String("out", "", "write per-experiment files to this directory instead of stdout")
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
		return cliflags.ServeTCPWorkers(common.ServeWorkers, os.Stderr)
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
		for _, e := range experiment.All() {
			fmt.Fprintf(out, "%-12s %s\n", e.ID, e.Title)
		}
		return nil
	}
	if *expID == "" {
		fs.Usage()
		return fmt.Errorf("missing -exp (or -list)")
	}
	switch *format {
	case "table", "chart", "csv", "json", "all":
	default:
		return fmt.Errorf("unknown -format %q", *format)
	}

	var exps []experiment.Experiment
	if *expID == "all" {
		exps = experiment.All()
	} else {
		for _, id := range strings.Split(*expID, ",") {
			e, err := experiment.ByID(strings.TrimSpace(id))
			if err != nil {
				// Show the full catalogue (ids and titles), not just a
				// bare failure: the valid names are the fix.
				var sb strings.Builder
				fmt.Fprintf(&sb, "%v\nvalid experiments (sdasim -list):\n", err)
				for _, e := range experiment.All() {
					fmt.Fprintf(&sb, "  %-12s %s\n", e.ID, e.Title)
				}
				return fmt.Errorf("%s", strings.TrimRight(sb.String(), "\n"))
			}
			exps = append(exps, e)
		}
	}

	if err := common.ValidateNodes(); err != nil {
		return err
	}

	// One session serves every experiment of the invocation: warm
	// workspaces carry over between sweeps (for -backend proc or
	// -connect, each worker keeps its own warm pool the same way, and
	// -cache-mb serves repeated cells from memory).
	backend, closeBackend, err := common.ResolveBackend()
	if err != nil {
		return err
	}
	defer closeBackend()
	var sess *repro.Session
	if backend != nil {
		sess = repro.NewSessionWithBackend(backend)
	} else {
		sess = repro.NewSession()
	}
	defer sess.Close()

	// -metrics-addr scrapes the session live; counters advance as
	// replications finish, gauges (in-flight, pool) reflect the moment.
	stopMetrics, err := common.StartMetrics(sess.Snapshot)
	if err != nil {
		return err
	}
	defer stopMetrics()

	opts := experiment.Options{
		Horizon:     *horizon,
		Reps:        *reps,
		Seed:        *seed,
		TargetCI:    *target,
		MaxReps:     *maxReps,
		Parallelism: common.Parallel,
		Nodes:       common.Nodes,
	}
	for _, e := range exps {
		// One meter per experiment: sweep cells completed, rate, ETA.
		opts.Progress = common.ProgressMeter(e.ID)
		started := time.Now()
		res, err := sess.Experiment(context.Background(), e.ID, opts)
		if err != nil {
			return fmt.Errorf("%s: %w", e.ID, err)
		}
		body, err := render(res, *format)
		if err != nil {
			return fmt.Errorf("%s: %w", e.ID, err)
		}
		// The elapsed time goes to stderr, so stdout and -out files are
		// a pure function of the flags.
		fmt.Fprintf(os.Stderr, "sdasim: %s took %.1fs\n", e.ID, time.Since(started).Seconds())
		header := fmt.Sprintf("== %s: %s\n-- paper: %s\n", e.ID, e.Title, e.Paper)
		if *outDir == "" {
			fmt.Fprint(out, header, body, "\n")
			continue
		}
		if err := os.MkdirAll(*outDir, 0o755); err != nil {
			return err
		}
		path := filepath.Join(*outDir, e.ID+".txt")
		if err := os.WriteFile(path, []byte(header+body), 0o644); err != nil {
			return err
		}
		fmt.Fprintf(out, "wrote %s\n", path)
	}
	return nil
}

func render(res *experiment.Result, format string) (string, error) {
	var b strings.Builder
	if res.Notes != "" {
		b.WriteString(res.Notes)
	}
	hasData := res.Figure != nil && len(res.Figure.Curves) > 0
	if !hasData {
		return b.String(), nil
	}
	if format == "table" || format == "all" {
		b.WriteString(experiment.RenderTable(res.Figure))
	}
	if format == "chart" || format == "all" {
		b.WriteString(experiment.RenderChart(res.Figure, 64, 18))
	}
	if format == "csv" || format == "all" {
		b.WriteString(experiment.RenderCSV(res.Figure))
	}
	if format == "json" || format == "all" {
		s, err := experiment.RenderJSON(res.Figure)
		if err != nil {
			return "", err
		}
		b.WriteString(s)
	}
	return b.String(), nil
}
