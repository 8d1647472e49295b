// Package cliflags holds the flag plumbing shared by the simulation
// CLIs (cmd/sdasim, cmd/sdascn, cmd/sdaserve): the worker-pool bound,
// the execution backend, the topology override, and the profiling
// switches — one registration, one validation, one profiling starter,
// instead of each command repeating them.
package cliflags

import (
	"flag"
	"fmt"
	"io"
	"os"
	"os/signal"
	"strings"
	"syscall"
	"time"

	"repro/internal/distrib"
	"repro/internal/failpoint"
	"repro/internal/netdist"
	"repro/internal/obs"
	"repro/internal/profiling"
	"repro/internal/session"
)

// Common carries the shared flag values after parsing.
type Common struct {
	// Parallel is the worker-pool bound (-parallel): 0 = all cores,
	// 1 = sequential. Results are identical at every setting.
	Parallel int
	// Nodes overrides the node count k (-nodes); 0 keeps the default.
	Nodes int
	// Backend selects the execution backend (-backend): "pool" runs
	// replications on in-process workers, "proc" fans sub-shards out
	// across worker processes. Results are byte-identical either way.
	Backend string
	// Workers is the -backend proc worker-process count (-workers).
	Workers int
	// ShardServer puts the command in shard-worker mode (-shard-server):
	// serve the distrib protocol on stdin/stdout and exit. The proc
	// backend spawns its workers by re-executing the current binary with
	// this flag.
	ShardServer bool
	// CPUProfile and MemProfile are the profiling output paths.
	CPUProfile, MemProfile string
	// Progress turns on the live progress line (-progress): completed
	// count, rate, and ETA on stderr, redrawn in place.
	Progress bool
	// MetricsAddr, when non-empty (-metrics-addr), serves /metrics
	// (Prometheus text), /debug/pprof/* and /debug/vars on this address
	// for the duration of the run.
	MetricsAddr string
	// Failpoints is the chaos spec (-failpoints) armed before the run;
	// see package failpoint for the grammar. ArmFailpoints also exports
	// it through the environment so -backend proc workers inherit it.
	Failpoints string
	// Heartbeat and WorkerTimeout tune -backend proc supervision: the
	// liveness-probe interval and the silence deadline after which a
	// worker counts as hung. Zero keeps the defaults (1s / 10s).
	Heartbeat     time.Duration
	WorkerTimeout time.Duration
	// Hedge scales the straggler threshold for speculative re-dispatch
	// (0 = default 4, negative = off).
	Hedge float64
	// ServeWorkers puts the command in network-worker mode
	// (-serve-workers addr): serve shard workers over TCP on this
	// address until interrupted.
	ServeWorkers string
	// Connect runs shards on remote TCP workers (-connect
	// host:port[,host:port...]) instead of local processes.
	Connect string
	// CacheMB bounds the deterministic shard-result cache (-cache-mb);
	// 0 disables caching.
	CacheMB int
}

// Register installs the shared flags on fs and returns the value
// holder; read it after fs.Parse.
func Register(fs *flag.FlagSet) *Common {
	c := &Common{}
	fs.IntVar(&c.Parallel, "parallel", 0,
		"worker-pool size: 0 = all cores, 1 = sequential (results are identical either way)")
	fs.IntVar(&c.Nodes, "nodes", 0,
		"override the node count k for every replication (default: the run's own setting, Table 1: 6)")
	fs.StringVar(&c.Backend, "backend", "pool",
		"execution backend: pool (in-process worker pool) or proc (multi-process shard workers; output is byte-identical)")
	fs.IntVar(&c.Workers, "workers", 0,
		"worker-process count for -backend proc (0 = default 2)")
	fs.BoolVar(&c.ShardServer, "shard-server", false,
		"serve as a shard-worker process on stdin/stdout and exit (spawned by -backend proc; not for interactive use)")
	fs.StringVar(&c.CPUProfile, "cpuprofile", "",
		"write a CPU profile of the run to this file (inspect with `go tool pprof`)")
	fs.StringVar(&c.MemProfile, "memprofile", "",
		"write an allocation profile taken at exit to this file")
	fs.BoolVar(&c.Progress, "progress", false,
		"redraw a live progress line on stderr: completed/total, rate, and ETA")
	fs.StringVar(&c.MetricsAddr, "metrics-addr", "",
		"serve /metrics (Prometheus text), /debug/pprof/* and /debug/vars on this address (e.g. 127.0.0.1:9090) for the duration of the run")
	fs.StringVar(&c.Failpoints, "failpoints", "",
		"arm fault-injection sites for a chaos run, e.g. 'seed=42;distrib/worker-loop=kill:p=0.05:max=1' (results stay byte-identical; see internal/failpoint)")
	fs.DurationVar(&c.Heartbeat, "heartbeat", 0,
		"liveness-probe interval for -backend proc workers (0 = default 1s)")
	fs.DurationVar(&c.WorkerTimeout, "worker-timeout", 0,
		"declare a -backend proc worker hung after this much silence and reassign its work (0 = default 10s)")
	fs.Float64Var(&c.Hedge, "hedge", 0,
		"straggler threshold multiplier for speculative re-dispatch under -backend proc (0 = default 4, negative = off; first result wins, results unchanged)")
	fs.StringVar(&c.ServeWorkers, "serve-workers", "",
		"serve shard workers over TCP on this address (e.g. :9400) until interrupted; coordinators attach with -connect (results stay byte-identical)")
	fs.StringVar(&c.Connect, "connect", "",
		"run shards on remote -serve-workers servers (comma-separated host:port list) instead of local processes; unreachable fleets degrade to the in-process pool")
	fs.IntVar(&c.CacheMB, "cache-mb", 0,
		"wrap the backend in a deterministic shard-result cache of this many MiB: repeated (config, seed) work is served from memory, byte-identical (0 = off)")
	return c
}

// ArmFailpoints arms the -failpoints spec (a no-op when empty) and
// exports it through the environment so worker processes spawned by
// -backend proc arm the same chaos. Call it before any backend work —
// including the -shard-server branch, whose process inherited the spec
// from its coordinator's environment at init.
func (c *Common) ArmFailpoints() error {
	if c.Failpoints == "" {
		return nil
	}
	if err := failpoint.Arm(c.Failpoints); err != nil {
		return err
	}
	return os.Setenv(failpoint.EnvVar, c.Failpoints)
}

// ValidateNodes rejects a negative -nodes override.
func (c *Common) ValidateNodes() error {
	if c.Nodes < 0 {
		return fmt.Errorf("-nodes %d, want > 0 (or omit for the default)", c.Nodes)
	}
	return nil
}

// StartProfiling starts the requested profiles and returns the stop
// function to defer. Stop's error (a mem profile that could not be
// written at exit) belongs in the command's exit status.
func (c *Common) StartProfiling() (func() error, error) {
	return profiling.Start(c.CPUProfile, c.MemProfile)
}

// ProgressMeter resolves the -progress flag: nil when off, otherwise a
// live stderr meter labelled label, ready to pass to WithProgress.
func (c *Common) ProgressMeter(label string) func(done, total int) {
	if !c.Progress {
		return nil
	}
	return obs.Progress(os.Stderr, label)
}

// StartMetrics resolves the -metrics-addr flag: a no-op when unset,
// otherwise it serves snapshot on the requested address and announces
// the endpoint on stderr. The returned stop function shuts the server
// down.
func (c *Common) StartMetrics(snapshot func() obs.Snapshot) (func(), error) {
	if c.MetricsAddr == "" {
		return func() {}, nil
	}
	srv, err := obs.NewServer(c.MetricsAddr, snapshot)
	if err != nil {
		return nil, err
	}
	fmt.Fprintf(os.Stderr, "serving metrics on http://%s/metrics\n", srv.Addr())
	return func() { _ = srv.Close() }, nil
}

// ServeShardWorker runs the shard-worker protocol on stdin/stdout until
// the coordinator closes the pipe — the body of -shard-server mode.
func ServeShardWorker() error {
	return distrib.ServeWorker(os.Stdin, os.Stdout)
}

// ProcBackend resolves the -backend/-workers flags: nil means the
// default in-process pool; a non-nil backend is the multi-process
// coordinator (Close it when done). Worker processes re-execute the
// current binary with -shard-server.
func (c *Common) ProcBackend() (*distrib.ProcBackend, error) {
	switch c.Backend {
	case "", "pool":
		if c.Workers != 0 {
			return nil, fmt.Errorf("-workers %d requires -backend proc", c.Workers)
		}
		return nil, nil
	case "proc":
		if c.Workers < 0 {
			return nil, fmt.Errorf("-workers %d, want >= 0", c.Workers)
		}
		return distrib.NewProcBackend(distrib.ProcOptions{
			Workers:       c.Workers,
			Heartbeat:     c.Heartbeat,
			WorkerTimeout: c.WorkerTimeout,
			HedgeFactor:   c.Hedge,
		}), nil
	default:
		return nil, fmt.Errorf("unknown -backend %q (want pool or proc)", c.Backend)
	}
}

// ResolveBackend resolves the full execution-transport flag set —
// -backend/-workers, -connect, -cache-mb — into a session backend plus
// its cleanup. A nil backend means the session's default in-process
// pool; whatever comes back, output is byte-identical.
func (c *Common) ResolveBackend() (session.Backend, func(), error) {
	var inner session.Backend
	closers := []func(){}
	if c.Connect != "" {
		if c.Backend == "proc" {
			return nil, nil, fmt.Errorf("-connect and -backend proc are mutually exclusive")
		}
		if c.Workers != 0 {
			return nil, nil, fmt.Errorf("-workers %d requires -backend proc, not -connect", c.Workers)
		}
		nb, err := netdist.NewBackend(netdist.BackendOptions{
			Addrs:         strings.Split(c.Connect, ","),
			Heartbeat:     c.Heartbeat,
			WorkerTimeout: c.WorkerTimeout,
			HedgeFactor:   c.Hedge,
		})
		if err != nil {
			return nil, nil, err
		}
		inner = nb
		closers = append(closers, func() { nb.Close() })
	} else {
		pb, err := c.ProcBackend()
		if err != nil {
			return nil, nil, err
		}
		if pb != nil {
			inner = pb
			closers = append(closers, func() { pb.Close() })
		}
	}
	if c.CacheMB < 0 {
		return nil, nil, fmt.Errorf("-cache-mb %d, want >= 0", c.CacheMB)
	}
	if c.CacheMB > 0 {
		if inner == nil {
			// The cache needs an explicit inner backend: give it its own
			// pool (the session would otherwise bypass the cache).
			pool := session.NewPool()
			inner = pool
			closers = append(closers, pool.Close)
		}
		inner = netdist.NewCache(inner, int64(c.CacheMB)<<20)
	}
	return inner, func() {
		for i := len(closers) - 1; i >= 0; i-- {
			closers[i]()
		}
	}, nil
}

// ServeTCPWorkers is the body of -serve-workers mode: serve shard
// workers on addr, announce the bound address on errOut (addr may end
// in :0), and run until SIGINT/SIGTERM.
func ServeTCPWorkers(addr string, errOut io.Writer) error {
	srv, err := netdist.Listen(addr)
	if err != nil {
		return err
	}
	fmt.Fprintf(errOut, "serving shard workers on %s\n", srv.Addr())
	sigc := make(chan os.Signal, 1)
	signal.Notify(sigc, os.Interrupt, syscall.SIGTERM)
	defer signal.Stop(sigc)
	done := make(chan error, 1)
	go func() { done <- srv.Serve() }()
	select {
	case <-sigc:
		_ = srv.Close()
		return <-done
	case err := <-done:
		_ = srv.Close()
		return err
	}
}
