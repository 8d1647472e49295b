// Command sdaserve is the long-running simulation query service: it
// accepts JSON job specs over HTTP, keeps run counters per
// configuration fingerprint, serves repeated (config, seed) work from a
// deterministic in-memory shard-result cache, and streams
// per-replication results to each client in seed order.
//
// Usage:
//
//	sdaserve                                    # in-process pool, cache on
//	sdaserve -addr :9433 -cache-mb 512
//	sdaserve -backend proc -workers 3           # local worker processes
//	sdaserve -connect host1:9400,host2:9400     # remote TCP workers
//
// Endpoints:
//
//	POST /run            NDJSON stream: one line per replication
//	                     (index, seed, miss percentages) in seed order,
//	                     then a final aggregate line
//	POST /run?format=csv the merged scenario time-series CSV
//	GET  /healthz        liveness
//	GET  /metrics        Prometheus text, including repro_cache_* and
//	                     (with -connect) repro_net_* series
//
// A job spec looks like:
//
//	{"preset": "burst", "horizon": 20000, "nodes": 6,
//	 "ssp": "EQF", "psp": "DIV-1", "seed": 1, "reps": 8}
//
// A job carries its own node count and parallelism, and the service
// serves its own /metrics, so sdaserve takes only the backend flags of
// the simulation CLIs (-backend, -connect, -cache-mb, ...), not their
// -parallel, -nodes, -progress, -cpuprofile, -memprofile or
// -metrics-addr.
//
// Responses are a pure function of the spec: the same job answered
// fresh, from cache, or by remote workers produces byte-identical
// bodies, so clients may diff and replay them freely.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"os/signal"
	"syscall"
	"time"

	"repro/cmd/internal/cliflags"
	"repro/internal/netdist"
)

func main() {
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	if err := run(ctx, os.Args[1:], os.Stderr, nil); err != nil {
		fmt.Fprintln(os.Stderr, "sdaserve:", err)
		os.Exit(1)
	}
}

// run is the testable body: it serves until ctx is cancelled, calling
// onReady (when non-nil) with the bound address once accepting.
func run(ctx context.Context, args []string, errOut io.Writer, onReady func(addr string)) error {
	fs := flag.NewFlagSet("sdaserve", flag.ContinueOnError)
	fs.SetOutput(errOut)
	common := cliflags.RegisterBackend(fs)
	var (
		addr        = fs.String("addr", "127.0.0.1:9433", "HTTP listen address for the query service")
		maxSessions = fs.Int("max-sessions", 0, "bound on per-configuration sessions (run counters) kept (0 = default 32)")
		noCache     = fs.Bool("no-cache", false, "disable the shard-result cache (every request simulates)")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}
	if err := common.ArmFailpoints(); err != nil {
		return err
	}
	if common.ShardServer {
		// Worker mode: a -backend proc coordinator re-executed this
		// binary to serve sub-shards over stdin/stdout.
		return cliflags.ServeShardWorker()
	}
	if common.ServeWorkers != "" {
		return cliflags.ServeTCPWorkers(common.ServeWorkers, errOut)
	}

	// The service owns the cache layer, so resolve only the transport
	// here: -cache-mb sizes the service cache instead of wrapping the
	// backend directly.
	cacheBytes := int64(common.CacheMB) << 20
	if *noCache {
		cacheBytes = -1
	}
	common.CacheMB = 0
	backend, closeBackend, err := common.ResolveBackend()
	if err != nil {
		return err
	}
	defer closeBackend()

	svc := netdist.NewService(netdist.ServiceOptions{
		Backend:     backend,
		CacheBytes:  cacheBytes,
		MaxSessions: *maxSessions,
	})
	defer svc.Close()

	ln, err := net.Listen("tcp", *addr)
	if err != nil {
		return err
	}
	srv := &http.Server{Handler: svc.Handler()}
	fmt.Fprintf(errOut, "serving simulation queries on http://%s/run\n", ln.Addr())
	if onReady != nil {
		onReady(ln.Addr().String())
	}
	done := make(chan error, 1)
	go func() { done <- srv.Serve(ln) }()
	select {
	case <-ctx.Done():
		sctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		defer cancel()
		if err := srv.Shutdown(sctx); err != nil {
			_ = srv.Close()
		}
		<-done
		return nil
	case err := <-done:
		if errors.Is(err, http.ErrServerClosed) {
			return nil
		}
		return err
	}
}
