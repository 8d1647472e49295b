// Remote: TCP shard workers, result caching, and the query service.
//
// The example stands up everything the network layer offers inside one
// process: two WorkerServers on loopback ports, a NetBackend dialing
// both, a ResultCache wrapping the backend, and a QueryService streaming
// NDJSON over HTTP — then shows the property the whole stack is built
// around: every path produces byte-identical results, so the second
// (cached) service query returns the exact bytes of the first.
//
// Across real machines the worker half is one flag on the stock CLIs
// (`sdascn -serve-workers :9400` on each box, `-connect` on the
// coordinator) and the service is `sdaserve`.
package main

import (
	"context"
	"fmt"
	"io"
	"log"
	"net/http"
	"net/http/httptest"
	"strings"

	"repro"
)

func main() {
	if err := run(); err != nil {
		log.Fatal(err)
	}
}

func run() error {
	// Two worker servers — stand-ins for remote machines.
	var addrs []string
	for i := 0; i < 2; i++ {
		srv, err := repro.ListenWorkers("127.0.0.1:0")
		if err != nil {
			return err
		}
		defer srv.Close()
		go srv.Serve()
		addrs = append(addrs, srv.Addr())
	}

	// A coordinator dialing both, with a result cache on top.
	backend, err := repro.NewNetBackend(repro.NetBackendOptions{Addrs: addrs})
	if err != nil {
		return err
	}
	defer backend.Close()
	cache := repro.NewResultCache(backend, 64<<20)

	cfg := repro.BaselineConfig()
	cfg.Horizon = 20000
	sc, err := repro.ScenarioPreset("burst", cfg.Horizon)
	if err != nil {
		return err
	}
	cfg.Scenario = sc
	job := repro.Job{Config: cfg, Reps: 8}

	// Reference pass on the plain in-process pool.
	local := repro.NewSession()
	defer local.Close()
	ref, err := local.Run(context.Background(), job)
	if err != nil {
		return err
	}

	// Remote pass over TCP, then again from the cache.
	sess := repro.NewSessionWithBackend(cache)
	defer sess.Close()
	for pass, label := range []string{"TCP workers", "result cache"} {
		res, err := sess.Run(context.Background(), job)
		if err != nil {
			return err
		}
		match := "=="
		if res.LocalMD != ref.LocalMD || res.GlobalMD != ref.GlobalMD {
			match = "!=" // never happens: every transport is exact
		}
		fmt.Printf("pass %d (%s): MD_local %.2f%% ±%.2f %s pool\n",
			pass+1, label, res.LocalMD.Mean, res.LocalMD.HalfCI, match)
	}
	snap := sess.Snapshot()
	fmt.Printf("net: %d connections, %d frames received; cache: %d hits, %d misses\n",
		snap.Net.Connections, snap.Net.FramesRecv, snap.Cache.Hits, snap.Cache.Misses)

	// The same determinism over HTTP: the service streams NDJSON, and a
	// repeated query — now served from its cache — returns the same bytes.
	svc := repro.NewQueryService(repro.QueryServiceOptions{})
	defer svc.Close()
	ts := httptest.NewServer(svc.Handler())
	defer ts.Close()
	spec := `{"preset": "burst", "horizon": 20000, "seed": 1, "reps": 4}`
	var bodies []string
	for i := 0; i < 2; i++ {
		resp, err := http.Post(ts.URL+"/run", "application/json", strings.NewReader(spec))
		if err != nil {
			return err
		}
		body, err := io.ReadAll(resp.Body)
		resp.Body.Close()
		if err != nil {
			return err
		}
		bodies = append(bodies, string(body))
	}
	fmt.Printf("service: query twice, byte-identical bodies: %v (%d NDJSON lines each)\n",
		bodies[0] == bodies[1], strings.Count(bodies[0], "\n"))
	return nil
}
