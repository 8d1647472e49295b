package netdist

import (
	"context"
	"net/http"
	"net/http/httptest"
	"runtime"
	"strings"
	"testing"

	"repro/internal/scenario"
	"repro/internal/session"
	"repro/internal/system"
)

// burstHitSpec is a 1024-node burst job of two seeds, perfbench
// service's request shape.
const burstHitSpec = `{"preset":"burst","horizon":40,"nodes":1024,"load":0.3,"seed":11,"reps":2,"parallelism":1}`

// cacheHitServer returns a serve function that posts spec to a fresh
// service's handler, after one warm-up request has stored every seed.
func cacheHitServer(tb testing.TB, spec string) (svc *Service, serve func() *httptest.ResponseRecorder) {
	svc = NewService(ServiceOptions{})
	tb.Cleanup(func() { svc.Close() })
	h := svc.Handler()
	serve = func() *httptest.ResponseRecorder {
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/run", strings.NewReader(spec)))
		return rec
	}
	if rec := serve(); rec.Code != http.StatusOK {
		tb.Fatalf("warm-up request: status %d: %s", rec.Code, rec.Body)
	}
	return svc, serve
}

// BenchmarkCacheHit times one fully cached request through the service
// handler: every seed's replication is already stored, so each
// operation is the JSON decode, the config fingerprint, the cache
// lookup and the NDJSON response — no simulation. Two shapes: a
// 1024-node burst job of two seeds, and one seed of the 65536-node
// baseline (perfbench scale-64k's shape), where any per-node cost of a
// hit shows.
func BenchmarkCacheHit(b *testing.B) {
	for _, bc := range []struct {
		name, spec string
		seeds      uint64
	}{
		{"nodes=1024/seeds=2", burstHitSpec, 2},
		{"nodes=65536/seeds=1", `{"horizon":20,"nodes":65536,"seed":2,"reps":1,"parallelism":1}`, 1},
	} {
		b.Run(bc.name, func(b *testing.B) {
			svc, serve := cacheHitServer(b, bc.spec)
			hits := svc.Snapshot().Cache.Hits
			b.ReportAllocs()
			for b.Loop() {
				serve()
			}
			if got := svc.Snapshot().Cache.Hits - hits; got < bc.seeds*uint64(b.N) {
				b.Fatalf("%d cache hits over %d requests, want every seed served from the cache", got, b.N)
			}
		})
	}
}

// TestCacheHitAllocBound bounds the heap bytes of one fully cached
// 2-seed burst NDJSON request, measured as BenchmarkCacheHit measures
// it. The response prints only miss percentages, so building it merges
// no scenario series: it allocates about 9.8 KB, against about 16 KB
// when every request cloned and merged the runs' series.
func TestCacheHitAllocBound(t *testing.T) {
	const requests, maxBytes = 200, 12800
	svc, serve := cacheHitServer(t, burstHitSpec)
	hits := svc.Snapshot().Cache.Hits
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	for range requests {
		serve()
	}
	runtime.ReadMemStats(&after)
	if got := svc.Snapshot().Cache.Hits - hits; got != 2*requests {
		t.Fatalf("%d cache hits over %d requests, want every seed served from the cache", got, requests)
	}
	perReq := float64(after.TotalAlloc-before.TotalAlloc) / requests
	t.Logf("%.0f B per cached request", perReq)
	if perReq > maxBytes {
		t.Fatalf("a cached burst request allocated %.0f B, want at most %d", perReq, maxBytes)
	}
}

// BenchmarkRemoteShard times one 4-seed 1024-node burst shard through a
// NetBackend to a worker Server on loopback, hedging off: the worker
// simulates on its warm pool, and every replication's result frame
// crosses the socket into the coordinator's reader. The server runs in
// this process, so B/op counts both ends of the wire.
func BenchmarkRemoteShard(b *testing.B) {
	srv := startServer(b)
	nb, err := NewBackend(BackendOptions{Addrs: []string{srv.Addr()}, HedgeFactor: -1})
	if err != nil {
		b.Fatal(err)
	}
	b.Cleanup(func() { nb.Close() })
	cfg := system.Baseline()
	cfg.Nodes, cfg.Horizon, cfg.Load, cfg.Seed = 1024, 40, 0.3, 1
	if cfg.Scenario, err = scenario.Preset("burst", cfg.Horizon); err != nil {
		b.Fatal(err)
	}
	shard := session.Shard{Config: cfg, Seeds: []uint64{1, 2, 3, 4}, Parallelism: 1}
	ctx := context.Background()
	run := func() {
		res, err := nb.Run(ctx, shard)
		if err != nil {
			b.Fatal(err)
		}
		if res.Completed != len(shard.Seeds) {
			b.Fatalf("completed %d of %d seeds", res.Completed, len(shard.Seeds))
		}
	}
	run() // dial, and warm the worker's workspace
	b.ReportAllocs()
	for b.Loop() {
		run()
	}
	if ds := nb.DistribStats(); ds.Fallbacks+ds.Retries+ds.Deaths != 0 {
		b.Fatalf("the shard left the remote path: %+v", ds)
	}
}
