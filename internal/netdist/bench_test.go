package netdist

import (
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
)

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
		{"nodes=1024/seeds=2", `{"preset":"burst","horizon":40,"nodes":1024,"load":0.3,"seed":11,"reps":2,"parallelism":1}`, 2},
		{"nodes=65536/seeds=1", `{"horizon":20,"nodes":65536,"seed":2,"reps":1,"parallelism":1}`, 1},
	} {
		b.Run(bc.name, func(b *testing.B) {
			svc := NewService(ServiceOptions{})
			defer svc.Close()
			h := svc.Handler()
			serve := func() *httptest.ResponseRecorder {
				rec := httptest.NewRecorder()
				h.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/run", strings.NewReader(bc.spec)))
				return rec
			}
			if rec := serve(); rec.Code != http.StatusOK {
				b.Fatalf("warm-up request: status %d: %s", rec.Code, rec.Body)
			}
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
