package netdist

import (
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
)

// BenchmarkCacheHit times one fully cached request through the service
// handler: a 1024-node burst job of two seeds whose replications are
// already stored, so each operation is the JSON decode, the config
// fingerprint, the cache lookup and decode, and the NDJSON response —
// no simulation.
func BenchmarkCacheHit(b *testing.B) {
	svc := NewService(ServiceOptions{})
	defer svc.Close()
	h := svc.Handler()
	const spec = `{"preset":"burst","horizon":40,"nodes":1024,"load":0.3,"seed":11,"reps":2,"parallelism":1}`
	serve := func() *httptest.ResponseRecorder {
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/run", strings.NewReader(spec)))
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
	if got := svc.Snapshot().Cache.Hits - hits; got < 2*uint64(b.N) {
		b.Fatalf("%d cache hits over %d requests, want every seed served from the cache", got, b.N)
	}
}
