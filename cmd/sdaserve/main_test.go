package main

import (
	"context"
	"io"
	"net/http"
	"strings"
	"testing"
	"time"
)

// startServe runs the service body on a free port and returns its base
// URL; shutdown and error checking ride on test cleanup.
func startServe(t *testing.T, args ...string) string {
	t.Helper()
	ctx, cancel := context.WithCancel(context.Background())
	ready := make(chan string, 1)
	done := make(chan error, 1)
	go func() {
		done <- run(ctx, append([]string{"-addr", "127.0.0.1:0"}, args...),
			io.Discard, func(addr string) { ready <- addr })
	}()
	var addr string
	select {
	case addr = <-ready:
	case err := <-done:
		t.Fatalf("service exited before ready: %v", err)
	case <-time.After(10 * time.Second):
		t.Fatal("service never became ready")
	}
	t.Cleanup(func() {
		cancel()
		select {
		case err := <-done:
			if err != nil {
				t.Errorf("run: %v", err)
			}
		case <-time.After(10 * time.Second):
			t.Error("service did not shut down")
		}
	})
	return "http://" + addr
}

func post(t *testing.T, url, body string) (int, string) {
	t.Helper()
	resp, err := http.Post(url, "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return resp.StatusCode, string(data)
}

// TestServeRoundTrip: the CLI serves deterministic, cache-accelerated
// queries end to end and shuts down cleanly on context cancellation.
func TestServeRoundTrip(t *testing.T) {
	base := startServe(t)

	resp, err := http.Get(base + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("/healthz: status %d", resp.StatusCode)
	}

	spec := `{"preset":"burst","horizon":300,"nodes":4,"seed":3,"reps":3}`
	code, first := post(t, base+"/run", spec)
	if code != http.StatusOK {
		t.Fatalf("first run: status %d: %s", code, first)
	}
	code, second := post(t, base+"/run", spec)
	if code != http.StatusOK {
		t.Fatalf("second run: status %d", code)
	}
	if first != second {
		t.Error("repeated job spec returned different bytes")
	}

	resp, err = http.Get(base + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	metrics, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	for _, want := range []string{"repro_cache_hits_total", "repro_cache_misses_total"} {
		if !strings.Contains(string(metrics), want) {
			t.Errorf("/metrics missing %s", want)
		}
	}
	if strings.Contains(string(metrics), "repro_cache_hits_total 0\n") {
		t.Error("repro_cache_hits_total still 0 after a repeated run")
	}
}

// TestServeNoCache: -no-cache serves identical bytes without a cache
// (every request simulates afresh).
func TestServeNoCache(t *testing.T) {
	base := startServe(t, "-no-cache")
	spec := `{"preset":"burst","horizon":300,"nodes":4,"seed":3,"reps":2}`
	_, first := post(t, base+"/run", spec)
	_, second := post(t, base+"/run", spec)
	if first != second {
		t.Error("uncached runs returned different bytes")
	}
	resp, err := http.Get(base + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	metrics, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if strings.Contains(string(metrics), "repro_cache_hits_total") {
		t.Error("cache series rendered with caching disabled")
	}
}

// TestServeBadFlags: flag conflicts and undefined flags fail at
// startup, not at first request.
func TestServeBadFlags(t *testing.T) {
	err := run(context.Background(), []string{"-connect", "x:1", "-backend", "proc"}, io.Discard, nil)
	if err == nil {
		t.Fatal("-connect with -backend proc: err = nil, want error")
	}
	err = run(context.Background(), []string{"-queue", "heap"}, io.Discard, nil)
	if err == nil || !strings.Contains(err.Error(), "not defined: -queue") {
		t.Fatalf("-queue: err = %v, want an undefined-flag error", err)
	}
}
