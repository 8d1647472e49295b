package repro

import (
	"context"
	"encoding/json"
	"os"
	"runtime"
	"testing"
)

// TestRecordWorkingSet65536 is the recorded working-set profile behind
// BENCH_pr9.json's "profile" section — the fallback proof of the
// extreme-scale memory-layout work on machines without perf(1): it runs
// the scaling benchmark's 65536-node configuration, which the engine
// promotes to the ladder queue during setup, and reports
// runtime.MemStats deltas as JSON. Heap in-use after the run
// bounds the resident working set the hot loop walks; allocation and GC
// deltas across the measured replication show the steady state is
// arena-resident (no per-task heap traffic).
//
// The run is opt-in (RECORD_WORKINGSET=1) because it simulates ~750k
// tasks; reproduce the committed numbers with
//
//	RECORD_WORKINGSET=1 go test -run TestRecordWorkingSet65536 -v .
//
// optionally under GODEBUG=gctrace=1 for the collector's own log.
func TestRecordWorkingSet65536(t *testing.T) {
	if os.Getenv("RECORD_WORKINGSET") == "" {
		t.Skip("set RECORD_WORKINGSET=1 to record the 65536-node working-set profile")
	}
	cfg := BaselineConfig()
	cfg.Nodes = 65536
	cfg.Horizon = 30
	cfg.Warmup = 0.3

	// Warm run: populate every arena (slots, lanes, streams, pools) so
	// the measured run is the steady state a long simulation lives in.
	sess := NewSession(WithParallelism(1))
	defer sess.Close()
	job := Job{Config: cfg}
	if _, err := sess.Run(context.Background(), job); err != nil {
		t.Fatal(err)
	}
	runtime.GC()
	var before runtime.MemStats
	runtime.ReadMemStats(&before)

	res, err := sess.Run(context.Background(), job)
	if err != nil {
		t.Fatal(err)
	}
	m := res.Runs[0]
	var after runtime.MemStats
	runtime.ReadMemStats(&after)

	profile := map[string]any{
		"nodes":                  cfg.Nodes,
		"queue":                  "ladder",
		"horizon":                cfg.Horizon,
		"tasks_done":             m.LocalDone + m.GlobalDone,
		"heap_inuse_bytes":       after.HeapInuse,
		"heap_alloc_bytes":       after.HeapAlloc,
		"alloc_delta_bytes":      after.TotalAlloc - before.TotalAlloc,
		"mallocs_delta":          after.Mallocs - before.Mallocs,
		"gc_cycles_delta":        after.NumGC - before.NumGC,
		"gc_pause_delta_seconds": float64(after.PauseTotalNs-before.PauseTotalNs) / 1e9,
	}
	out, err := json.MarshalIndent(profile, "", "  ")
	if err != nil {
		t.Fatal(err)
	}
	t.Logf("working-set profile:\n%s", out)
}
