package obs

import (
	"bytes"
	"fmt"
	"io"
	"strings"
	"sync"
	"testing"
	"time"
)

func sampleSnapshot() Snapshot {
	return Snapshot{
		Engine: EngineStats{
			EventsScheduled: 1000, EventsFired: 990, EventsCancelled: 10,
			QueuePromotions: 1, PendingHWM: 600, ReadyHWM: 12,
			TasksSubmitted: 500, TasksCompleted: 480, TasksAborted: 20,
			Preemptions: 3,
		},
		Session: SessionStats{
			JobsStarted: 2, JobsFinished: 1, ReplicationsCompleted: 8,
			ReplicationsInFlight: 4,
			Pool:                 PoolStats{WarmAcquires: 6, ColdAcquires: 2, BusySeconds: 1.5},
		},
		Distrib: &DistribStats{
			Deaths: 1, Respawns: 1, MergeDepthHWM: 3,
			Workers: []WorkerStats{
				{ID: 1, Alive: true, SubShards: 4, Steals: 1, FramesSent: 5, FramesRecv: 9,
					BytesSent: 1200, BytesRecv: 3400, Pool: PoolStats{WarmAcquires: 3, ColdAcquires: 1, BusySeconds: 0.7}},
				{ID: 2, Alive: false, SubShards: 2},
			},
		},
	}
}

func TestEngineStatsMerge(t *testing.T) {
	var acc EngineStats
	a := EngineStats{EventsScheduled: 10, EventsFired: 9, EventsCancelled: 1,
		QueuePromotions: 1, PendingHWM: 50, ReadyHWM: 4,
		TasksSubmitted: 5, TasksCompleted: 4, TasksAborted: 1, Preemptions: 2}
	b := EngineStats{EventsScheduled: 20, EventsFired: 20,
		PendingHWM: 30, ReadyHWM: 7, TasksSubmitted: 8, TasksCompleted: 8}
	acc.Merge(a)
	acc.Merge(b)

	var rev EngineStats
	rev.Merge(b)
	rev.Merge(a)
	if acc != rev {
		t.Fatalf("merge is order-dependent: %+v vs %+v", acc, rev)
	}
	if acc.EventsScheduled != 30 || acc.EventsFired != 29 || acc.EventsCancelled != 1 {
		t.Fatalf("event counts wrong: %+v", acc)
	}
	if acc.PendingHWM != 50 || acc.ReadyHWM != 7 {
		t.Fatalf("HWMs should take maxima: %+v", acc)
	}
	if acc.TasksSubmitted != 13 || acc.TasksCompleted != 12 || acc.TasksAborted != 1 || acc.Preemptions != 2 {
		t.Fatalf("task counts wrong: %+v", acc)
	}
}

func TestWritePrometheusFormat(t *testing.T) {
	var buf bytes.Buffer
	if err := sampleSnapshot().WritePrometheus(&buf); err != nil {
		t.Fatal(err)
	}
	text := buf.String()
	for _, want := range []string{
		"# TYPE repro_engine_events_scheduled_total counter",
		"repro_engine_events_scheduled_total 1000",
		"repro_engine_pending_events_hwm 600",
		"repro_engine_tasks_submitted_total 500",
		"repro_session_replications_in_flight 4",
		"repro_session_pool_warm_acquires_total 6",
		"repro_session_pool_busy_seconds_total 1.5",
		"repro_distrib_merge_depth_hwm 3",
		`repro_distrib_worker_subshards_total{worker="1"} 4`,
		`repro_distrib_worker_subshards_total{worker="2"} 2`,
		`repro_distrib_worker_alive{worker="1"} 1`,
		`repro_distrib_worker_alive{worker="2"} 0`,
		`repro_distrib_worker_steals_total{worker="1"} 1`,
		`repro_distrib_worker_bytes_recv_total{worker="1"} 3400`,
	} {
		if !strings.Contains(text, want+"\n") {
			t.Errorf("missing line %q in:\n%s", want, text)
		}
	}
	// Every sample line's series must have HELP and TYPE headers.
	seen := map[string]bool{}
	for _, line := range strings.Split(text, "\n") {
		if line == "" {
			continue
		}
		if strings.HasPrefix(line, "# HELP ") || strings.HasPrefix(line, "# TYPE ") {
			seen[strings.Fields(line)[2]] = true
			continue
		}
		name := line
		if i := strings.IndexAny(line, "{ "); i >= 0 {
			name = line[:i]
		}
		if !seen[name] {
			t.Errorf("sample %q has no preceding HELP/TYPE", line)
		}
	}
}

func TestWritePrometheusOmitsDistribWhenNil(t *testing.T) {
	snap := sampleSnapshot()
	snap.Distrib = nil
	var buf bytes.Buffer
	if err := snap.WritePrometheus(&buf); err != nil {
		t.Fatal(err)
	}
	if strings.Contains(buf.String(), "repro_distrib_") {
		t.Fatalf("distrib series rendered without a distrib backend:\n%s", buf.String())
	}
}

func TestReadRuntimeGauges(t *testing.T) {
	r := ReadRuntime()
	if r.HeapInuseBytes == 0 || r.HeapAllocBytes == 0 || r.HeapSysBytes == 0 {
		t.Fatalf("runtime heap gauges zero: %+v", r)
	}
	var buf bytes.Buffer
	if err := r.WritePrometheus(&buf); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	for _, series := range []string{
		"repro_runtime_heap_inuse_bytes",
		"repro_runtime_heap_alloc_bytes",
		"repro_runtime_heap_sys_bytes",
		"repro_runtime_gc_cycles_total",
		"repro_runtime_gc_pause_seconds_total",
		"repro_runtime_gc_next_bytes",
	} {
		if !strings.Contains(out, "# TYPE "+series+" ") || !strings.Contains(out, "\n"+series+" ") {
			t.Errorf("rendered runtime metrics missing %s:\n%s", series, out)
		}
	}
}

// scriptClock replaces timeNow with a deterministic ticking clock.
func scriptClock(t *testing.T, step time.Duration) {
	t.Helper()
	base := time.Unix(0, 0)
	var mu sync.Mutex
	n := 0
	timeNow = func() time.Time {
		mu.Lock()
		defer mu.Unlock()
		n++
		return base.Add(time.Duration(n) * step)
	}
	t.Cleanup(func() { timeNow = time.Now })
}

func TestProgressLine(t *testing.T) {
	scriptClock(t, time.Second) // 1s per clock read: creation, then one per update
	var buf bytes.Buffer
	p := Progress(&buf, "fig2b")

	p(1, 4) // at t=2s (created at t=1s): 1 done in 1s => 1.0/s, 3 left => ETA 3s
	out := buf.String()
	if !strings.HasPrefix(out, "\rfig2b 1/4 (25%) 1.0/s ETA 3s") {
		t.Fatalf("unexpected first line %q", out)
	}
	if strings.Contains(out, "\n") {
		t.Fatalf("line terminated before completion: %q", out)
	}

	p(4, 4) // at t=3s: done, 2.0/s, elapsed tail + newline
	out = buf.String()
	if !strings.Contains(out, "fig2b 4/4 (100%) 2.0/s 2.0s") || !strings.HasSuffix(out, "\n") {
		t.Fatalf("unexpected completion line %q", out)
	}

	before := buf.Len()
	p(4, 4) // after completion: dropped
	if buf.Len() != before {
		t.Fatal("update after completion still painted")
	}
}

func TestProgressMonotonic(t *testing.T) {
	scriptClock(t, time.Millisecond)
	var buf bytes.Buffer
	p := Progress(&buf, "x")
	p(3, 10)
	mark := buf.Len()
	p(2, 10) // stale out-of-order report: must not repaint
	if buf.Len() != mark {
		t.Fatalf("meter moved backwards: %q", buf.String())
	}
	p(4, 10)
	if got := buf.String(); !strings.Contains(got, "x 4/10") {
		t.Fatalf("advance not painted: %q", got)
	}
}

func TestProgressPadsShrinkingLine(t *testing.T) {
	scriptClock(t, time.Second)
	var buf bytes.Buffer
	p := Progress(&buf, "y")
	p(1, 1000000) // long line (big ETA)
	first := lastRepaint(buf.String())
	p(999999, 1000000)
	second := lastRepaint(buf.String())
	if len(second) < len(first) {
		t.Fatalf("shorter repaint %q does not blank predecessor %q", second, first)
	}
}

// lastRepaint returns the final \r-delimited segment.
func lastRepaint(s string) string {
	parts := strings.Split(s, "\r")
	return parts[len(parts)-1]
}

func TestProgressConcurrent(t *testing.T) {
	var buf bytes.Buffer
	p := Progress(io.Discard, "c")
	_ = buf
	var wg sync.WaitGroup
	for i := 1; i <= 64; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			p(i, 64)
		}(i)
	}
	wg.Wait()
}

func TestPoolStatsAdd(t *testing.T) {
	a := PoolStats{WarmAcquires: 2, ColdAcquires: 1, BusySeconds: 0.5}
	a.Add(PoolStats{WarmAcquires: 3, ColdAcquires: 4, BusySeconds: 1.25})
	want := PoolStats{WarmAcquires: 5, ColdAcquires: 5, BusySeconds: 1.75}
	if a != want {
		t.Fatalf("got %+v, want %+v", a, want)
	}
}

func ExampleSnapshot_WritePrometheus() {
	snap := Snapshot{Engine: EngineStats{EventsScheduled: 2, EventsFired: 2}}
	var buf bytes.Buffer
	_ = snap.WritePrometheus(&buf)
	for _, line := range strings.SplitN(buf.String(), "\n", 4)[:3] {
		fmt.Println(line)
	}
	// Output:
	// # HELP repro_engine_events_scheduled_total Engine events scheduled across finished replications.
	// # TYPE repro_engine_events_scheduled_total counter
	// repro_engine_events_scheduled_total 2
}
