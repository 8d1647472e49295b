package sim

import "testing"

// TestStatsCounters drives every counter through its path: schedule,
// fire, cancel, and the pending high-water mark.
func TestStatsCounters(t *testing.T) {
	e := New()
	if (e.Stats() != Stats{}) {
		t.Fatalf("fresh engine has non-zero stats: %+v", e.Stats())
	}
	var evs []Event
	for i := 0; i < 5; i++ {
		ev, err := e.Schedule(float64(i+1), func() {})
		if err != nil {
			t.Fatal(err)
		}
		evs = append(evs, ev)
	}
	if s := e.Stats(); s.Scheduled != 5 || s.PendingHWM != 5 || s.Fired != 0 || s.Cancelled != 0 {
		t.Fatalf("after 5 schedules: %+v", s)
	}
	if !e.Cancel(evs[4]) {
		t.Fatal("cancel failed")
	}
	if e.Cancel(evs[4]) {
		t.Fatal("double-cancel succeeded")
	}
	e.RunAll()
	s := e.Stats()
	if s.Scheduled != 5 || s.Fired != 4 || s.Cancelled != 1 {
		t.Fatalf("after run: %+v", s)
	}
	if s.PendingHWM != 5 {
		t.Fatalf("HWM should keep its peak: %+v", s)
	}
	if got := s.Scheduled - s.Fired - s.Cancelled; got != 0 {
		t.Fatalf("drained engine still has %d derived-pending", got)
	}
}

// TestStatsHWMDerivation checks the HWM tracks the true pending count
// through interleaved schedule/fire/cancel sequences.
func TestStatsHWMDerivation(t *testing.T) {
	e := New()
	e.MustSchedule(1, func() {
		// At fire time one event is pending (this one popped, one left).
		e.MustSchedule(1, func() {}) // pending 2 again
	})
	ev := e.MustSchedule(2, func() {})
	e.Cancel(ev)
	e.MustSchedule(3, func() {})
	// Timeline of pending: 1, 2, (cancel) 1, 2 -> HWM 2.
	e.RunAll()
	if s := e.Stats(); s.PendingHWM != 2 {
		t.Fatalf("HWM = %d, want 2 (%+v)", s.PendingHWM, s)
	}
}

// TestStatsPromotion checks the auto engine's spread is counted once
// and a pinned queue (flat, or spread from the start) never spreads.
func TestStatsPromotion(t *testing.T) {
	auto := New()
	for i := 0; i <= promoteThreshold; i++ {
		auto.MustSchedule(float64(i), func() {})
	}
	if s := auto.Stats(); s.Promotions != 1 {
		t.Fatalf("auto promotions = %d, want 1", s.Promotions)
	}
	for _, kind := range []QueueKind{QueueHeap, QueueLadder} {
		e := NewWithQueue(kind)
		for i := 0; i <= promoteThreshold; i++ {
			e.MustSchedule(float64(i), func() {})
		}
		if s := e.Stats(); s.Promotions != 0 {
			t.Fatalf("%s promotions = %d, want 0", kind, s.Promotions)
		}
	}
}

// TestStatsReset checks Reset returns every counter to zero.
func TestStatsReset(t *testing.T) {
	e := New()
	ev := e.MustSchedule(1, func() {})
	e.MustSchedule(2, func() {})
	e.Cancel(ev)
	e.RunAll()
	e.Reset()
	if s := e.Stats(); s != (Stats{}) {
		t.Fatalf("stats survive Reset: %+v", s)
	}
}
