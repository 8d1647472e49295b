package sim

import (
	"errors"
	"math"
	"sort"
	"testing"
	"testing/quick"
)

// after schedules fn to run delay time units from now. It registers a
// one-event handler on the int32-argument path, so tests can write
// events as closures without the engine having a closure API.
func after(e *Engine, delay float64, fn func()) Event {
	return e.MustScheduleArg(delay, e.RegisterArg(func(int32) { fn() }), 0)
}

func TestEventsFireInTimeOrder(t *testing.T) {
	e := New()
	var got []float64
	for _, d := range []float64{5, 1, 3, 2, 4} {
		tm := d
		after(e, d, func() { got = append(got, tm) })
	}
	e.RunAll()
	if !sort.Float64sAreSorted(got) {
		t.Fatalf("events fired out of order: %v", got)
	}
	if len(got) != 5 {
		t.Fatalf("fired %d events, want 5", len(got))
	}
	if e.Now() != 5 {
		t.Fatalf("Now = %v, want 5", e.Now())
	}
}

func TestFIFOTieBreak(t *testing.T) {
	e := New()
	var got []int
	for i := 0; i < 10; i++ {
		i := i
		after(e, 1, func() { got = append(got, i) })
	}
	e.RunAll()
	for i, v := range got {
		if v != i {
			t.Fatalf("same-time events fired out of scheduling order: %v", got)
		}
	}
}

func TestScheduleFromCallback(t *testing.T) {
	e := New()
	var times []float64
	after(e, 1, func() {
		after(e, 1, func() { times = append(times, e.Now()) })
	})
	e.RunAll()
	if len(times) != 1 || times[0] != 2 {
		t.Fatalf("nested schedule fired at %v, want [2]", times)
	}
}

func TestRunHorizon(t *testing.T) {
	e := New()
	fired := 0
	after(e, 1, func() { fired++ })
	after(e, 10, func() { fired++ })
	e.Run(5)
	if fired != 1 {
		t.Fatalf("fired %d events before horizon, want 1", fired)
	}
	if e.Now() != 5 {
		t.Fatalf("Now = %v, want clamped to horizon 5", e.Now())
	}
	if e.Pending() != 1 {
		t.Fatalf("Pending = %d, want 1", e.Pending())
	}
	// A later Run picks up where the first stopped.
	e.Run(20)
	if fired != 2 {
		t.Fatalf("fired %d events after second run, want 2", fired)
	}
}

func TestSchedulePastRejected(t *testing.T) {
	e := New()
	after(e, 5, func() {})
	e.RunAll()
	cb := e.RegisterArg(func(int32) {})
	if _, err := e.CallArgAt(1, cb, 0); !errors.Is(err, ErrEventInPast) {
		t.Fatalf("CallArgAt(past) error = %v, want ErrEventInPast", err)
	}
	if _, err := e.CallArgAt(e.Now()-1, cb, 0); !errors.Is(err, ErrEventInPast) {
		t.Fatalf("CallArgAt(now-1) error = %v, want ErrEventInPast", err)
	}
	if _, err := e.CallArgAt(math.NaN(), cb, 0); !errors.Is(err, ErrEventInPast) {
		t.Fatalf("CallArgAt(NaN) error = %v, want ErrEventInPast", err)
	}
}

func TestMustSchedulePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("MustScheduleArg(-1) did not panic")
		}
	}()
	e := New()
	e.MustScheduleArg(-1, e.RegisterArg(func(int32) {}), 0)
}

func TestCancel(t *testing.T) {
	e := New()
	fired := false
	ev := after(e, 1, func() { fired = true })
	if !e.Cancel(ev) {
		t.Fatal("Cancel returned false for pending event")
	}
	if e.Cancel(ev) {
		t.Fatal("second Cancel returned true")
	}
	e.RunAll()
	if fired {
		t.Fatal("cancelled event fired")
	}
	if e.Cancel(Event{}) {
		t.Fatal("Cancel of the zero handle returned true")
	}
}

func TestCancelMiddleOfHeap(t *testing.T) {
	e := New()
	var got []float64
	var evs []Event
	for _, d := range []float64{4, 2, 6, 1, 5, 3} {
		tm := d
		ev := after(e, d, func() { got = append(got, tm) })
		evs = append(evs, ev)
	}
	e.Cancel(evs[0]) // cancel t=4
	e.Cancel(evs[2]) // cancel t=6
	e.RunAll()
	want := []float64{1, 2, 3, 5}
	if len(got) != len(want) {
		t.Fatalf("fired %v, want %v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("fired %v, want %v", got, want)
		}
	}
}

func TestFiredCounter(t *testing.T) {
	e := New()
	for i := 0; i < 17; i++ {
		after(e, float64(i), func() {})
	}
	e.RunAll()
	if e.Fired() != 17 {
		t.Fatalf("Fired = %d, want 17", e.Fired())
	}
}

func TestHeapPropertyRandomized(t *testing.T) {
	f := func(delays []uint16, cancelMask []bool) bool {
		e := New()
		var fired []float64
		var evs []Event
		for _, d := range delays {
			tm := float64(d % 1000)
			evs = append(evs, after(e, tm, func() { fired = append(fired, tm) }))
		}
		cancelled := 0
		for i, ev := range evs {
			if i < len(cancelMask) && cancelMask[i] {
				if e.Cancel(ev) {
					cancelled++
				}
			}
		}
		e.RunAll()
		if len(fired) != len(delays)-cancelled {
			return false
		}
		return sort.Float64sAreSorted(fired)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

func TestRegisteredCallbackPayload(t *testing.T) {
	e := New()
	type box struct{ v int }
	var got []int
	cb := e.Register(func(p any) { got = append(got, p.(*box).v) })
	payloads := []*box{{1}, {2}, {3}}
	for i, p := range payloads {
		if _, err := e.CallAt(float64(3-i), cb, p); err != nil {
			t.Fatal(err)
		}
	}
	e.RunAll()
	want := []int{3, 2, 1}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("payloads fired as %v, want %v", got, want)
		}
	}
}

func TestCancelAfterSlotReuse(t *testing.T) {
	// A handle to a fired event must stay dead even after a new event
	// takes its place in the queue: the sequence number, never reused,
	// is the identity.
	e := New()
	first := after(e, 1, func() {})
	e.RunAll() // fires `first`, freeing its slot
	secondFired := false
	after(e, 1, func() { secondFired = true })
	if e.Cancel(first) {
		t.Fatal("Cancel of a fired handle returned true after slot reuse")
	}
	e.RunAll()
	if !secondFired {
		t.Fatal("stale Cancel killed the slot's new occupant")
	}
}

func TestEventTime(t *testing.T) {
	e := New()
	ev := after(e, 7, func() {})
	if at, ok := e.EventTime(ev); !ok || at != 7 {
		t.Fatalf("EventTime = (%v, %v), want (7, true)", at, ok)
	}
	e.RunAll()
	if _, ok := e.EventTime(ev); ok {
		t.Fatal("EventTime reported a fired event as pending")
	}
	if _, ok := e.EventTime(Event{}); ok {
		t.Fatal("EventTime reported the zero handle as pending")
	}
}

func TestReset(t *testing.T) {
	e := New()
	stale := after(e, 5, func() { t.Fatal("event from before Reset fired") })
	after(e, 1, func() {})
	e.Run(0.5)
	e.Reset()
	if e.Now() != 0 || e.Pending() != 0 || e.Fired() != 0 {
		t.Fatalf("after Reset: Now=%v Pending=%d Fired=%d, want zeros",
			e.Now(), e.Pending(), e.Fired())
	}
	if e.Cancel(stale) {
		t.Fatal("Cancel of a pre-Reset handle returned true")
	}
	fired := 0
	e.MustScheduleArg(2, e.RegisterArg(func(int32) { fired++ }), 0)
	e.RunAll()
	if fired != 1 || e.Now() != 2 {
		t.Fatalf("after Reset: fired=%d Now=%v, want 1 and 2", fired, e.Now())
	}
}

// TestSteadyStateScheduleZeroAlloc pins the engine's core invariant:
// once the queue and payload arrays have grown to their working size,
// scheduling, firing, and cancelling events allocates nothing.
func TestSteadyStateScheduleZeroAlloc(t *testing.T) {
	e := New()
	var sink *payloadProbe
	cb := e.Register(func(p any) { sink = p.(*payloadProbe) })
	probe := &payloadProbe{}
	// Warm the queue, payload and free-list capacity.
	for i := 0; i < 256; i++ {
		e.MustScheduleCall(float64(i%16), cb, probe)
	}
	e.RunAll()

	allocs := testing.AllocsPerRun(1000, func() {
		for i := 0; i < 8; i++ {
			e.MustScheduleCall(float64(i%4), cb, probe)
		}
		ev := e.MustScheduleCall(1, cb, probe)
		e.Cancel(ev)
		e.RunAll()
	})
	if allocs != 0 {
		t.Fatalf("steady-state schedule/fire/cancel allocated %v times per run, want 0", allocs)
	}
	_ = sink
}

type payloadProbe struct{ n int }

func BenchmarkScheduleAndFire(b *testing.B) {
	b.ReportAllocs()
	e := New()
	cb := e.RegisterArg(func(int32) {})
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		e.MustScheduleArg(float64(i%64), cb, int32(i))
		if i%64 == 63 {
			e.RunAll()
		}
	}
	e.RunAll()
}

func BenchmarkScheduleCallAndFire(b *testing.B) {
	b.ReportAllocs()
	e := New()
	cb := e.Register(func(any) {})
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		e.MustScheduleCall(float64(i%64), cb, nil)
		if i%64 == 63 {
			e.RunAll()
		}
	}
	e.RunAll()
}
