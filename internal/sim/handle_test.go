package sim

import (
	"math/rand"
	"reflect"
	"runtime"
	"testing"
	"unsafe"
	"weak"
)

// TestEventRecordPointerFree pins the queue record's layout: 24 bytes and
// no pointers, so the queue's storage stays out of GC scanning however
// many events are pending.
func TestEventRecordPointerFree(t *testing.T) {
	if size := unsafe.Sizeof(event{}); size != 24 {
		t.Errorf("event is %d bytes, want 24", size)
	}
	if typ := reflect.TypeOf(event{}); hasPointers(typ) {
		t.Errorf("%v holds a pointer; the queues' storage would be scanned by the GC", typ)
	}
}

// hasPointers reports whether a value of type typ holds anything the GC
// must trace.
func hasPointers(typ reflect.Type) bool {
	switch typ.Kind() {
	case reflect.Bool, reflect.Int, reflect.Int8, reflect.Int16, reflect.Int32, reflect.Int64,
		reflect.Uint, reflect.Uint8, reflect.Uint16, reflect.Uint32, reflect.Uint64, reflect.Uintptr,
		reflect.Float32, reflect.Float64, reflect.Complex64, reflect.Complex128:
		return false
	case reflect.Array:
		return typ.Len() > 0 && hasPointers(typ.Elem())
	case reflect.Struct:
		for i := 0; i < typ.NumField(); i++ {
			if hasPointers(typ.Field(i).Type) {
				return true
			}
		}
		return false
	default:
		return true
	}
}

// payloadBox is a payload large enough to get its own allocation, so a
// weak pointer to it observes exactly its own reachability.
type payloadBox struct{ buf [64]byte }

// scheduleBox schedules a fresh payload on cb and returns its handle and
// a weak pointer to it; the caller keeps no strong reference.
func scheduleBox(e *Engine, cb Callback, delay float64) (Event, weak.Pointer[payloadBox]) {
	p := &payloadBox{}
	return e.MustScheduleCall(delay, cb, p), weak.Make(p)
}

// TestPayloadReleased checks that the engine drops its reference to a
// MustScheduleCall payload once the event is done with: when it fires, when
// its cancelled tombstone surfaces, and at Reset.
func TestPayloadReleased(t *testing.T) {
	cases := []struct {
		name string
		run  func(e *Engine, cb Callback) weak.Pointer[payloadBox]
	}{
		{"fired", func(e *Engine, cb Callback) weak.Pointer[payloadBox] {
			_, w := scheduleBox(e, cb, 1)
			e.RunAll()
			return w
		}},
		{"tombstone surfaced", func(e *Engine, cb Callback) weak.Pointer[payloadBox] {
			ev, w := scheduleBox(e, cb, 1)
			e.Cancel(ev)
			e.MustScheduleCall(2, cb, nil)
			e.RunAll()
			return w
		}},
		{"reset", func(e *Engine, cb Callback) weak.Pointer[payloadBox] {
			_, w := scheduleBox(e, cb, 5)
			e.Run(1)
			e.Reset()
			return w
		}},
	}
	for _, k := range []struct {
		name string
		kind QueueKind
	}{{"auto", QueueAuto}, {"ladder", QueueLadder}} {
		for _, tc := range cases {
			t.Run(k.name+"/"+tc.name, func(t *testing.T) {
				e := NewWithQueue(k.kind)
				cb := e.Register(func(any) {})
				w := tc.run(e, cb)
				runtime.GC()
				if w.Value() != nil {
					t.Fatal("payload still reachable through the engine")
				}
				runtime.KeepAlive(e)
			})
		}
	}
}

// TestHandlesAfterTrailingDiscard covers tombstones that lie past the
// clock when control returns: a Step that discards one and drains the
// queue, and a Run that stops at its horizon with one next in line. A
// later event can then fire before the tombstone's time; its handle must
// read as pending, and the cancelled handles as dead.
func TestHandlesAfterTrailingDiscard(t *testing.T) {
	for _, kind := range []QueueKind{QueueLadder, QueueAuto} {
		t.Run(string(kind), func(t *testing.T) {
			e := NewWithQueue(kind)
			fired := 0
			count := func() { fired++ }

			dead := after(e, 5, count)
			e.Cancel(dead)
			if e.Step() {
				t.Fatal("Step fired a cancelled event")
			}
			ev := after(e, 3, count)
			if at, ok := e.EventTime(ev); !ok || at != 3 {
				t.Fatalf("EventTime after a draining Step = (%v, %v), want (3, true)", at, ok)
			}
			if e.Cancel(dead) {
				t.Fatal("Cancel of a discarded tombstone returned true")
			}

			dead = after(e, 4, count)
			late := after(e, 10, count)
			e.Cancel(dead)
			e.Run(3.5) // fires ev at 3; the tombstone at 4 is past the horizon
			mid := after(e, 0.25, count)
			if at, ok := e.EventTime(mid); !ok || at != 3.75 {
				t.Fatalf("EventTime after a horizon stop = (%v, %v), want (3.75, true)", at, ok)
			}
			if _, ok := e.EventTime(dead); ok {
				t.Fatal("a cancelled handle reads as pending")
			}
			e.RunAll()
			if fired != 3 || e.Now() != 10 {
				t.Fatalf("fired %d events, clock %v; want 3 and 10", fired, e.Now())
			}
			for _, h := range []Event{ev, dead, late, mid} {
				if e.Cancel(h) {
					t.Fatalf("Cancel(%+v) on a drained engine returned true", h)
				}
			}
			if p := e.Pending(); p != 0 {
				t.Fatalf("Pending = %d on a drained engine", p)
			}
		})
	}
}

// TestArgCallbacks checks the int32-argument layer: arguments arrive
// intact, in (time, seq) order, interleaved with payload callbacks.
func TestArgCallbacks(t *testing.T) {
	e := New()
	var got []int32
	argCB := e.RegisterArg(func(arg int32) { got = append(got, arg) })
	boxCB := e.Register(func(p any) { got = append(got, -p.(int32)) })
	e.MustScheduleArg(2, argCB, 7)
	e.MustScheduleCall(1, boxCB, int32(5))
	if _, err := e.CallArgAt(1, argCB, -3); err != nil {
		t.Fatal(err)
	}
	if _, err := e.CallArgAt(-1, argCB, 0); err == nil {
		t.Fatal("CallArgAt in the past succeeded")
	}
	e.RunAll()
	want := []int32{-5, -3, 7}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("fired %v, want %v", got, want)
	}
}

// TestSeqSetMatchesMap drives the tombstone set through random add and
// remove churn, growth included, against a Go map.
func TestSeqSetMatchesMap(t *testing.T) {
	r := rand.New(rand.NewSource(5))
	var s seqSet
	ref := map[uint64]bool{}
	for i := 0; i < 200000; i++ {
		seq := uint64(1 + r.Intn(3000))
		switch {
		case r.Intn(3) == 0:
			if s.remove(seq) != ref[seq] {
				t.Fatalf("op %d: remove(%d) disagrees with the map", i, seq)
			}
			delete(ref, seq)
		case !ref[seq]:
			s.add(seq)
			ref[seq] = true
		}
		if probe := uint64(1 + r.Intn(3000)); s.has(probe) != ref[probe] {
			t.Fatalf("op %d: has(%d) = %v, map says %v", i, probe, s.has(probe), ref[probe])
		}
		if s.n != len(ref) {
			t.Fatalf("op %d: %d entries, map holds %d", i, s.n, len(ref))
		}
	}
	s.reset()
	if s.n != 0 || s.has(1) {
		t.Fatal("reset left entries behind")
	}
}
