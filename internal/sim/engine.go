// Package sim implements a deterministic discrete-event simulation engine:
// a simulation clock and a time-ordered event list with FIFO tie-breaking.
// It stands in for the DeNet simulation language the paper's simulator was
// written in: the paper's results depend only on the Table 1 queueing
// model (README, "Layout"), which this engine reproduces exactly.
//
// The engine is single-threaded and callback-based. Determinism matters
// more than raw parallelism here: every experiment must be a pure function
// of (configuration, seed) so that results are reproducible and tests can
// assert exact task counts. Events scheduled for the same instant fire in
// scheduling order.
//
// The implementation is built for paper-scale horizons (millions of events
// per replication) and for large topologies: events are stored by value
// and recycled through an engine-owned free list, so steady-state
// scheduling performs zero heap allocations, and the pending-event
// structure sits behind an eventQueue seam with two implementations that
// pop in exactly the same (time, seq) order — the reference binary heap
// and a two-level ladder queue whose O(1) amortized schedule/pop wins at
// large pending-event counts (see QueueKind). Hot callers register a
// Callback once and schedule with a payload word (ScheduleCall) instead
// of allocating a capturing closure per event; the closure-based
// Schedule/At remain for one-shot and test use.
package sim

import (
	"errors"
	"fmt"
	"math"
)

// ErrEventInPast is returned when scheduling an event before the current
// simulation time.
var ErrEventInPast = errors.New("sim: event scheduled in the past")

// Callback identifies a handler registered with Register. Callbacks are
// bound once per simulation entity (a node's completion handler, a
// source's arrival handler) and invoked with the payload passed at
// scheduling time, which removes the per-event closure allocation.
type Callback int32

// Event is a generation-counted handle to a scheduled event, returned by
// the scheduling methods so callers can Cancel before it fires. It is a
// small value, valid only for the engine that issued it. The zero Event is
// not a valid handle; cancelling it is a harmless no-op. Once the event
// fires or is cancelled its slot may be reused, but the generation counter
// makes a stale handle's Cancel a safe no-op rather than a misdirected
// cancellation.
type Event struct {
	slot int32 // slot index + 1; 0 marks the zero (invalid) handle
	gen  uint32
}

// Event-record packing: the in-queue representation is 16 bytes — the
// fire time plus one word carrying the FIFO sequence number in the high
// bits and the slot index in the low bits. Sequence numbers are unique,
// so comparing packed words orders events exactly like comparing
// sequence numbers; the slot bits never influence the outcome. The
// payload and callback live in the slot table instead of the event, so
// the structures that move events around (heap sifts, ladder rung
// spreads) copy pointer-free 16-byte records and the pending set stays
// cache-resident at large topologies.
const (
	// eventSlotBits is the width of the slot field: up to ~4.2M
	// simultaneously pending events.
	eventSlotBits = 22
	eventSlotMask = 1<<eventSlotBits - 1
	// eventMaxSeq bounds the total events of one run (~4.4e12 — two
	// orders of magnitude beyond a 1M-horizon 65536-node run).
	eventMaxSeq = 1<<(64-eventSlotBits) - 1
)

// PendingCapacity is the most events one engine can hold pending at
// once, counting the tombstones of cancelled events that have not yet
// surfaced. Scheduling past it panics, so callers whose models can
// approach it must bound their size up front.
const PendingCapacity = 1 << eventSlotBits

// event is the in-queue representation, stored by value.
type event struct {
	time   float64
	packed uint64 // seq<<eventSlotBits | slot
}

// slotIdx extracts the event's slot index.
func (ev event) slotIdx() int32 { return int32(ev.packed & eventSlotMask) }

// slotRec tracks one recyclable event slot: the generation its current
// handle must match, the bound callback to fire, and the payload it
// fires with. The payload lives in the record rather than a parallel
// slice on purpose: by fire time the slot's line has long left the
// cache (the slot was written when the event was scheduled, tens of
// thousands of events earlier), so Step pays one cold line for the
// whole record instead of two for slot-plus-payload.
//
// The record deliberately carries no queue-position bookkeeping.
// Cancellation is by tombstone (see Cancel): the cancelled event stays
// in the queue under a dead marker and is discarded when it surfaces,
// so the queues never need to locate an arbitrary slot — and therefore
// never write position updates back to the slot table as events move
// between tiers or sift within a heap. Those writes were one cold
// cache line per event movement at large topologies; removing them is
// worth far more than the tombstones' transient queue residency costs.
type slotRec struct {
	gen     uint32
	cb      Callback
	payload any
	// Pad to 32 bytes so records never straddle cache lines: the fire-
	// time slot read is cold, and an even divisor of the line keeps it
	// to exactly one line per event.
	_ [8]byte
}

// deadCallback marks a tombstoned (cancelled) slot; the queues discard
// its event instead of firing it.
const deadCallback Callback = -1

// Engine is a discrete-event simulator. The zero value is not usable;
// create one with New.
type Engine struct {
	now     float64
	seq     uint64
	fired   uint64
	stopped bool

	// Instrumentation counters, all maintained as plain fields on paths
	// the engine already owns (no atomics, no callbacks): cancelled and
	// promotions count successful Cancels and heap→ladder migrations;
	// pendingHWM tracks the deepest the pending set ever got, derived as
	// seq−fired−cancelled so the ladder's O(rungs) size() stays off the
	// schedule path. Stats() exposes them; Reset zeroes them.
	cancelled  uint64
	promotions uint64
	pendingHWM uint64

	// The active queue is lad when non-nil, the binary heap otherwise;
	// hot paths dispatch with that one branch instead of an interface
	// call. kind is the configured QueueKind (QueueAuto promotes
	// heap -> ladder lazily, see maybePromote). ladCache keeps a
	// promoted-then-Reset auto engine's ladder warm so the next run's
	// promotion reuses its rung arrays instead of reallocating.
	heap     []event
	lad      *ladderQueue
	ladCache *ladderQueue
	kind     QueueKind

	slots     []slotRec
	freeSlots []int32
	callbacks []func(any)
}

// runClosure is the pre-registered callback backing the closure-based
// scheduling API: the payload is the func() itself.
func runClosure(payload any) { payload.(func())() }

// funcCallback is the reserved Callback id of runClosure.
const funcCallback Callback = 0

// New returns an engine with the clock at zero and the default
// (QueueAuto) event queue.
func New() *Engine {
	return NewWithQueue(QueueAuto)
}

// NewWithQueue returns an engine using the given event-queue kind.
// Results are byte-identical across kinds; see QueueKind for the
// performance trade-offs. An unknown kind panics — validate user input
// with ParseQueueKind first.
func NewWithQueue(kind QueueKind) *Engine {
	e := &Engine{}
	e.callbacks = append(e.callbacks, runClosure)
	e.setQueueKind(kind)
	return e
}

// setQueueKind installs the empty queue for kind.
func (e *Engine) setQueueKind(kind QueueKind) {
	switch kind {
	case QueueAuto, QueueHeap:
		e.lad = nil
	case QueueLadder:
		e.lad = newLadderQueue(e)
	default:
		panic(fmt.Sprintf("sim: unknown queue kind %q", kind))
	}
	e.kind = kind
}

// QueueKind reports the queue implementation currently in use ("heap" or
// "ladder") — under QueueAuto this flips to "ladder" once the engine
// promotes.
func (e *Engine) QueueKind() QueueKind {
	if e.lad != nil {
		return QueueLadder
	}
	return QueueHeap
}

// maybePromote switches an auto-mode engine from the heap to the ladder
// once the pending count crosses promoteThreshold. The migration moves
// every pending event once; pop order (and therefore every simulation
// result) is unaffected.
func (e *Engine) promote() {
	lad := e.ladCache
	if lad == nil {
		lad = newLadderQueue(e)
	}
	e.ladCache = nil
	for i := range e.heap {
		lad.push(e.heap[i])
	}
	e.heap = e.heap[:0]
	e.lad = lad
	e.promotions++
}

// Queue dispatch helpers for the cold paths; the hot paths (CallAt,
// Step, Run) branch on e.lad inline.

func (e *Engine) qTimeOf(slot int32) (float64, bool) {
	if e.lad != nil {
		return e.lad.timeOf(slot)
	}
	return e.heapTimeOf(slot)
}

func (e *Engine) qSize() int {
	if e.lad != nil {
		return e.lad.size()
	}
	return len(e.heap)
}

func (e *Engine) qReset() {
	if e.lad != nil {
		e.lad.reset()
		return
	}
	e.heapReset()
}

// Reset returns the engine to its initial state — clock at zero, no
// pending events, no registered callbacks — while keeping the capacity of
// its internal buffers, so a reused engine reaches steady state without
// re-growing its queue and slot arrays. Handles issued before the reset
// are invalidated. A promoted QueueAuto engine demotes back to the heap
// (keeping the ladder cached for the next promotion), so every run's
// queue trajectory — including the Stats promotion counter — is a pure
// function of (configuration, seed), not of what the workspace ran
// before; queue choice never affects results either way.
func (e *Engine) Reset() {
	e.now, e.seq, e.fired, e.stopped = 0, 0, 0, false
	e.cancelled, e.promotions, e.pendingHWM = 0, 0, 0
	e.qReset()
	if e.kind == QueueAuto && e.lad != nil {
		e.ladCache, e.lad = e.lad, nil
	}
	e.freeSlots = e.freeSlots[:0]
	for i := range e.slots {
		e.slots[i].gen++ // stale handles from the previous run go dead
		e.slots[i].cb = 0
		e.slots[i].payload = nil // release payload references
		e.freeSlots = append(e.freeSlots, int32(i))
	}
	for i := range e.callbacks {
		e.callbacks[i] = nil // release closure references
	}
	e.callbacks = append(e.callbacks[:0], runClosure)
}

// Register binds fn as a reusable event handler and returns its Callback
// id. Registration is meant to happen once per simulation entity at setup
// time; the returned id is then scheduled with ScheduleCall and friends.
func (e *Engine) Register(fn func(payload any)) Callback {
	if fn == nil {
		panic("sim: Register(nil)")
	}
	e.callbacks = append(e.callbacks, fn)
	return Callback(len(e.callbacks) - 1)
}

// Now returns the current simulation time.
func (e *Engine) Now() float64 { return e.now }

// Fired returns the number of events executed so far. Useful for
// instrumentation and tests.
func (e *Engine) Fired() uint64 { return e.fired }

// Pending returns the number of events currently scheduled. Cancelled
// events are not pending, even while their tombstones await discard
// inside the queue structures.
func (e *Engine) Pending() int { return int(e.seq - e.fired - e.cancelled) }

// Stats is a snapshot of the engine's event counters since the last
// Reset. Scheduled−Fired−Cancelled is the pending count; PendingHWM is
// the deepest that count ever got.
type Stats struct {
	Scheduled  uint64
	Fired      uint64
	Cancelled  uint64
	Promotions uint64
	PendingHWM uint64
}

// Stats returns the engine's counter snapshot. It is a pure function of
// the event sequence, so for a full replication it is deterministic in
// (configuration, seed) — with the one caveat that Promotions also
// depends on the configured QueueKind (auto promotes, pinned kinds
// never do), which never affects simulation results.
func (e *Engine) Stats() Stats {
	return Stats{
		Scheduled:  e.seq,
		Fired:      e.fired,
		Cancelled:  e.cancelled,
		Promotions: e.promotions,
		PendingHWM: e.pendingHWM,
	}
}

// Schedule registers fn to run after delay time units. A negative or NaN
// delay returns ErrEventInPast. Each call allocates a closure; hot paths
// should use Register + ScheduleCall instead.
func (e *Engine) Schedule(delay float64, fn func()) (Event, error) {
	return e.At(e.now+delay, fn)
}

// MustSchedule is Schedule for delays the caller has already validated;
// it panics on a negative or NaN delay, which indicates a model bug.
func (e *Engine) MustSchedule(delay float64, fn func()) Event {
	ev, err := e.Schedule(delay, fn)
	if err != nil {
		panic(fmt.Sprintf("sim: MustSchedule(%v): %v", delay, err))
	}
	return ev
}

// At registers fn to run at absolute simulation time t. Scheduling in the
// past (or NaN) returns ErrEventInPast.
func (e *Engine) At(t float64, fn func()) (Event, error) {
	return e.CallAt(t, funcCallback, fn)
}

// ScheduleCall schedules the registered callback cb to fire with payload
// after delay time units. It performs no heap allocation: the event lives
// by value in the engine's queue and payload is carried as-is (a pointer
// payload does not escape to the heap).
func (e *Engine) ScheduleCall(delay float64, cb Callback, payload any) (Event, error) {
	return e.CallAt(e.now+delay, cb, payload)
}

// MustScheduleCall is ScheduleCall for delays the caller has already
// validated; it panics on a negative or NaN delay.
func (e *Engine) MustScheduleCall(delay float64, cb Callback, payload any) Event {
	ev, err := e.CallAt(e.now+delay, cb, payload)
	if err != nil {
		panic(fmt.Sprintf("sim: MustScheduleCall(%v): %v", delay, err))
	}
	return ev
}

// CallAt schedules the registered callback cb to fire with payload at
// absolute simulation time t. Scheduling in the past (or NaN) returns
// ErrEventInPast; an unregistered cb panics at fire time.
func (e *Engine) CallAt(t float64, cb Callback, payload any) (Event, error) {
	if math.IsNaN(t) || t < e.now {
		return Event{}, fmt.Errorf("%w: at %v, now %v", ErrEventInPast, t, e.now)
	}
	if e.seq >= eventMaxSeq {
		// ~4.4e12 events: unreachable in practice, but the packed order
		// would silently wrap, so fail loudly instead.
		panic("sim: event sequence space exhausted")
	}
	slot := e.takeSlot()
	s := &e.slots[slot]
	s.cb = cb
	s.payload = payload
	ev := event{time: t, packed: e.seq<<eventSlotBits | uint64(slot)}
	e.seq++
	// seq−fired−cancelled is the pending count after this push; tracking
	// the high-water mark this way costs two ALU ops and a predictable
	// branch instead of a queue-size call (O(rungs) on the ladder).
	if pending := e.seq - e.fired - e.cancelled; pending > e.pendingHWM {
		e.pendingHWM = pending
	}
	if e.lad != nil {
		e.lad.push(ev)
	} else {
		e.heapPush(ev)
		// Auto mode promotes to the ladder once the pending count
		// crosses the large-topology threshold; the migration moves
		// every pending event once and never changes pop order.
		if e.kind == QueueAuto && len(e.heap) > promoteThreshold {
			e.promote()
		}
	}
	return Event{slot: slot + 1, gen: e.slots[slot].gen}, nil
}

// Cancel removes a pending event. Cancelling an already-fired,
// already-cancelled, or zero handle is a no-op and reports false.
//
// The removal is lazy: the slot is tombstoned in place and the queued
// event is discarded when it reaches the head of the queue, never
// fired. Cancel is therefore O(1) regardless of where the event sits,
// and the queues carry no per-event position index. The slot itself is
// recycled when the tombstone surfaces (or at Reset).
func (e *Engine) Cancel(ev Event) bool {
	i := int(ev.slot) - 1
	if i < 0 || i >= len(e.slots) || e.slots[i].gen != ev.gen {
		return false
	}
	s := &e.slots[i]
	s.gen++ // the handle (and any copy of it) is dead from here on
	s.cb = deadCallback
	s.payload = nil
	e.cancelled++
	return true
}

// EventTime returns the simulation time a pending event will fire at, and
// whether the handle still refers to a pending event. It is a
// diagnostic: the queues keep no per-slot position index, so the lookup
// scans the pending set — O(pending), fine for tests and debugging,
// not for hot paths.
func (e *Engine) EventTime(ev Event) (float64, bool) {
	i := int(ev.slot) - 1
	if i < 0 || i >= len(e.slots) || e.slots[i].gen != ev.gen {
		return 0, false
	}
	return e.qTimeOf(int32(i))
}

// Step executes the next pending event, advancing the clock to its time.
// It reports whether an event was executed. Tombstones of cancelled
// events are discarded silently on the way — they advance neither the
// clock nor the fired counter.
func (e *Engine) Step() bool {
	if e.lad != nil {
		return e.stepLadder()
	}
	for len(e.heap) > 0 {
		ev := e.heap[0]
		slot := ev.slotIdx()
		cb := e.slots[slot].cb
		payload := e.slots[slot].payload
		// Release the slot before invoking so the callback can schedule
		// into it; the generation bump makes the fired event's handle
		// stale.
		e.releaseSlot(slot)
		e.heapRemoveAt(0)
		if cb == deadCallback {
			continue
		}
		e.now = ev.time
		e.fired++
		e.callbacks[cb](payload)
		return true
	}
	return false
}

// stepLadder is Step's ladder-queue path.
func (e *Engine) stepLadder() bool {
	for {
		ev, ok := e.lad.pop()
		if !ok {
			return false
		}
		slot := ev.slotIdx()
		cb := e.slots[slot].cb
		payload := e.slots[slot].payload
		e.releaseSlot(slot)
		if cb == deadCallback {
			continue
		}
		e.now = ev.time
		e.fired++
		e.callbacks[cb](payload)
		return true
	}
}

// peekLive returns the next live event's fire time, discarding any
// tombstones of cancelled events that have reached the queue's head.
func (e *Engine) peekLive() (float64, bool) {
	for {
		var (
			ev event
			ok bool
		)
		if e.lad != nil {
			ev, ok = e.lad.peekEvent()
		} else if len(e.heap) > 0 {
			ev, ok = e.heap[0], true
		}
		if !ok {
			return 0, false
		}
		slot := ev.slotIdx()
		if e.slots[slot].cb != deadCallback {
			return ev.time, true
		}
		e.releaseSlot(slot)
		if e.lad != nil {
			e.lad.pop()
		} else {
			e.heapRemoveAt(0)
		}
	}
}

// Run executes events in time order until the event list is empty, Stop is
// called, or the next event lies strictly beyond horizon (that event stays
// pending for a later Run). If the list drains before horizon the clock is
// clamped up to exactly horizon, so Now() == horizon after any bounded run
// that was not stopped early.
func (e *Engine) Run(horizon float64) {
	e.stopped = false
	for !e.stopped {
		next, ok := e.peekLive()
		if !ok || next > horizon {
			break
		}
		e.Step()
	}
	if e.now < horizon && !e.stopped {
		e.now = horizon
	}
}

// RunAll executes events until none remain or Stop is called.
func (e *Engine) RunAll() {
	e.stopped = false
	for !e.stopped && e.Step() {
	}
}

// Stop makes the innermost Run/RunAll return after the current event's
// callback completes. It is intended to be called from within a callback.
func (e *Engine) Stop() { e.stopped = true }

// takeSlot pops a free slot or grows the slot table.
func (e *Engine) takeSlot() int32 {
	if n := len(e.freeSlots); n > 0 {
		slot := e.freeSlots[n-1]
		e.freeSlots = e.freeSlots[:n-1]
		return slot
	}
	if len(e.slots) >= PendingCapacity {
		panic("sim: pending-event slot space exhausted (PendingCapacity events simultaneously pending)")
	}
	e.slots = append(e.slots, slotRec{})
	return int32(len(e.slots) - 1)
}

// releaseSlot retires a slot's current generation, drops its payload
// reference, and returns it to the free list.
func (e *Engine) releaseSlot(slot int32) {
	s := &e.slots[slot]
	s.gen++
	s.cb = 0
	s.payload = nil
	e.freeSlots = append(e.freeSlots, slot)
}
