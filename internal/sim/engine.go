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
// per replication) and for large topologies. An event is one 24-byte,
// pointer-free record — fire time, sequence number, callback id and a
// 32-bit argument — stored by value in the pending-event structure, so
// firing an event reads the record and nothing else, and steady-state
// scheduling performs zero heap allocations. The pending events live in
// one ladder queue (ladder.go): while few are queued it is flat, a run
// sorted by (time, seq) that a pop advances and a push inserts into from
// the back; once more than promoteThreshold are queued it spreads into
// bucketed rungs whose amortized O(1) schedule/pop wins at large
// pending-event counts. Either way events pop in exactly the same
// (time, seq) order.
//
// Hot callers register a func(int32) handler once (RegisterArg) and
// schedule it with the index of the entity it acts on (MustScheduleArg,
// CallArgAt). Register/ScheduleCall carry an arbitrary payload instead,
// parked in a side table that the argument indexes; the closure-based
// Schedule/At sit on that layer for one-shot and test use.
package sim

import (
	"errors"
	"fmt"
	"math"
	"math/bits"
)

// ErrEventInPast is returned when scheduling an event before the current
// simulation time.
var ErrEventInPast = errors.New("sim: event scheduled in the past")

// Callback identifies a handler registered with Register or RegisterArg.
// Callbacks are bound once per simulation entity kind (the nodes'
// completion handler, the arrival handler) and invoked with the argument
// or payload passed at scheduling time, which removes the per-event
// closure allocation.
type Callback int32

// Event is a handle to a scheduled event, returned by the scheduling
// methods so callers can Cancel it before it fires. It is a small value,
// valid only for the engine that issued it. Sequence numbers count over
// the engine's lifetime and are never reused, so a handle names one event
// forever: once that event fires or is cancelled, or the engine is Reset,
// the handle is stale and Cancel and EventTime treat it as a no-op. The
// zero Event is never issued and is always stale.
type Event struct {
	time float64
	seq  uint64
}

// PendingCapacity is the most events one engine holds pending at once.
// It bounds the int32 argument and payload-index space and the queue's
// memory; scheduling past it panics, so callers whose models can
// approach it must bound their size up front.
const PendingCapacity = 1 << 22

// event is the in-queue representation, stored by value: ordered by
// (time, seq), and carrying the callback to fire and its argument.
type event struct {
	time float64
	seq  uint64
	cb   Callback
	arg  int32
}

// before reports whether event a fires before event b: earlier time, or
// FIFO order at equal times.
func before(a, b *event) bool {
	if a.time != b.time {
		return a.time < b.time
	}
	return a.seq < b.seq
}

// handler is one registered callback: fn for a RegisterArg handler, or
// boxed for a Register handler, whose argument indexes the payload
// table.
type handler struct {
	fn    func(arg int32)
	boxed func(payload any)
}

// Engine is a discrete-event simulator. The zero value is not usable;
// create one with New.
type Engine struct {
	now     float64
	fired   uint64
	stopped bool

	// seq is the next sequence number to issue; it starts at 1 and is
	// never reset. base is seq at the last Reset, so seq−base events were
	// scheduled this run. Pops come out in increasing (time, seq) order
	// (see next), so an issued event is pending exactly when its seq is
	// at least floor — no older event is pending, because the queue
	// drained or the engine was Reset once they were all issued — its
	// key is above last, the key of the most recently popped record
	// (fired or discarded), and it is not in dead, the set of cancelled
	// events whose records are still queued.
	seq, base, floor uint64
	last             event
	dead             seqSet

	// Instrumentation counters, all maintained as plain fields on paths
	// the engine already owns (no atomics, no callbacks): cancelled
	// counts successful Cancels; pendingHWM tracks the deepest the
	// pending set ever got, derived as scheduled−fired−cancelled so no
	// queue-size walk sits on the schedule path. The queue counts its
	// own spreads. Stats() exposes them; Reset zeroes them.
	cancelled  uint64
	pendingHWM uint64

	// q holds every pending event; kind is the QueueKind it is reset
	// to.
	q    ladderQueue
	kind QueueKind

	handlers []handler

	// payloads parks the non-nil payloads of Register-handler events
	// until they fire or their tombstones surface; freePayloads lists
	// the unused entries.
	payloads     []any
	freePayloads []int32
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

// NewWithQueue returns an engine whose queue follows the given kind.
// Results are byte-identical across kinds; the pinned kinds are
// references for tests and benchmarks. An unknown kind panics.
func NewWithQueue(kind QueueKind) *Engine {
	e := &Engine{seq: 1, base: 1, floor: 1, q: ladderQueue{runMax: nearRunMax, free: -1}, kind: kind}
	e.handlers = append(e.handlers, handler{boxed: runClosure})
	e.q.reset(kind)
	return e
}

// Reset returns the engine to its initial state — clock at zero, no
// pending events, no registered callbacks — while keeping the capacity of
// its internal buffers, so a reused engine reaches steady state without
// re-growing its queue arrays. Handles issued before the reset are
// stale: their sequence numbers lie below the new run's. The queue goes
// back to its initial shape (flat, for QueueAuto) in place, so every
// run's queue trajectory — including the Stats spread counter — is a
// pure function of (configuration, seed), not of what the workspace ran
// before, while a re-spread reuses the rung arrays of earlier runs.
func (e *Engine) Reset() {
	e.now, e.fired, e.stopped = 0, 0, false
	e.base, e.floor, e.last = e.seq, e.seq, event{}
	e.dead.reset()
	e.cancelled, e.pendingHWM = 0, 0
	e.q.reset(e.kind)
	clear(e.payloads) // release payload references
	e.payloads, e.freePayloads = e.payloads[:0], e.freePayloads[:0]
	clear(e.handlers) // release closure references
	e.handlers = append(e.handlers[:0], handler{boxed: runClosure})
}

// Register binds fn as a reusable event handler that receives the
// payload passed to ScheduleCall, MustScheduleCall or CallAt, and
// returns its Callback id. Registration is meant to happen once per
// simulation entity at setup time.
func (e *Engine) Register(fn func(payload any)) Callback {
	if fn == nil {
		panic("sim: Register(nil)")
	}
	e.handlers = append(e.handlers, handler{boxed: fn})
	return Callback(len(e.handlers) - 1)
}

// RegisterArg binds fn as a reusable event handler that receives the
// int32 argument passed to MustScheduleArg or CallArgAt — typically the
// index of the entity the event acts on — and returns its Callback id.
// Firing such an event reads nothing but the queued record.
func (e *Engine) RegisterArg(fn func(arg int32)) Callback {
	if fn == nil {
		panic("sim: RegisterArg(nil)")
	}
	e.handlers = append(e.handlers, handler{fn: fn})
	return Callback(len(e.handlers) - 1)
}

// Now returns the current simulation time.
func (e *Engine) Now() float64 { return e.now }

// Fired returns the number of events executed so far. Useful for
// instrumentation and tests.
func (e *Engine) Fired() uint64 { return e.fired }

// Pending returns the number of events currently scheduled. Cancelled
// events are not pending, even while their tombstones await discard
// inside the queue structures.
func (e *Engine) Pending() int { return int(e.seq - e.base - e.fired - e.cancelled) }

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
// (configuration, seed). Promotions counts the default engine's
// near-tier spreads (at most one a run), which the pending count
// decides; an engine pinned to one kind (NewWithQueue) never spreads,
// and no kind affects simulation results.
func (e *Engine) Stats() Stats {
	return Stats{
		Scheduled:  e.seq - e.base,
		Fired:      e.fired,
		Cancelled:  e.cancelled,
		Promotions: e.q.spreads,
		PendingHWM: e.pendingHWM,
	}
}

// Schedule registers fn to run after delay time units. A negative or NaN
// delay returns ErrEventInPast. Each call allocates a closure; hot paths
// should use RegisterArg + MustScheduleArg instead.
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

// ScheduleCall schedules the Register callback cb to fire with payload
// after delay time units. A nil payload touches no side table; a
// non-nil one is parked in the engine's payload table until the event
// fires or its tombstone surfaces, which allocates nothing once the
// table has grown to the run's working size.
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

// CallAt schedules the Register callback cb to fire with payload at
// absolute simulation time t. Scheduling in the past (or NaN) returns
// ErrEventInPast; an unregistered cb panics at fire time.
func (e *Engine) CallAt(t float64, cb Callback, payload any) (Event, error) {
	if err := e.checkTime(t); err != nil {
		return Event{}, err
	}
	return e.push(t, cb, e.box(payload)), nil
}

// MustScheduleArg schedules the RegisterArg callback cb to fire with arg
// after delay time units; it panics on a negative or NaN delay.
func (e *Engine) MustScheduleArg(delay float64, cb Callback, arg int32) Event {
	ev, err := e.CallArgAt(e.now+delay, cb, arg)
	if err != nil {
		panic(fmt.Sprintf("sim: MustScheduleArg(%v): %v", delay, err))
	}
	return ev
}

// CallArgAt schedules the RegisterArg callback cb to fire with arg at
// absolute simulation time t. Scheduling in the past (or NaN) returns
// ErrEventInPast; an unregistered cb panics at fire time.
func (e *Engine) CallArgAt(t float64, cb Callback, arg int32) (Event, error) {
	if err := e.checkTime(t); err != nil {
		return Event{}, err
	}
	return e.push(t, cb, arg), nil
}

// checkTime rejects a fire time in the past or NaN.
func (e *Engine) checkTime(t float64) error {
	if math.IsNaN(t) || t < e.now {
		return fmt.Errorf("%w: at %v, now %v", ErrEventInPast, t, e.now)
	}
	return nil
}

// push queues a validated event and returns its handle.
func (e *Engine) push(t float64, cb Callback, arg int32) Event {
	ev := event{time: t, seq: e.seq, cb: cb, arg: arg}
	e.seq++
	// scheduled−fired−cancelled is the pending count after this push;
	// tracking the high-water mark (and the capacity limit, which only a
	// new high can cross) this way costs a few ALU ops and a predictable
	// branch instead of a queue-size walk.
	if pending := e.seq - e.base - e.fired - e.cancelled; pending > e.pendingHWM {
		if pending > PendingCapacity {
			panic("sim: pending-event space exhausted (PendingCapacity events simultaneously pending)")
		}
		e.pendingHWM = pending
	}
	// The near tier's common case is tested here, which saves a call on
	// every push to a flat queue; ladderQueue.push handles the rest.
	if q := &e.q; t < q.nearEnd && len(q.run) < q.runFast && len(q.heap) == 0 {
		q.runInsertNewest(ev)
	} else {
		q.push(ev)
	}
	return Event{time: t, seq: ev.seq}
}

// box parks a Register-handler payload and returns the argument that
// indexes it; a nil payload is argument -1 and touches no table.
func (e *Engine) box(payload any) int32 {
	if payload == nil {
		return -1
	}
	if n := len(e.freePayloads); n > 0 {
		i := e.freePayloads[n-1]
		e.freePayloads = e.freePayloads[:n-1]
		e.payloads[i] = payload
		return i
	}
	e.payloads = append(e.payloads, payload)
	return int32(len(e.payloads) - 1)
}

// unbox takes back the payload box parked under arg, releasing its
// entry.
func (e *Engine) unbox(arg int32) any {
	if arg < 0 {
		return nil
	}
	p := e.payloads[arg]
	e.payloads[arg] = nil
	e.freePayloads = append(e.freePayloads, arg)
	return p
}

// pending reports whether ev names an event that is still scheduled:
// issued this run and not older than the last drain, not yet popped,
// and not cancelled.
func (e *Engine) pending(ev Event) bool {
	dead := e.dead.has(ev.seq)
	return ev.seq >= e.floor && ev.seq < e.seq &&
		(ev.time > e.last.time || ev.time == e.last.time && ev.seq > e.last.seq) && !dead
}

// Cancel removes a pending event. Cancelling an already-fired,
// already-cancelled, pre-Reset or zero handle is a no-op and reports
// false.
//
// The removal is lazy: the event's sequence number joins a tombstone
// set, and its queued record is discarded when it reaches the head of
// the queue, never fired. Cancel is therefore O(1) regardless of where
// the event sits, and the queues carry no per-event position index. A
// cancelled event's payload is released when its tombstone surfaces
// (or at Reset).
func (e *Engine) Cancel(ev Event) bool {
	if !e.pending(ev) {
		return false
	}
	e.dead.add(ev.seq)
	e.cancelled++
	return true
}

// EventTime returns the simulation time a pending event will fire at, and
// whether the handle still refers to a pending event. It is O(1): the
// handle carries the time.
func (e *Engine) EventTime(ev Event) (float64, bool) {
	if !e.pending(ev) {
		return 0, false
	}
	return ev.time, true
}

// next pops the earliest live event due at or before limit, discarding
// the tombstones of cancelled events on the way. A record past limit
// stays queued. Every caller either fires the event returned or, when
// there is none, leaves the clock at least at limit or finds the queue
// drained — so every popped record lies at or before the clock by the
// time anything can schedule again, and since a new event fires no
// earlier than the clock and carries the largest seq yet, pops come out
// in increasing (time, seq) order. That is what lets the key of the
// last popped record stand in for every fired or discarded event in
// pending. On a drain the trailing discards may lie past the clock, so
// floor retires every issued event instead and last starts over.
func (e *Engine) next(limit float64) (event, bool) {
	q := &e.q
	for len(q.run) > 0 || q.fill() {
		ev := q.run[0]
		if ev.time > limit {
			return event{}, false
		}
		q.run = q.run[1:]
		e.last = ev
		if e.dead.n == 0 || !e.dead.remove(ev.seq) {
			return ev, true
		}
		if e.handlers[ev.cb].fn == nil {
			e.unbox(ev.arg) // release a cancelled payload
		}
	}
	e.floor, e.last = e.seq, event{}
	return event{}, false
}

// fire advances the clock to ev and invokes its handler.
func (e *Engine) fire(ev event) {
	e.now = ev.time
	e.fired++
	if h := &e.handlers[ev.cb]; h.fn != nil {
		h.fn(ev.arg)
	} else {
		h.boxed(e.unbox(ev.arg))
	}
}

// Step executes the next pending event, advancing the clock to its time.
// It reports whether an event was executed. Tombstones of cancelled
// events are discarded silently on the way — they advance neither the
// clock nor the fired counter.
func (e *Engine) Step() bool {
	ev, ok := e.next(math.Inf(1))
	if ok {
		e.fire(ev)
	}
	return ok
}

// Run executes events in time order until the event list is empty, Stop is
// called, or the next event lies strictly beyond horizon (that event stays
// pending for a later Run). If the list drains before horizon the clock is
// clamped up to exactly horizon, so Now() == horizon after any bounded run
// that was not stopped early.
func (e *Engine) Run(horizon float64) {
	e.stopped = false
	for !e.stopped {
		ev, ok := e.next(horizon)
		if !ok {
			break
		}
		e.fire(ev)
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

// seqSet is the tombstone set: the sequence numbers of cancelled events
// whose records are still queued. It is an open-addressing hash set
// with linear probing and backward-shift deletion, which leaves no
// deleted markers behind, so its table grows only when the count of
// outstanding tombstones reaches a new high and it allocates nothing
// until the first Cancel. A Go map under the same insert/delete churn
// reallocated its table a varying number of times across identical warm
// replications (TestWorkspaceWarmPreemptiveStormAllocs).
type seqSet struct {
	keys  []uint64 // 0 is empty: seq 0 is never issued
	shift uint     // 64 − log2(len(keys))
	n     int
}

// home is seq's preferred index (Fibonacci hashing on the high bits).
func (s *seqSet) home(seq uint64) int { return int(seq * 0x9E3779B97F4A7C15 >> s.shift) }

// find returns seq's index, or the empty index where it would go.
func (s *seqSet) find(seq uint64) int {
	mask := len(s.keys) - 1
	i := s.home(seq)
	for s.keys[i] != seq && s.keys[i] != 0 {
		i = (i + 1) & mask
	}
	return i
}

func (s *seqSet) has(seq uint64) bool {
	return s.n > 0 && s.keys[s.find(seq)] == seq
}

// add inserts seq, which must not be present, keeping the table at most
// half full.
func (s *seqSet) add(seq uint64) {
	if 2*(s.n+1) > len(s.keys) {
		old := s.keys
		s.keys = make([]uint64, max(16, 2*len(old)))
		s.shift = uint(65 - bits.Len(uint(len(s.keys))))
		for _, v := range old {
			if v != 0 {
				s.keys[s.find(v)] = v
			}
		}
	}
	s.keys[s.find(seq)] = seq
	s.n++
}

// remove deletes seq and reports whether it was present. Later entries
// of the probe run shift back into the hole unless that would move one
// before its home index.
func (s *seqSet) remove(seq uint64) bool {
	i := s.find(seq)
	if s.keys[i] != seq {
		return false
	}
	mask := len(s.keys) - 1
	for j := (i + 1) & mask; s.keys[j] != 0; j = (j + 1) & mask {
		// Move entry j into the hole at i unless its home lies
		// cyclically in (i, j].
		if h := s.home(s.keys[j]); (j-h)&mask >= (j-i)&mask {
			s.keys[i] = s.keys[j]
			i = j
		}
	}
	s.keys[i] = 0
	s.n--
	return true
}

// reset empties the set, keeping its table.
func (s *seqSet) reset() {
	if s.n > 0 {
		clear(s.keys)
		s.n = 0
	}
}
