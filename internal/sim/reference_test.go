package sim

import "sort"

// refQueue is the reference event list the cross-check tests hold the
// engine to. It shares no code with the engine's queue: pending events
// sit in one slice kept sorted by (time, seq), a schedule inserts by
// binary search, a Cancel removes the event outright, and a pop takes
// the slice's head. Its handles are Events with the same meaning as the
// engine's: sequence numbers count over the queue's lifetime and are
// never reused, so a handle whose event has fired, been cancelled or
// been reset away is found nowhere and reads as stale.
type refQueue struct {
	now     float64
	seq     uint64
	pending []refEvent
	fired   []fireRec
	// onFire, when set, runs after each fire is recorded; it may
	// schedule.
	onFire func(tag int)
}

type refEvent struct {
	time float64
	seq  uint64
	tag  int
}

func newRefQueue() *refQueue { return &refQueue{seq: 1} }

// schedule queues tag to fire delay time units from now.
func (r *refQueue) schedule(delay float64, tag int) Event {
	ev := refEvent{time: r.now + delay, seq: r.seq, tag: tag}
	r.seq++
	// Every queued seq is below ev's, so ev goes after every event not
	// later than it.
	i := sort.Search(len(r.pending), func(i int) bool { return r.pending[i].time > ev.time })
	r.pending = append(r.pending, refEvent{})
	copy(r.pending[i+1:], r.pending[i:])
	r.pending[i] = ev
	return Event{time: ev.time, seq: ev.seq}
}

// find returns the index of the pending event h names, or -1.
func (r *refQueue) find(h Event) int {
	for i, ev := range r.pending {
		if ev.seq == h.seq {
			return i
		}
	}
	return -1
}

func (r *refQueue) Cancel(h Event) bool {
	i := r.find(h)
	if i < 0 {
		return false
	}
	r.pending = append(r.pending[:i], r.pending[i+1:]...)
	return true
}

func (r *refQueue) EventTime(h Event) (float64, bool) {
	if i := r.find(h); i >= 0 {
		return r.pending[i].time, true
	}
	return 0, false
}

// Run fires every event due at or before horizon, then moves the clock
// up to horizon.
func (r *refQueue) Run(horizon float64) {
	for len(r.pending) > 0 && r.pending[0].time <= horizon {
		r.fire()
	}
	r.now = max(r.now, horizon)
}

func (r *refQueue) RunAll() {
	for len(r.pending) > 0 {
		r.fire()
	}
}

func (r *refQueue) fire() {
	ev := r.pending[0]
	r.pending = r.pending[1:]
	r.now = ev.time
	r.fired = append(r.fired, fireRec{at: ev.time, tag: ev.tag})
	if r.onFire != nil {
		r.onFire(ev.tag)
	}
}

// reset drops every pending event; the fire log runs on across resets.
func (r *refQueue) reset() {
	r.now, r.pending = 0, nil
}

func (r *refQueue) Pending() int   { return len(r.pending) }
func (r *refQueue) Now() float64   { return r.now }
func (r *refQueue) log() []fireRec { return r.fired }
