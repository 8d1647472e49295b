package sim

import (
	"math"
	"math/rand"
	"testing"
)

// fireRec is one observed event execution.
type fireRec struct {
	at  float64
	tag int
}

// queueModel is one event list under cross-check: the engine under a
// QueueKind, or the reference refQueue.
type queueModel interface {
	schedule(delay float64, tag int) Event
	Cancel(Event) bool
	EventTime(Event) (float64, bool)
	Run(horizon float64)
	RunAll()
	reset()
	Pending() int
	Now() float64
	log() []fireRec
}

// crossEngine wraps one engine with the recording state of a
// queueModel. record is built once, so a reset's re-registration
// allocates nothing.
type crossEngine struct {
	eng    *Engine
	cb     Callback
	record func(tag int32)
	fired  []fireRec
}

func newCrossEngine(kind QueueKind) *crossEngine {
	c := &crossEngine{eng: NewWithQueue(kind)}
	c.record = func(tag int32) {
		c.fired = append(c.fired, fireRec{at: c.eng.Now(), tag: int(tag)})
	}
	c.cb = c.eng.RegisterArg(c.record)
	return c
}

func (c *crossEngine) schedule(delay float64, tag int) Event {
	return c.eng.MustScheduleArg(delay, c.cb, int32(tag))
}

// reset resets the engine; the fire log runs on across resets.
func (c *crossEngine) reset() {
	c.eng.Reset()
	c.cb = c.eng.RegisterArg(c.record)
}

func (c *crossEngine) Cancel(ev Event) bool               { return c.eng.Cancel(ev) }
func (c *crossEngine) EventTime(ev Event) (float64, bool) { return c.eng.EventTime(ev) }
func (c *crossEngine) Run(horizon float64)                { c.eng.Run(horizon) }
func (c *crossEngine) RunAll()                            { c.eng.RunAll() }
func (c *crossEngine) Pending() int                       { return c.eng.Pending() }
func (c *crossEngine) Now() float64                       { return c.eng.Now() }
func (c *crossEngine) log() []fireRec                     { return c.fired }

// crossModels returns the reference queue and the engine under every
// QueueKind.
func crossModels() ([]queueModel, []string) {
	return []queueModel{newRefQueue(), newCrossEngine(QueueLadder), newCrossEngine(QueueAuto)},
		[]string{"reference", "ladder", "auto"}
}

// crossCheck drives the reference queue and the engines of crossModels
// through the same operation stream and asserts identical observable
// behaviour: fire order (time, tag), Cancel results (including stale
// handles after a fire, a cancel or a Reset), EventTime results, and
// pending counts. ops is consumed byte-wise, so it doubles as a fuzz
// corpus format.
func crossCheck(t *testing.T, ops []byte) {
	t.Helper()
	models, names := crossModels()
	handles := make([][]Event, len(models))
	tag := 0
	next := func(i int) byte {
		if i >= len(ops) {
			return 0
		}
		return ops[i]
	}
	for i := 0; i < len(ops); i++ {
		op := ops[i]
		switch op % 5 {
		case 0, 1: // schedule: delay from the next two bytes
			delay := float64(next(i+1))/16 + float64(next(i+2))/4096
			i += 2
			tag++
			for mi, m := range models {
				handles[mi] = append(handles[mi], m.schedule(delay, tag))
			}
		case 2: // cancel a handle (possibly already fired or cancelled)
			if len(handles[0]) == 0 {
				continue
			}
			hi := int(next(i+1)) % len(handles[0])
			i++
			r0 := models[0].Cancel(handles[0][hi])
			for mi := 1; mi < len(models); mi++ {
				if r := models[mi].Cancel(handles[mi][hi]); r != r0 {
					t.Fatalf("op %d: Cancel(handle %d) = %v on %s, %v on the reference",
						i, hi, r, names[mi], r0)
				}
			}
		case 3: // run a bounded horizon forward
			h := models[0].Now() + float64(next(i+1))/8
			i++
			for _, m := range models {
				m.Run(h)
			}
		case 4: // occasionally reset, mostly probe EventTime
			if next(i+1)%7 == 0 {
				for mi, m := range models {
					m.reset()
					handles[mi] = handles[mi][:0]
				}
				i++
				continue
			}
			if len(handles[0]) == 0 {
				continue
			}
			hi := int(next(i+1)) % len(handles[0])
			i++
			t0, ok0 := models[0].EventTime(handles[0][hi])
			for mi := 1; mi < len(models); mi++ {
				if tt, ok := models[mi].EventTime(handles[mi][hi]); tt != t0 || ok != ok0 {
					t.Fatalf("op %d: EventTime(handle %d) = (%v, %v) on %s, (%v, %v) on the reference",
						i, hi, tt, ok, names[mi], t0, ok0)
				}
			}
		}
		p0 := models[0].Pending()
		for mi := 1; mi < len(models); mi++ {
			if p := models[mi].Pending(); p != p0 {
				t.Fatalf("op %d: Pending = %d on %s, %d on the reference", i, p, names[mi], p0)
			}
			if now, now0 := models[mi].Now(), models[0].Now(); now != now0 {
				t.Fatalf("op %d: Now = %v on %s, %v on the reference", i, now, names[mi], now0)
			}
		}
	}
	for _, m := range models {
		m.RunAll()
	}
	for mi := 1; mi < len(models); mi++ {
		compareFired(t, names[mi], models[mi].log(), models[0].log())
	}
}

func compareFired(t *testing.T, name string, got, want []fireRec) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s fired %d events, the reference fired %d", name, len(got), len(want))
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("%s fire %d = %+v, the reference fired %+v", name, i, got[i], want[i])
		}
	}
}

// TestQueueCrossCheckRandom drives the reference queue and the spread
// and auto-spreading engines with identical random
// schedule/cancel/Run/Reset sequences and requires identical pop order
// and Cancel/EventTime semantics — including Cancel no-ops on stale
// handles, which the stream generates constantly by cancelling old
// handle indices.
func TestQueueCrossCheckRandom(t *testing.T) {
	for seed := int64(1); seed <= 40; seed++ {
		r := rand.New(rand.NewSource(seed))
		ops := make([]byte, 2000)
		r.Read(ops)
		crossCheck(t, ops)
	}
}

// FuzzQueueCrossCheck lets the fuzzer search for operation streams where
// the engine, under any QueueKind, diverges from the reference queue.
func FuzzQueueCrossCheck(f *testing.F) {
	f.Add([]byte{0, 200, 13, 0, 3, 1, 17, 250, 2, 0, 4, 7, 0, 9, 9, 3, 255})
	f.Add([]byte("schedule-cancel-run-reset"))
	seed := make([]byte, 512)
	rand.New(rand.NewSource(99)).Read(seed)
	f.Add(seed)
	// Tier-boundary seeds: clusters of equal and maximally adjacent
	// far-horizon delays force over-tier rebuilds whose endT is bumped a
	// float step past the top bucket edge, then interleave mid-drain
	// schedules at exactly the old maximum — the geometry of the
	// overMax/Nextafter sliver (TestLadderOverMaxSliverCrossCheck).
	var boundary []byte
	for i := 0; i < 96; i++ {
		boundary = append(boundary, 0, 255, 255) // schedule at the far cap
		if i%7 == 0 {
			boundary = append(boundary, 0, 255, 254) // one ulp-ish below it
		}
	}
	boundary = append(boundary, 3, 120) // drain into the rebuilt rung
	for i := 0; i < 24; i++ {
		boundary = append(boundary, 0, 255, 255, 3, 40) // push at the max mid-drain
	}
	f.Add(boundary)
	// Equal-time ties across every tier: schedule, partially run, then
	// re-schedule the same delays so pushes land near, rung, and over at
	// identical timestamps; FIFO (time, seq) order must match the
	// reference.
	var ties []byte
	for i := 0; i < 64; i++ {
		ties = append(ties, 0, 128, 0, 0, 16, 0, 1, 128, 0)
	}
	ties = append(ties, 3, 255, 3, 255)
	for i := 0; i < 64; i++ {
		ties = append(ties, 0, 128, 0, 3, 2)
	}
	f.Add(ties)
	f.Add(oversizedOps())
	// A spread with the run full: 60 scattered delays take the auto
	// engine past the spread threshold before anything fires.
	var spill []byte
	for i := 0; i < 60; i++ {
		spill = append(spill, 1, byte(i*37), byte(i*11))
	}
	spill = append(spill, 3, 30, 2, 50, 3, 255)
	f.Add(spill)
	f.Fuzz(func(t *testing.T, ops []byte) {
		if len(ops) > 4096 {
			ops = ops[:4096]
		}
		crossCheck(t, ops)
	})
}

// oversizedOps is an operation stream for crossCheck whose equal-time
// clusters hold up to 200 events. The ladder cannot separate equal
// times, so it refines a cluster's bucket down to ladderMaxRungs depth
// and then transfers it into the run whole: an oversized transfer,
// which the spread engines take both at the first drain and again after
// fresh ties join a cluster still queued in a rung, with cancelled
// members among them and a Reset while a second cluster is queued.
func oversizedOps() []byte {
	var ops []byte
	schedule := func(hi, lo byte) { ops = append(ops, 0, hi, lo) } // hi/16 + lo/4096
	for i := 0; i < 300; i++ {
		if i%3 != 2 {
			schedule(128, 0) // time 8: a cluster of 200
		} else {
			schedule(byte(i*37), byte(i*11)) // scattered over [0, 16)
		}
	}
	ops = append(ops, 2, 3, 2, 9) // cancel two cluster members
	ops = append(ops, 3, 60)      // run to 7.5: the cluster is still in a rung
	for i := 0; i < 20; i++ {
		schedule(8, 0) // time 8 again: ties that join the cluster with larger seqs
	}
	ops = append(ops, 3, 40) // run to 12.5: the cluster pops in (time, seq) order
	for i := 0; i < 150; i++ {
		if i%2 == 0 {
			schedule(32, 0) // time 14.5: a cluster of 75
		} else {
			schedule(byte(i), byte(i*7)) // scattered over [12.5, 28.5)
		}
	}
	ops = append(ops, 4, 0) // Reset with a cluster queued
	for i := 0; i < 100; i++ {
		schedule(16, 0) // a cluster at time 1
	}
	return ops
}

// TestOversizedTransferCrossCheck runs oversizedOps against the
// reference, then replays it on a warm spread engine, whose run must
// have held more than 64 events at once, and which must allocate
// nothing once its run buffer has grown.
func TestOversizedTransferCrossCheck(t *testing.T) {
	ops := oversizedOps()
	crossCheck(t, ops)

	e := NewWithQueue(QueueLadder)
	longest := 0
	record := func(int32) { longest = max(longest, len(e.q.run)+1) }
	var handles []Event
	replay := func() {
		e.Reset()
		cb := e.RegisterArg(record)
		handles = handles[:0]
		for i := 0; i < len(ops); i++ {
			switch ops[i] {
			case 0:
				delay := float64(ops[i+1])/16 + float64(ops[i+2])/4096
				handles = append(handles, e.MustScheduleArg(delay, cb, 0))
				i += 2
			case 2:
				e.Cancel(handles[ops[i+1]])
				i++
			case 3:
				e.Run(e.Now() + float64(ops[i+1])/8)
				i++
			case 4:
				e.Reset()
				cb = e.RegisterArg(record)
				handles = handles[:0]
				i++
			}
		}
		e.RunAll()
	}
	replay()
	if longest <= 64 {
		t.Fatalf("the run held at most %d events; the stream no longer makes an oversized transfer", longest)
	}
	if allocs := testing.AllocsPerRun(20, replay); allocs != 0 {
		t.Fatalf("a warm replay allocated %v times, want 0", allocs)
	}
}

// TestLadderBulkOrder pushes a large batch of far-future events (forcing
// rung builds, spreads, and rebuilds) and checks exact (time, seq) pop
// order against the reference.
func TestLadderBulkOrder(t *testing.T) {
	const n = 20000
	r := rand.New(rand.NewSource(7))
	ref := newRefQueue()
	lad := newCrossEngine(QueueLadder)
	for i := 0; i < n; i++ {
		var d float64
		switch i % 3 {
		case 0:
			d = r.Float64() * 1000 // broad horizon: exercises over + rebuild
		case 1:
			d = r.Float64() // near horizon
		case 2:
			d = float64(r.Intn(50)) // heavy time ties: FIFO order must hold
		}
		ref.schedule(d, i)
		lad.schedule(d, i)
	}
	ref.RunAll()
	lad.RunAll()
	compareFired(t, "ladder", lad.fired, ref.fired)
}

// TestLadderBoundaryWindowPush regresses a routing hole: with evenly
// spaced integer times, rebuild() bumps the rung's endT one float step
// past the top bucket edge, so after the last bucket is consumed the
// drained rung still claims a sliver of time range. Scheduling into
// that sliver (e.g. exactly the previous maximum time) must not panic
// and must still fire in time order.
func TestLadderBoundaryWindowPush(t *testing.T) {
	c := newCrossEngine(QueueLadder)
	const n = 4096
	for i := 0; i < n; i++ {
		c.schedule(float64(i), i)
	}
	for i := 0; i < n-1; i++ {
		if !c.eng.Step() {
			t.Fatalf("queue empty after %d steps", i)
		}
	}
	// The deepest rung is drained but not yet popped, and its endT sits
	// one float step above the old maximum time: scheduling at exactly
	// that maximum lands in the drained rung's boundary sliver.
	c.schedule(float64(n-1)-c.eng.Now(), n)
	c.eng.RunAll()
	if len(c.fired) != n+1 {
		t.Fatalf("fired %d events, want %d", len(c.fired), n+1)
	}
	for i := 1; i < len(c.fired); i++ {
		if c.fired[i].at < c.fired[i-1].at {
			t.Fatalf("fire %d at %v before fire %d at %v", i, c.fired[i].at, i-1, c.fired[i-1].at)
		}
	}
}

// TestLadderOverMaxBoundaryCrossCheck pins the far/over-tier boundary at
// rebuild's Nextafter bump. With inexact spans, rebuild lands end ==
// overMax and bumps the rung's endT one float step above the top bucket
// edge, so the top bucket's routing range extends through [bounds[nb],
// endT) — events at exactly overMax live there. The test drains the
// rebuilt rung up to its top bucket and then, mid-drain, schedules fresh
// events at exactly overMax (twice, to exercise FIFO among equal-time
// arrivals crossing the boundary) and one float step below it; the
// ladder's complete fire order must match the reference exactly.
//
// Audit note: the consumption boundary for a rung's LAST bucket is endT
// (see advance), because pushRung clamps everything below endT into that
// bucket. Using bounds[nb] there instead would leave nearEnd a step
// short of times the near tier already holds; mid-drain pushes into
// that sliver would route to the strictly-later over tier. With
// round-to-nearest arithmetic and power-of-two bucket counts the sliver
// below overMax is empirically empty (end never undershoots overMax),
// which is why the old boundary never misordered in practice — this
// test plus the endT rule make the ordering structural, not numerical.
func TestLadderOverMaxBoundaryCrossCheck(t *testing.T) {
	// off = 0.1, step = 1/3 makes rebuild's end land exactly on overMax
	// (verified below via the live rung), taking the Nextafter bump.
	const n = 4096
	const off, step = 0.1, 1.0 / 3
	max := off + float64(n-1)*step

	// Probe the rebuilt rung's real geometry and find the trigger: the
	// first event routed at or above the top bucket's lower edge. When it
	// fires, the top bucket has just been transferred into the near tier.
	probe := NewWithQueue(QueueLadder)
	pcb := probe.Register(func(any) {})
	for i := 0; i < n; i++ {
		probe.MustScheduleCall(off+float64(i)*step, pcb, i)
	}
	probe.Step() // forces the over-tier rebuild
	if len(probe.q.rungs) == 0 {
		t.Fatal("rebuild produced no rung; geometry changed — re-derive this test")
	}
	r := &probe.q.rungs[0]
	nb := len(r.bkts)
	if r.endT <= r.bounds[nb] {
		t.Fatalf("rebuild endT %v not above top bucket edge %v; the Nextafter path was not taken — re-derive this test", r.endT, r.bounds[nb])
	}
	trigger := -1
	for i := 0; i < n; i++ {
		if off+float64(i)*step >= r.bounds[nb-1] {
			trigger = i
			break
		}
	}
	if trigger < 0 {
		t.Fatal("no event in the top bucket's range")
	}

	below := math.Nextafter(max, math.Inf(-1))
	// mid schedules the three boundary events when the trigger fires.
	mid := func(m queueModel, tag int) {
		if tag == trigger {
			now := m.Now()
			m.schedule(max-now, n)     // exactly overMax
			m.schedule(below-now, n+1) // one float below
			m.schedule(max-now, n+2)   // overMax again: FIFO
		}
	}
	ref := newRefQueue()
	ref.onFire = func(tag int) { mid(ref, tag) }
	lad := &crossEngine{eng: NewWithQueue(QueueLadder)}
	lad.cb = lad.eng.RegisterArg(func(tag int32) {
		lad.fired = append(lad.fired, fireRec{at: lad.eng.Now(), tag: int(tag)})
		mid(lad, int(tag))
	})
	for _, m := range []queueModel{ref, lad} {
		for i := 0; i < n; i++ {
			m.schedule(off+float64(i)*step, i)
		}
		m.RunAll()
	}
	compareFired(t, "ladder", lad.fired, ref.fired)
	if len(ref.fired) != n+3 {
		t.Fatalf("fired %d events, want %d", len(ref.fired), n+3)
	}
}

// TestLadderPromotion checks that an auto engine starts flat, spreads
// once past the threshold with its already-scheduled events intact, and
// goes back flat at Reset — and that a re-spread after Reset reuses the
// rung and tier arrays of the first, allocating nothing.
func TestLadderPromotion(t *testing.T) {
	c := newCrossEngine(QueueAuto)
	flat := func() bool { return c.eng.q.nearEnd == math.Inf(1) }
	if !flat() {
		t.Fatal("fresh auto engine is not flat")
	}
	for i := 0; i < promoteThreshold; i++ {
		c.schedule(float64(i), i)
	}
	if !flat() || c.eng.Stats().Promotions != 0 {
		t.Fatalf("auto engine spread at %d pending events, threshold %d", promoteThreshold, promoteThreshold)
	}
	c.schedule(promoteThreshold, promoteThreshold)
	if flat() || c.eng.Stats().Promotions != 1 {
		t.Fatalf("auto engine did not spread once at %d pending events", promoteThreshold+1)
	}
	c.RunAll()
	if len(c.fired) != promoteThreshold+1 {
		t.Fatalf("fired %d events, want %d", len(c.fired), promoteThreshold+1)
	}
	for i, f := range c.fired {
		if f.tag != i {
			t.Fatalf("fire %d has tag %d after the spread, want %d", i, f.tag, i)
		}
	}
	// Reset goes back flat so every run's queue trajectory (and the
	// Stats spread counter) is history-independent.
	c.reset()
	if !flat() || c.eng.Stats().Promotions != 0 {
		t.Fatal("Reset left the auto engine spread")
	}
	respread := func() {
		c.reset()
		c.fired = c.fired[:0]
		for i := 0; i <= promoteThreshold; i++ {
			c.schedule(float64(i), i)
		}
		c.RunAll()
	}
	if allocs := testing.AllocsPerRun(20, respread); allocs != 0 {
		t.Fatalf("a re-spread after Reset allocated %v times, want 0", allocs)
	}
	if c.eng.Stats().Promotions != 1 || len(c.fired) != promoteThreshold+1 {
		t.Fatalf("re-spread run: %d spreads, %d fires", c.eng.Stats().Promotions, len(c.fired))
	}
}

// TestLadderSteadyStateZeroAlloc pins the allocation invariant for the
// ladder path: once buckets, rungs, and the loc table have grown to
// working size, scheduling, firing, and cancelling allocate nothing.
func TestLadderSteadyStateZeroAlloc(t *testing.T) {
	e := NewWithQueue(QueueLadder)
	cb := e.Register(func(any) {})
	r := rand.New(rand.NewSource(3))
	warm := func(rounds int) {
		for i := 0; i < rounds; i++ {
			for j := 0; j < 64; j++ {
				e.MustScheduleCall(r.Float64()*64, cb, nil)
			}
			ev := e.MustScheduleCall(1+r.Float64(), cb, nil)
			e.Cancel(ev)
			e.Run(e.Now() + 16)
		}
		e.RunAll()
	}
	warm(64)

	allocs := testing.AllocsPerRun(200, func() { warm(4) })
	if allocs != 0 {
		t.Fatalf("ladder steady state allocated %v times per run, want 0", allocs)
	}
}
