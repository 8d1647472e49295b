package sim

import (
	"math/rand"
	"testing"
	"unsafe"
)

// TestLadderStorageTracksPending pins the ladder's block storage to its
// pending work. A hold model keeps ~100k events pending — each firing
// event reschedules itself an exponential distance ahead, the shape of
// the simulator's arrival streams — and drives over a million events
// through the rungs. Buckets that kept their own peak capacity
// retained many times the pending set by the end (the long-lived top
// rung's buckets each grow to their worst occupancy over every rebuild
// and every spread); the shared block pool, which holds every far
// event (rung buckets and the over tier alike), must retain no more
// than a small multiple of the records the deepest pending set
// occupied.
func TestLadderStorageTracksPending(t *testing.T) {
	if testing.Short() {
		t.Skip("1M-event hold model in -short mode")
	}
	const pending, events = 100_000, 1_200_000
	e := NewWithQueue(QueueLadder)
	r := rand.New(rand.NewSource(1))
	var cb Callback
	cb = e.Register(func(any) {
		e.MustScheduleCall(r.ExpFloat64(), cb, nil)
	})
	for i := 0; i < pending; i++ {
		e.MustScheduleCall(r.ExpFloat64(), cb, nil)
	}
	for i := 0; i < events; i++ {
		e.Step()
	}
	hwm := int(e.Stats().PendingHWM)
	record := int(unsafe.Sizeof(event{}))
	retained := len(e.q.chunks) * ladderChunk * ladderBlock
	t.Logf("retained %.2f MB of block storage for a pending high-water mark of %d (%.2f MB of events): %.3f records per event",
		float64(retained*record)/1e6, hwm, float64(hwm*record)/1e6, float64(retained)/float64(hwm))
	// Measured at 1.45 records per pending event: part-filled tail
	// blocks plus the blocks a rebuild holds while it scatters over.
	// The bound, 1.6 records (38 B of 24-byte records), leaves a tenth
	// for drift. Stated in records so the bound follows the record
	// size.
	if limit := 8 * hwm / 5; retained > limit {
		t.Fatalf("block storage retains %d records, want <= %d (1.6 x PendingHWM %d)", retained, limit, hwm)
	}
}

// TestLadderBlocksHeldOnlyByEvents checks the block pool's accounting
// while a hold model spreads, refines and rebuilds the ladder: an empty
// bucket holds no block, and every block the pool has carved is either
// on the free list or holds events of exactly one bucket or of over.
func TestLadderBlocksHeldOnlyByEvents(t *testing.T) {
	e := NewWithQueue(QueueAuto)
	r := rand.New(rand.NewSource(3))
	var cb Callback
	cb = e.Register(func(any) {
		// Mostly near reschedules, a few far ones: over, rebuilds and
		// crowded-bucket refinement all run.
		d := r.ExpFloat64()
		if r.Intn(8) == 0 {
			d *= 200
		}
		e.MustScheduleCall(d, cb, nil)
	})
	for i := 0; i < 20_000; i++ {
		e.MustScheduleCall(r.ExpFloat64()*50, cb, nil)
	}
	q := &e.q
	check := func(step int) {
		t.Helper()
		held := 0
		owner := make(map[int32]bool)
		walk := func(bk *bucket) {
			if bk.cur == nil {
				if bk.head != 0 || bk.tail != 0 {
					t.Fatalf("step %d: empty bucket keeps chain %d..%d", step, bk.head, bk.tail)
				}
				return
			}
			if len(bk.cur) == 0 {
				t.Fatalf("step %d: a tail block holds no events", step)
			}
			for blk := bk.head; ; blk = q.link[blk] {
				if owner[blk] {
					t.Fatalf("step %d: block %d is in two chains", step, blk)
				}
				owner[blk] = true
				held++
				if blk == bk.tail {
					break
				}
			}
		}
		// Popped rungs and records past a rung's length are kept for
		// reuse; they must hold no block either, which walking every
		// record up to capacity checks.
		for j, rg := range q.rungs[:cap(q.rungs)] {
			for b := range rg.bkts[:cap(rg.bkts)] {
				bk := &rg.bkts[:cap(rg.bkts)][b]
				if (j >= len(q.rungs) || b >= len(rg.bkts)) && bk.cur != nil {
					t.Fatalf("step %d: spare bucket record holds block %d", step, bk.head)
				}
				walk(bk)
			}
		}
		walk(&q.over)
		free := 0
		for blk := q.free; blk >= 0; blk = q.link[blk] {
			if owner[blk] {
				t.Fatalf("step %d: block %d is both free and held", step, blk)
			}
			free++
		}
		if held+free != len(q.link) {
			t.Fatalf("step %d: %d blocks held + %d free, pool has %d", step, held, free, len(q.link))
		}
		if e.Pending() == 0 && held != 0 {
			t.Fatalf("step %d: no event pending but %d blocks held", step, held)
		}
	}
	for i := 0; i < 400_000; i++ {
		e.Step()
		if i%4999 == 0 {
			check(i)
		}
	}
	if q.spreads == 0 || len(q.link) == 0 {
		t.Fatalf("spreads = %d, pool blocks = %d: the hold model never left the flat queue", q.spreads, len(q.link))
	}
	e.Reset()
	check(-1)
}
