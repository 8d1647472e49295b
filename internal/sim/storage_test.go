package sim

import (
	"math/rand"
	"testing"
	"unsafe"
)

// TestLadderStorageTracksPending pins the ladder's bucket storage to its
// pending work. A hold model keeps ~100k events pending — each firing
// event reschedules itself an exponential distance ahead, the shape of
// the simulator's arrival streams — and drives over a million events
// through the rungs. Buckets that kept their own peak capacity
// retained many times the pending set by the end (the long-lived top
// rung's buckets each grow to their worst occupancy over every rebuild
// and every spread); the shared block pool must retain no more than a
// small multiple of the records the deepest pending set occupied.
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
	t.Logf("retained %.2f MB of bucket storage for a pending high-water mark of %d (%.2f MB of events)",
		float64(retained*record)/1e6, hwm, float64(hwm*record)/1e6)
	// At most 2.5 records per pending event (60 B of 24-byte records),
	// stated in records so the bound follows the record size.
	if limit := 5 * hwm / 2; retained > limit {
		t.Fatalf("bucket storage retains %d records, want <= %d (2.5 x PendingHWM %d)", retained, limit, hwm)
	}
}
