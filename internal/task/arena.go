package task

// Arena recycles the slabs a per-replication pool carves values from:
// after Rewind it hands the same slabs out again, zeroed, instead of
// allocating new ones. Values still in flight when a replication hits
// its horizon are never returned to a pool's free list, so without a
// rewind every warm replication would carve fresh slabs while the free
// list pinned the old ones.
//
// An Arena is single-threaded, like the replication that owns it; the
// zero value is ready to use.
type Arena[T any] struct {
	slabs [][]T
	used  int // slabs handed out since the last Rewind
}

// Slab returns a zeroed slab of size values, reusing a rewound one when
// there is one. Every call site passes the same size.
func (a *Arena[T]) Slab(size int) []T {
	if a.used == len(a.slabs) {
		a.slabs = append(a.slabs, make([]T, size))
	}
	s := a.slabs[a.used]
	a.used++
	return s
}

// Rewind zeroes every slab handed out since the last Rewind and makes
// them available again. The caller guarantees nothing still references
// their values: a workspace rewinds only when it starts a new
// replication, after the engine, queues and tables of the last one were
// reset.
func (a *Arena[T]) Rewind() {
	for _, s := range a.slabs[:a.used] {
		clear(s)
	}
	a.used = 0
}
