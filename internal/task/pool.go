package task

// Pool is a free list of Tasks owned by one simulation replication. The
// steady-state hot path of a long run creates and retires millions of
// short-lived tasks; recycling them through a Pool removes that allocation
// (and the GC pressure it causes) entirely once the pool has grown to the
// run's working set.
//
// A Pool is not safe for concurrent use — like the engine it feeds, it is
// single-threaded per replication; parallel replications each own a pool.
// Every simulation run recycles its tasks through one: the zero value is
// ready to use, a nil *Pool is not.
type Pool struct {
	free  []*Task
	slab  []Task      // bump-allocation chunk Get carves fresh tasks from
	slabs Arena[Task] // every slab handed out, for Rewind to reclaim
}

// poolSlab is the number of tasks a pool allocates per slab when its
// free list runs dry. Slab carving keeps a run's live tasks contiguous
// (better cache locality than one heap object per task) and makes the
// pool's own allocation count O(peak/poolSlab) instead of O(peak).
const poolSlab = 512

// Get returns a zeroed Task, recycled if one is available and otherwise
// carved from the pool's current slab. Callers must set every field they
// rely on; Put has already cleared the rest.
func (p *Pool) Get() *Task {
	if n := len(p.free) - 1; n >= 0 {
		t := p.free[n]
		p.free[n] = nil
		p.free = p.free[:n]
		return t
	}
	if len(p.slab) == 0 {
		p.slab = p.slabs.Slab(poolSlab)
	}
	t := &p.slab[0]
	p.slab = p.slab[1:]
	return t
}

// Put recycles a task the simulation has fully retired: no queue, engine
// event, or continuation may still reference it. The task is reset
// immediately, so use-after-release bugs surface as zeroed fields rather
// than silently stale data.
func (p *Pool) Put(t *Task) {
	if t == nil {
		return
	}
	t.Reset()
	p.free = append(p.free, t)
}

// Rewind reclaims every task the pool ever handed out, including those
// a replication left in flight at its horizon, so the next replication
// carves from the same slabs. Only call it when no task is referenced
// any more: at the start of a replication on a warm workspace.
func (p *Pool) Rewind() {
	p.free, p.slab = p.free[:0], nil
	p.slabs.Rewind()
}

// Size returns the number of tasks currently parked in the free list.
func (p *Pool) Size() int {
	return len(p.free)
}

// Reset clears every field, making the task indistinguishable from a
// freshly allocated one. Pool.Put calls it on release; generators then
// fill in the fields of the next lifecycle.
func (t *Task) Reset() { *t = Task{} }
