package node

import (
	"testing"

	"repro/internal/sim"
	"repro/internal/task"
)

// TestTaskLifecycleZeroAlloc pins the node half of the PR's allocation
// invariant: once the ready queue and engine have warmed to their working
// capacity, a full pooled task lifecycle — Get, Submit, dispatch,
// completion event, OnDone, Put — performs at most a small constant
// number of heap allocations (zero in practice; the bound leaves room
// for incidental runtime costs on other platforms).
func TestTaskLifecycleZeroAlloc(t *testing.T) {
	eng := sim.New()
	pool := &task.Pool{}
	g := newGroup(t, 1, GroupConfig{
		Engine: eng,
		OnDone: func(done *task.Task) { pool.Put(done) },
	})

	var seq uint64
	lifecycle := func(count int) {
		for i := 0; i < count; i++ {
			seq++
			tk := pool.Get()
			tk.ID = seq
			tk.Class = task.Local
			tk.Stage = -1
			tk.Arrival = eng.Now()
			tk.Exec = 0.5
			tk.Pex = 0.5
			tk.Deadline = eng.Now() + 2
			tk.FirmDeadline = tk.Deadline
			tk.Seq = seq
			g.Submit(0, tk)
		}
		eng.RunAll()
	}

	lifecycle(64) // warm queue, heap, and pool capacity

	const perRun = 16
	allocs := testing.AllocsPerRun(200, func() { lifecycle(perRun) })
	perLifecycle := allocs / perRun
	if perLifecycle > 1 {
		t.Fatalf("task lifecycle allocated %.2f times per task, want <= 1 (0 expected)", perLifecycle)
	}
}
