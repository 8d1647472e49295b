package node

import (
	"testing"
	"unsafe"

	"repro/internal/sched"
	"repro/internal/sim"
	"repro/internal/task"
)

// TestGroupRoutesCompletions drives tasks through several nodes of one
// group and checks that the shared completion callback routes each
// completion to the right node.
func TestGroupRoutesCompletions(t *testing.T) {
	eng := sim.New()
	var doneNodes []int
	g := newGroup(t, 4, GroupConfig{
		Engine: eng,
		OnDone: func(tk *task.Task) { doneNodes = append(doneNodes, int(tk.NodeID)) },
	})
	if g.Len() != 4 {
		t.Fatalf("Len = %d, want 4", g.Len())
	}
	// Submit one task per node with staggered demands so completions
	// interleave across nodes.
	for i := 0; i < 4; i++ {
		tk := &task.Task{
			ID: uint64(i + 1), Class: task.Local, Stage: -1,
			Exec: float64(4 - i), Pex: float64(4 - i),
			Deadline: 100, FirmDeadline: 100, Seq: uint64(i + 1),
		}
		g.Submit(i, tk)
	}
	eng.RunAll()
	if len(doneNodes) != 4 {
		t.Fatalf("completed %d tasks, want 4", len(doneNodes))
	}
	want := []int{3, 2, 1, 0} // shortest demand finishes first
	for i, n := range doneNodes {
		if n != want[i] {
			t.Fatalf("completion order by node = %v, want %v", doneNodes, want)
		}
	}
	for i := 0; i < 4; i++ {
		if g.hot[i].served != 1 {
			t.Fatalf("node %d served %d, want 1", i, g.hot[i].served)
		}
	}
}

// TestGroupConfigureReuses checks that reconfiguring keeps the backing
// node array and fully resets node state.
func TestGroupConfigureReuses(t *testing.T) {
	eng := sim.New()
	bank := edfBank(t, 3)
	g := &Group{}
	if err := g.Configure(GroupConfig{
		Engine: eng,
		Bank:   bank,
		OnDone: func(*task.Task) {},
	}); err != nil {
		t.Fatal(err)
	}
	first := &g.hot[0]
	tk := &task.Task{ID: 1, Class: task.Local, Stage: -1, Exec: 1, Pex: 1,
		Deadline: 10, FirmDeadline: 10, Seq: 1}
	g.Submit(0, tk)
	eng.RunAll()
	if g.hot[0].served != 1 {
		t.Fatalf("served %d before reconfigure, want 1", g.hot[0].served)
	}

	eng.Reset()
	bank.Reset()
	if err := g.Configure(GroupConfig{
		Engine: eng,
		Bank:   bank,
		OnDone: func(*task.Task) {},
	}); err != nil {
		t.Fatal(err)
	}
	if &g.hot[0] != first {
		t.Fatal("Configure with an unchanged node count reallocated the backing array")
	}
	if g.hot[0].served != 0 || g.hot[0].running != nil || g.hot[0].speed != 1 {
		t.Fatalf("node state not reset: served=%d busy=%t speed=%v",
			g.hot[0].served, g.hot[0].running != nil, g.hot[0].speed)
	}
}

// TestGroupConfigValidation covers the reconfigure error paths: Configure
// on a live group rejects each invalid config and leaves the group as it
// was.
func TestGroupConfigValidation(t *testing.T) {
	eng := sim.New()
	bank := edfBank(t, 2)
	done := func(*task.Task) {}
	g := &Group{}
	if err := g.Configure(GroupConfig{Engine: eng, Bank: bank, OnDone: done}); err != nil {
		t.Fatal(err)
	}
	first := &g.hot[0]
	cases := []struct {
		name string
		cfg  GroupConfig
	}{
		{"nil engine", GroupConfig{Bank: bank, OnDone: done}},
		{"nil bank", GroupConfig{Engine: eng, OnDone: done}},
		{"unconfigured bank", GroupConfig{Engine: eng, Bank: sched.NewBank(), OnDone: done}},
		{"nil OnDone", GroupConfig{Engine: eng, Bank: bank}},
		{"abort without OnAbort", GroupConfig{Engine: eng, Bank: bank,
			Policy: AbortAtDispatch, OnDone: done}},
	}
	for _, tc := range cases {
		if err := g.Configure(tc.cfg); err == nil {
			t.Errorf("%s: Configure accepted an invalid config", tc.name)
		}
	}
	if g.Len() != 2 || &g.hot[0] != first {
		t.Fatalf("failed Configure changed the group: %d nodes", g.Len())
	}
}

// TestGroupLifecycleZeroAlloc64 extends the PR-3 lifecycle-allocation
// guard to a 64-node group: once queues and the engine are warm, a full
// pooled task lifecycle spread across all nodes allocates (almost)
// nothing per task.
func TestGroupLifecycleZeroAlloc64(t *testing.T) {
	eng := sim.New()
	pool := &task.Pool{}
	const k = 64
	g := newGroup(t, k, GroupConfig{
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
			g.Submit(int(seq)%k, tk)
		}
		eng.RunAll()
	}

	lifecycle(4 * k) // warm queues, event queue, and pool capacity

	const perRun = 128
	allocs := testing.AllocsPerRun(100, func() { lifecycle(perRun) })
	perLifecycle := allocs / perRun
	if perLifecycle > 1 {
		t.Fatalf("64-node task lifecycle allocated %.2f times per task, want <= 1 (0 expected)", perLifecycle)
	}
}

// TestNodeHotFitsCacheLine pins the layout the group's working set relies
// on: one node's record is exactly one 64-byte cache line, so a submit,
// dispatch or completion at a random node of a large topology touches
// one line of per-node state.
func TestNodeHotFitsCacheLine(t *testing.T) {
	if size := unsafe.Sizeof(nodeHot{}); size != 64 {
		t.Fatalf("nodeHot is %d bytes, want 64", size)
	}
}
