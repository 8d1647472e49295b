package node

import (
	"testing"

	"repro/internal/sim"
	"repro/internal/task"
)

// driveLoad submits a deterministic task mix across a spread of the
// group's nodes and runs it to completion: every (exec, deadline) pair
// is a pure function of the task index, so two drives over identically
// configured groups perform bit-identical arithmetic.
func driveLoad(t *testing.T, eng *sim.Engine, g *Group, k, tasks int) {
	t.Helper()
	var seq uint64
	for i := 0; i < tasks; i++ {
		seq++
		// Stride the node index so submissions scatter across the whole
		// array (the growth bug this hunts is per-node state at high
		// indices surviving a reset).
		nd := (i * 40503) % k
		ex := 0.25 + float64(i%7)*0.125
		tk := &task.Task{
			ID: seq, Class: task.Local, Stage: -1,
			Arrival: eng.Now(), Exec: ex, Pex: ex,
			Deadline: eng.Now() + ex + float64(i%5), Seq: seq,
		}
		tk.FirmDeadline = tk.Deadline
		g.Submit(nd, tk)
		if i%64 == 63 {
			eng.RunAll() // interleave service with submission bursts
		}
	}
	eng.RunAll()
}

// nodeSig captures every externally visible per-node value, floats
// included, for exact (bit-level) comparison.
type nodeSig struct {
	served, aborted, preempted, submitted int64
	hwm                                   int
	busy                                  float64
	speed                                 float64
}

func signature(g *Group, k int) []nodeSig {
	out := make([]nodeSig, k)
	for i := 0; i < k; i++ {
		n := g.Node(i)
		out[i] = nodeSig{
			served: n.Served(), aborted: n.Aborted(),
			preempted: n.Preemptions(), submitted: n.Submitted(),
			hwm: n.ReadyQueueHWM(), busy: n.BusyTime(), speed: n.Speed(),
		}
	}
	return out
}

// configureBank wires a fresh EDF bank of k lanes into g (or builds g).
func configureBank(t *testing.T, eng *sim.Engine, g *Group, k int) *Group {
	t.Helper()
	cfg := GroupConfig{Engine: eng, Bank: edfBank(t, k), OnDone: func(*task.Task) {}}
	if g == nil {
		g2, err := NewGroup(cfg)
		if err != nil {
			t.Fatal(err)
		}
		return g2
	}
	if err := g.Configure(cfg); err != nil {
		t.Fatal(err)
	}
	return g
}

// TestGroupGrowthAndResetAt64k pins the SoA group's growth and reset
// paths at the extreme-scale node count: growing a small group to 64k
// nodes, running a deterministic load, resetting in place, and re-running
// must reproduce every per-node counter and accumulated float exactly —
// and the reset must leave no residue anywhere in the 64k-wide arrays.
func TestGroupGrowthAndResetAt64k(t *testing.T) {
	const k = 65536
	const tasks = 40000
	eng := sim.New()

	// Grow: start the same group object small, then reconfigure to 64k.
	g := configureBank(t, eng, nil, 16)
	eng.Reset()
	g = configureBank(t, eng, g, k)
	if g.Len() != k {
		t.Fatalf("Len = %d after growth, want %d", g.Len(), k)
	}
	driveLoad(t, eng, g, k, tasks)
	first := signature(g, k)

	var total int64
	for _, s := range first {
		total += s.served
	}
	if total != tasks {
		t.Fatalf("first run served %d tasks, want %d", total, tasks)
	}

	// Reset in place: same shape, so the backing arrays must be reused
	// and every node must read as factory-new.
	n0 := &g.hot[0]
	eng.Reset()
	g = configureBank(t, eng, g, k)
	if &g.hot[0] != n0 {
		t.Fatal("same-shape Configure reallocated the node array")
	}
	for i, s := range signature(g, k) {
		if s != (nodeSig{speed: 1}) {
			t.Fatalf("node %d not reset: %+v", i, s)
		}
	}

	// Re-run: bit-identical counters and floats, node by node.
	driveLoad(t, eng, g, k, tasks)
	for i, s := range signature(g, k) {
		if s != first[i] {
			t.Fatalf("node %d diverged after reset:\nfirst %+v\nagain %+v", i, first[i], s)
		}
	}
}
