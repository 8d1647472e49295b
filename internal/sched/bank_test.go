package sched

import (
	"fmt"
	"testing"

	"repro/internal/rng"
	"repro/internal/task"
)

// refQueue is the reference ready queue for one node: an unordered
// slice scanned linearly on every pop. It shares no code and no ordering
// trick with the Bank. Under EDF and MLF it serves the task with the
// least (class rank, policy key, Seq); under FCFS it serves the first
// task in list order within the best class, and a preempted task is
// put back at the front of the list explicitly.
type refQueue struct {
	policy       Policy
	globalsFirst bool
	tasks        []*task.Task // FCFS: arrival order, requeued tasks in front
}

// rank is the class priority: under globals-first, Global before Local.
func (q *refQueue) rank(t *task.Task) int {
	if q.globalsFirst && t.Class != task.Global {
		return 1
	}
	return 0
}

// before reports whether a must be served ahead of b.
func (q *refQueue) before(a, b *task.Task) bool {
	if ra, rb := q.rank(a), q.rank(b); ra != rb {
		return ra < rb
	}
	var ka, kb float64
	switch q.policy {
	case FCFS:
		return false // list order decides
	case MLF:
		ka, kb = a.Deadline-a.Pex, b.Deadline-b.Pex
	default:
		ka, kb = a.Deadline, b.Deadline
	}
	if ka != kb {
		return ka < kb
	}
	return a.Seq < b.Seq
}

func (q *refQueue) push(t *task.Task) { q.tasks = append(q.tasks, t) }

// requeue puts back a preempted task: at the front of the list, which
// under FCFS resumes its place ahead of everything that arrived while it
// ran.
func (q *refQueue) requeue(t *task.Task) {
	q.tasks = append([]*task.Task{t}, q.tasks...)
}

func (q *refQueue) pop() *task.Task {
	if len(q.tasks) == 0 {
		return nil
	}
	best := 0
	for i := 1; i < len(q.tasks); i++ {
		if q.before(q.tasks[i], q.tasks[best]) {
			best = i
		}
	}
	t := q.tasks[best]
	q.tasks = append(q.tasks[:best], q.tasks[best+1:]...)
	return t
}

// TestBankMatchesReference drives identical random push/pop/preempt
// sequences through a Bank and per-node refQueues for every policy ×
// globalsFirst combination, at a handful of deep queues and at 8192
// mostly shallow ones whose lanes spill past their arena carve, and
// requires identical pop order. Each node holds the task it last popped
// as "running"; a preemption pushes that task back, so the FCFS
// front-requeue is exercised with arrivals queued behind it.
func TestBankMatchesReference(t *testing.T) {
	sizes := []struct{ nodes, steps int }{
		{nodes: 5, steps: 4000},
		{nodes: 8192, steps: 160000},
	}
	for _, p := range []Policy{EDF, MLF, FCFS} {
		for _, gf := range []bool{false, true} {
			for _, sz := range sizes {
				t.Run(fmt.Sprintf("%s/globalsFirst=%t/nodes=%d", p, gf, sz.nodes), func(t *testing.T) {
					checkBankAgainstReference(t, p, gf, sz.nodes, sz.steps)
				})
			}
		}
	}
}

func checkBankAgainstReference(t *testing.T, p Policy, gf bool, nodes, steps int) {
	bank := NewBank()
	if err := bank.Configure(nodes, p, gf, 4); err != nil {
		t.Fatal(err)
	}
	ref := make([]refQueue, nodes)
	for i := range ref {
		ref[i] = refQueue{policy: p, globalsFirst: gf}
	}
	running := make([]*task.Task, nodes)

	r := rng.New(7)
	var seq uint64
	pop := func(step, i int, now float64) *task.Task {
		a, b := bank.Pop(i, now), ref[i].pop()
		if a != b {
			t.Fatalf("step %d node %d: bank popped %v, reference popped %v", step, i, a, b)
		}
		return a
	}
	for step := 0; step < steps; step++ {
		i := r.IntN(nodes)
		switch u := r.Float64(); {
		case u < 0.55:
			seq++
			tk := &task.Task{
				ID:       seq,
				Seq:      seq,
				Deadline: r.Uniform(0, 100),
				Pex:      r.Uniform(0, 10),
				Class:    task.Local,
			}
			if r.Float64() < 0.4 {
				tk.Class = task.Global
			}
			bank.Push(i, tk)
			ref[i].push(tk)
		case u < 0.65 && running[i] != nil:
			// Preemption: the running task goes back to the queue.
			bank.Push(i, running[i])
			ref[i].requeue(running[i])
			running[i] = nil
		default:
			// Dispatch: the previous running task (if any) completes.
			running[i] = pop(step, i, r.Uniform(0, 100))
		}
		if bank.Len(i) != len(ref[i].tasks) {
			t.Fatalf("step %d node %d: bank len %d, reference len %d", step, i, bank.Len(i), len(ref[i].tasks))
		}
	}
	// Drain everything and compare the full tail order.
	for i := 0; i < nodes; i++ {
		for pop(steps, i, 50) != nil {
		}
	}
}

// TestBankConfigureReuse checks that a shape-matched reconfigure resets
// in place and a shape change rebuilds, and that lane overflow past the
// arena carve stays confined to the overflowing lane.
func TestBankConfigureReuse(t *testing.T) {
	b := NewBank()
	if err := b.Configure(3, EDF, false, 2); err != nil {
		t.Fatal(err)
	}
	// Overflow node 1's carve; neighbours must keep their tasks intact.
	mk := func(seq uint64, dl float64) *task.Task {
		return &task.Task{ID: seq, Seq: seq, Deadline: dl}
	}
	b.Push(0, mk(1, 9))
	b.Push(2, mk(2, 8))
	for s := uint64(10); s < 20; s++ {
		b.Push(1, mk(s, float64(100-s)))
	}
	if got := b.Len(1); got != 10 {
		t.Fatalf("Len(1) = %d, want 10", got)
	}
	if tk := b.Pop(0, 0); tk == nil || tk.ID != 1 {
		t.Fatalf("Pop(0) = %v, want task 1", tk)
	}
	if tk := b.Pop(2, 0); tk == nil || tk.ID != 2 {
		t.Fatalf("Pop(2) = %v, want task 2", tk)
	}
	// Same shape: reset in place, switching policy is allowed.
	if err := b.Configure(3, FCFS, false, 2); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 3; i++ {
		if got := b.Len(i); got != 0 {
			t.Fatalf("after reconfigure Len(%d) = %d, want 0", i, got)
		}
	}
	b.Push(1, mk(5, 1))
	b.Push(1, mk(6, 0)) // earlier deadline, later arrival
	if tk := b.Pop(1, 0); tk == nil || tk.ID != 5 {
		t.Fatalf("after switching to FCFS Pop(1) = %v, want task 5", tk)
	}
	// Shape change: rebuild.
	if err := b.Configure(4, EDF, true, 2); err != nil {
		t.Fatal(err)
	}
	if b.Nodes() != 4 {
		t.Fatalf("after rebuild Nodes = %d, want 4", b.Nodes())
	}
	if err := b.Configure(0, EDF, false, 2); err == nil {
		t.Fatal("Configure(0 nodes) succeeded, want error")
	}
	if err := b.Configure(2, Policy("bogus"), false, 2); err == nil {
		t.Fatal("Configure(bogus policy) succeeded, want error")
	}
}

// burstEntries counts the entries of burst storage b retains: the
// arrays of lanes deeper than their carve plus the spares.
func burstEntries(b *Bank) int {
	n := 0
	for i := range b.lanes {
		if c := cap(b.lanes[i].rest.items); c > b.perNode {
			n += c
		}
	}
	for _, class := range b.spare {
		for _, items := range class {
			n += cap(items)
		}
	}
	return n
}

// TestBankBurstStorageTracksDepth drives bursts through a 4096-lane
// bank: each round, eight random lanes take twelve tasks apiece and then
// drain. Far more lanes burst over a long run than over a short one,
// but never more than eight at once, so the burst storage the bank
// retains must not grow with the run's length — a lane that kept its
// burst array after draining made it grow with the count of lanes that
// ever burst. Once warm, a round allocates nothing.
func TestBankBurstStorageTracksDepth(t *testing.T) {
	const nodes, deep, depth = 4096, 8, 12
	b := NewBank()
	if err := b.Configure(nodes, EDF, false, 2); err != nil {
		t.Fatal(err)
	}
	r := rng.New(3)
	tasks := make([]task.Task, deep*depth)
	for i := range tasks {
		tasks[i] = task.Task{ID: uint64(i + 1), Seq: uint64(i + 1), Deadline: float64(i % depth)}
	}
	lanes := make([]int, deep)
	round := func() {
		for j := range lanes {
			lanes[j] = r.IntN(nodes)
			for k := 0; k < depth; k++ {
				b.Push(lanes[j], &tasks[j*depth+k])
			}
		}
		for _, i := range lanes {
			for b.Pop(i, 0) != nil {
			}
		}
	}
	for i := 0; i < 50; i++ {
		round()
	}
	short := burstEntries(b)
	for i := 0; i < 450; i++ {
		round()
	}
	long := burstEntries(b)
	t.Logf("burst storage: %d entries after 50 rounds, %d after 500", short, long)
	if long > short {
		t.Errorf("burst storage grew from %d to %d entries with the run's length", short, long)
	}
	if limit := 4 * deep * depth; long > limit {
		t.Errorf("burst storage holds %d entries for %d lanes %d deep, want <= %d", long, deep, depth, limit)
	}
	if allocs := testing.AllocsPerRun(20, round); allocs != 0 {
		t.Errorf("a warm burst round allocated %v times, want 0", allocs)
	}
}
