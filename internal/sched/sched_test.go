package sched

import (
	"sort"
	"testing"

	"repro/internal/rng"
	"repro/internal/task"
)

func mkTask(seq uint64, class task.Class, deadline, pex float64) *task.Task {
	return &task.Task{Seq: seq, Class: class, Deadline: deadline, Pex: pex}
}

// newQueue returns a one-node bank: node 0's ready queue under the
// policy.
func newQueue(t testing.TB, p Policy, globalsFirst bool) *Bank {
	t.Helper()
	b := NewBank()
	if err := b.Configure(1, p, globalsFirst, 4); err != nil {
		t.Fatal(err)
	}
	return b
}

func drain(b *Bank, now float64) []*task.Task {
	var out []*task.Task
	for b.Len(0) > 0 {
		out = append(out, b.Pop(0, now))
	}
	return out
}

func TestEDFOrder(t *testing.T) {
	q := newQueue(t, EDF, false)
	q.Push(0, mkTask(1, task.Local, 30, 1))
	q.Push(0, mkTask(2, task.Local, 10, 1))
	q.Push(0, mkTask(3, task.Local, 20, 1))
	got := drain(q, 0)
	want := []float64{10, 20, 30}
	for i, tk := range got {
		if tk.Deadline != want[i] {
			t.Fatalf("pop %d deadline = %v, want %v", i, tk.Deadline, want[i])
		}
	}
}

func TestEDFFIFOTieBreak(t *testing.T) {
	q := newQueue(t, EDF, false)
	for seq := uint64(1); seq <= 5; seq++ {
		q.Push(0, mkTask(seq, task.Local, 10, 1))
	}
	got := drain(q, 0)
	for i, tk := range got {
		if tk.Seq != uint64(i+1) {
			t.Fatalf("equal deadlines not FIFO: pop %d has seq %d", i, tk.Seq)
		}
	}
}

func TestPopEmptyReturnsNil(t *testing.T) {
	for _, p := range []Policy{EDF, MLF, FCFS} {
		for _, gf := range []bool{false, true} {
			q := newQueue(t, p, gf)
			if got := q.Pop(0, 0); got != nil {
				t.Errorf("%s/globalsFirst=%t: Pop on empty = %v, want nil", p, gf, got)
			}
			if q.Len(0) != 0 {
				t.Errorf("%s/globalsFirst=%t: Len on empty = %d", p, gf, q.Len(0))
			}
		}
	}
}

func TestMLFOrdersByLaxity(t *testing.T) {
	q := newQueue(t, MLF, false)
	// Laxity at dispatch = dl − now − pex. Task A: dl=20 pex=8 -> key 12.
	// Task B: dl=15 pex=1 -> key 14. EDF would pick B first; MLF picks A.
	a := mkTask(1, task.Local, 20, 8)
	b := mkTask(2, task.Local, 15, 1)
	q.Push(0, b)
	q.Push(0, a)
	if got := q.Pop(0, 5); got != a {
		t.Fatalf("MLF popped seq %d, want the lower-laxity task", got.Seq)
	}
	if got := q.Pop(0, 5); got != b {
		t.Fatalf("MLF second pop = seq %d, want b", got.Seq)
	}
}

func TestFCFSOrder(t *testing.T) {
	// Tasks are pushed in arrival (seq) order — as the generators do —
	// and must pop in that order regardless of deadlines.
	q := newQueue(t, FCFS, false)
	q.Push(0, mkTask(1, task.Local, 99, 1))
	q.Push(0, mkTask(2, task.Local, 50, 1))
	q.Push(0, mkTask(3, task.Local, 1, 1)) // earliest deadline, latest arrival
	got := drain(q, 0)
	for i, tk := range got {
		if tk.Seq != uint64(i+1) {
			t.Fatalf("FCFS out of arrival order: pop %d has seq %d", i, tk.Seq)
		}
	}
}

func TestFCFSPreemptRequeue(t *testing.T) {
	// A preemptive node re-queues the task it suspends; its seq is below
	// everything queued, so the (key 0, seq) order puts it back in front.
	q := newQueue(t, FCFS, false)
	for seq := uint64(1); seq <= 5; seq++ {
		q.Push(0, mkTask(seq, task.Local, 10, 1))
	}
	first := q.Pop(0, 0)
	if first.Seq != 1 {
		t.Fatalf("first pop seq %d, want 1", first.Seq)
	}
	q.Push(0, first) // preemption re-queue
	want := []uint64{1, 2, 3, 4, 5}
	for i, tk := range drain(q, 0) {
		if tk.Seq != want[i] {
			t.Fatalf("pop %d has seq %d, want %d", i, tk.Seq, want[i])
		}
	}
}

func TestFCFSWrapAround(t *testing.T) {
	// Interleaved pushes and pops keep FIFO order while the lane grows
	// well past its 4-entry arena carve.
	q := newQueue(t, FCFS, false)
	seq, expect := uint64(0), uint64(0)
	for round := 0; round < 50; round++ {
		for i := 0; i < 3; i++ {
			seq++
			q.Push(0, mkTask(seq, task.Local, 10, 1))
		}
		for i := 0; i < 2; i++ {
			expect++
			if tk := q.Pop(0, 0); tk == nil || tk.Seq != expect {
				t.Fatalf("round %d: pop = %v, want seq %d", round, tk, expect)
			}
		}
	}
	for tk := q.Pop(0, 0); tk != nil; tk = q.Pop(0, 0) {
		expect++
		if tk.Seq != expect {
			t.Fatalf("drain pop has seq %d, want %d", tk.Seq, expect)
		}
	}
	if expect != seq {
		t.Fatalf("drained %d tasks, pushed %d", expect, seq)
	}
}

func TestClassPriorityGlobalsFirst(t *testing.T) {
	q := newQueue(t, EDF, true)
	// A local with a very early deadline must still wait for globals.
	early := mkTask(1, task.Local, 1, 1)
	g1 := mkTask(2, task.Global, 100, 1)
	g2 := mkTask(3, task.Global, 50, 1)
	q.Push(0, early)
	q.Push(0, g1)
	q.Push(0, g2)
	if q.Len(0) != 3 {
		t.Fatalf("Len = %d, want 3", q.Len(0))
	}
	if got := q.Pop(0, 0); got != g2 {
		t.Fatalf("first pop seq %d, want the earliest-deadline global", got.Seq)
	}
	if got := q.Pop(0, 0); got != g1 {
		t.Fatalf("second pop seq %d, want the remaining global", got.Seq)
	}
	if got := q.Pop(0, 0); got != early {
		t.Fatalf("third pop seq %d, want the local", got.Seq)
	}
}

// TestClassPriorityEqualDeadlines pins the previously untested edge: a
// mixed push sequence where locals and globals share deadlines. Class
// dominates (all globals first, even those pushed after locals with the
// same deadline) and within each class equal deadlines drain FIFO by
// submission sequence.
func TestClassPriorityEqualDeadlines(t *testing.T) {
	q := newQueue(t, EDF, true)
	// Interleaved pushes, two deadline groups shared across classes.
	l1 := mkTask(1, task.Local, 10, 1)
	g1 := mkTask(2, task.Global, 10, 1)
	l2 := mkTask(3, task.Local, 10, 1)
	g2 := mkTask(4, task.Global, 10, 1)
	g3 := mkTask(5, task.Global, 5, 1)
	l3 := mkTask(6, task.Local, 5, 1)
	for _, tk := range []*task.Task{l1, g1, l2, g2, g3, l3} {
		q.Push(0, tk)
	}
	want := []*task.Task{
		g3,     // earliest-deadline global
		g1, g2, // equal-deadline globals, FIFO by seq
		l3,     // only then locals, earliest deadline first
		l1, l2, // equal-deadline locals, FIFO by seq
	}
	got := drain(q, 0)
	if len(got) != len(want) {
		t.Fatalf("drained %d tasks, want %d", len(got), len(want))
	}
	for i := range want {
		if got[i] != want[i] {
			t.Errorf("pop %d = seq %d, want seq %d", i, got[i].Seq, want[i].Seq)
		}
	}
}

// TestGlobalsFirstFactoryEqualDeadlines repeats the equal-deadline check
// for every policy under globals-first, the configuration the system
// package builds for GF.
func TestGlobalsFirstFactoryEqualDeadlines(t *testing.T) {
	for _, p := range []Policy{EDF, MLF, FCFS} {
		q := newQueue(t, p, true)
		g := mkTask(1, task.Global, 10, 1)
		l := mkTask(2, task.Local, 10, 1)
		g2 := mkTask(3, task.Global, 10, 1)
		q.Push(0, l)
		q.Push(0, g)
		q.Push(0, g2)
		got := drain(q, 0)
		if got[0] != g || got[1] != g2 || got[2] != l {
			t.Errorf("%s: order = %v,%v,%v, want globals (FIFO) then local",
				p, got[0].Seq, got[1].Seq, got[2].Seq)
		}
	}
}

func TestPolicyValidate(t *testing.T) {
	tests := []struct {
		policy  Policy
		wantErr bool
	}{
		{policy: EDF},
		{policy: MLF},
		{policy: FCFS},
		{policy: Policy("??"), wantErr: true},
		{policy: Policy("edf"), wantErr: true},
		{policy: Policy(""), wantErr: true},
	}
	for _, tt := range tests {
		if err := tt.policy.Validate(); (err != nil) != tt.wantErr {
			t.Errorf("Policy(%q).Validate() = %v, wantErr %v", tt.policy, err, tt.wantErr)
		}
	}
}

func TestEDFRandomizedAgainstSort(t *testing.T) {
	r := rng.New(321)
	for trial := 0; trial < 200; trial++ {
		q := newQueue(t, EDF, false)
		n := 1 + r.IntN(50)
		deadlines := make([]float64, n)
		for i := 0; i < n; i++ {
			deadlines[i] = r.Uniform(0, 100)
			q.Push(0, mkTask(uint64(i), task.Local, deadlines[i], 1))
		}
		sort.Float64s(deadlines)
		for i, want := range deadlines {
			got := q.Pop(0, 0)
			if got == nil || got.Deadline != want {
				t.Fatalf("trial %d pop %d: got %v, want deadline %v", trial, i, got, want)
			}
		}
	}
}

func TestMLFRandomizedAgainstSort(t *testing.T) {
	r := rng.New(654)
	for trial := 0; trial < 200; trial++ {
		q := newQueue(t, MLF, false)
		n := 1 + r.IntN(50)
		keys := make([]float64, n)
		for i := 0; i < n; i++ {
			dl := r.Uniform(0, 100)
			pex := r.Uniform(0.1, 10)
			keys[i] = dl - pex
			q.Push(0, mkTask(uint64(i), task.Local, dl, pex))
		}
		sort.Float64s(keys)
		now := r.Uniform(0, 50)
		for i, want := range keys {
			got := q.Pop(0, now)
			if got == nil || got.Deadline-got.Pex != want {
				t.Fatalf("trial %d pop %d: laxity key mismatch", trial, i)
			}
		}
	}
}

func TestClassPriorityRandomizedInvariant(t *testing.T) {
	// No local is ever popped while a global remains queued.
	r := rng.New(987)
	for trial := 0; trial < 100; trial++ {
		q := newQueue(t, EDF, true)
		globals := 0
		n := 1 + r.IntN(60)
		for i := 0; i < n; i++ {
			class := task.Local
			if r.IntN(2) == 0 {
				class = task.Global
				globals++
			}
			q.Push(0, mkTask(uint64(i), class, r.Uniform(0, 100), 1))
		}
		for q.Len(0) > 0 {
			tk := q.Pop(0, 0)
			if tk.Class == task.Global {
				globals--
			} else if globals > 0 {
				t.Fatalf("local popped while %d globals queued", globals)
			}
		}
	}
}

func BenchmarkEDFPushPop(b *testing.B) {
	q := newQueue(b, EDF, false)
	r := rng.New(1)
	tasks := make([]*task.Task, 1024)
	for i := range tasks {
		tasks[i] = mkTask(uint64(i), task.Local, r.Uniform(0, 1000), 1)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		q.Push(0, tasks[i%1024])
		if i%8 == 7 {
			for q.Len(0) > 0 {
				q.Pop(0, 0)
			}
		}
	}
}
