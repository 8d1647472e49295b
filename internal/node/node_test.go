package node

import (
	"math"
	"testing"

	"repro/internal/sched"
	"repro/internal/sim"
	"repro/internal/task"
	"repro/internal/trace"
)

type recorder struct {
	done    []*task.Task
	aborted []*task.Task
	// starts holds each task's first trace.Dispatch time: the node
	// keeps no start time on the task.
	starts map[*task.Task]float64
}

// observe is the recorder's node Observer: it notes first dispatches.
func (r *recorder) observe(ev trace.Kind, now float64, t *task.Task) {
	if ev != trace.Dispatch {
		return
	}
	if r.starts == nil {
		r.starts = map[*task.Task]float64{}
	}
	if _, ok := r.starts[t]; !ok {
		r.starts[t] = now
	}
}

// start returns t's first dispatch time, or -1 if it never started.
func (r *recorder) start(t *task.Task) float64 {
	if at, ok := r.starts[t]; ok {
		return at
	}
	return -1
}

// edfBank returns an EDF ready-queue bank of k nodes.
func edfBank(t testing.TB, k int) *sched.Bank {
	t.Helper()
	bank := sched.NewBank()
	if err := bank.Configure(k, sched.EDF, false, 4); err != nil {
		t.Fatal(err)
	}
	return bank
}

// newGroup builds a group of k nodes over a fresh EDF bank; cfg supplies
// everything but the bank.
func newGroup(t testing.TB, k int, cfg GroupConfig) *Group {
	t.Helper()
	cfg.Bank = edfBank(t, k)
	g := &Group{}
	if err := g.Configure(cfg); err != nil {
		t.Fatal(err)
	}
	return g
}

func newTestNode(t *testing.T, eng *sim.Engine, policy TardyPolicy) (*Group, *recorder) {
	t.Helper()
	rec := &recorder{}
	g := newGroup(t, 1, GroupConfig{
		Engine:   eng,
		Policy:   policy,
		OnDone:   func(tk *task.Task) { rec.done = append(rec.done, tk) },
		OnAbort:  func(tk *task.Task) { rec.aborted = append(rec.aborted, tk) },
		Observer: rec.observe,
	})
	return g, rec
}

// after schedules fn to run delay time units from now on the engine's
// int32-argument path, registering a one-event handler.
func after(eng *sim.Engine, delay float64, fn func()) {
	eng.MustScheduleArg(delay, eng.RegisterArg(func(int32) { fn() }), 0)
}

// TestConfigValidation covers the constructor error paths.
func TestConfigValidation(t *testing.T) {
	eng := sim.New()
	bank := edfBank(t, 1)
	done := func(*task.Task) {}
	tests := []struct {
		name string
		cfg  GroupConfig
	}{
		{name: "nil engine", cfg: GroupConfig{Bank: bank, OnDone: done}},
		{name: "nil queue", cfg: GroupConfig{Engine: eng, OnDone: done}},
		{name: "unconfigured bank", cfg: GroupConfig{Engine: eng, Bank: sched.NewBank(), OnDone: done}},
		{name: "nil OnDone", cfg: GroupConfig{Engine: eng, Bank: bank}},
		{name: "abort without OnAbort", cfg: GroupConfig{Engine: eng, Bank: bank, OnDone: done, Policy: AbortAtDispatch}},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			if err := new(Group).Configure(tt.cfg); err == nil {
				t.Error("Configure succeeded, want error")
			}
		})
	}
}

func TestSingleTaskLifecycle(t *testing.T) {
	eng := sim.New()
	g, rec := newTestNode(t, eng, NoAbort)
	tk := &task.Task{ID: 1, Exec: 2.5, Deadline: 10, Arrival: 0}
	g.Submit(0, tk)
	if g.hot[0].running == nil {
		t.Fatal("node idle after submit")
	}
	eng.RunAll()
	if len(rec.done) != 1 {
		t.Fatalf("done = %d tasks, want 1", len(rec.done))
	}
	if rec.start(tk) != 0 || math.Abs(tk.Finish-2.5) > 1e-12 {
		t.Errorf("Start,Finish = %v,%v want 0,2.5", rec.start(tk), tk.Finish)
	}
	if tk.Missed() {
		t.Error("task within deadline reported missed")
	}
	if g.Totals().Served != 1 || g.hot[0].running != nil {
		t.Errorf("Served=%d Busy=%v", g.Totals().Served, g.hot[0].running != nil)
	}
	if math.Abs(g.BusyTime(0)-2.5) > 1e-12 {
		t.Errorf("BusyTime = %v, want 2.5", g.BusyTime(0))
	}
}

func TestNonPreemptiveEDFOrder(t *testing.T) {
	// A long task with a late deadline is started first; an urgent task
	// arriving later must wait (non-preemption), then queued tasks go in
	// EDF order.
	eng := sim.New()
	g, rec := newTestNode(t, eng, NoAbort)
	long := &task.Task{ID: 1, Seq: 1, Exec: 10, Deadline: 100}
	urgent := &task.Task{ID: 2, Seq: 2, Exec: 1, Deadline: 5}
	late := &task.Task{ID: 3, Seq: 3, Exec: 1, Deadline: 50}
	g.Submit(0, long)
	after(eng, 1, func() { urgent.Arrival = 1; g.Submit(0, urgent) })
	after(eng, 2, func() { late.Arrival = 2; g.Submit(0, late) })
	eng.RunAll()
	if len(rec.done) != 3 {
		t.Fatalf("done = %d, want 3", len(rec.done))
	}
	wantOrder := []uint64{1, 2, 3}
	for i, tk := range rec.done {
		if tk.ID != wantOrder[i] {
			t.Fatalf("completion %d = task %d, want %d", i, tk.ID, wantOrder[i])
		}
	}
	if rec.start(urgent) != 10 {
		t.Errorf("urgent started at %v, want 10 (after the long task)", rec.start(urgent))
	}
	if !urgent.Missed() {
		t.Error("urgent task should have missed its deadline")
	}
}

func TestAbortAtDispatch(t *testing.T) {
	eng := sim.New()
	g, rec := newTestNode(t, eng, AbortAtDispatch)
	blocker := &task.Task{ID: 1, Seq: 1, Exec: 10, Deadline: 100}
	doomed := &task.Task{ID: 2, Seq: 2, Exec: 1, Deadline: 5} // expires while blocker runs
	alive := &task.Task{ID: 3, Seq: 3, Exec: 1, Deadline: 50}
	g.Submit(0, blocker)
	after(eng, 1, func() { g.Submit(0, doomed) })
	after(eng, 2, func() { g.Submit(0, alive) })
	eng.RunAll()
	if len(rec.aborted) != 1 || rec.aborted[0].ID != 2 {
		t.Fatalf("aborted = %v, want task 2 only", rec.aborted)
	}
	if len(rec.done) != 2 {
		t.Fatalf("done = %d, want 2", len(rec.done))
	}
	if g.Totals().Aborted != 1 {
		t.Errorf("Aborted = %d, want 1", g.Totals().Aborted)
	}
	// The aborted task consumed no service: alive starts right at 10.
	if rec.start(alive) != 10 {
		t.Errorf("rec.start(alive) = %v, want 10", rec.start(alive))
	}
}

func TestAbortFirmUsesEndToEndDeadline(t *testing.T) {
	eng := sim.New()
	g, rec := newTestNode(t, eng, AbortFirm)
	blocker := &task.Task{ID: 1, Seq: 1, Exec: 10, Deadline: 100, FirmDeadline: 100}
	// Virtual deadline expires while the blocker runs, but the firm
	// (end-to-end) deadline does not: the task must survive.
	survivor := &task.Task{ID: 2, Seq: 2, Exec: 1, Deadline: 5, FirmDeadline: 50}
	// Both deadlines expire: the task must be discarded.
	doomed := &task.Task{ID: 3, Seq: 3, Exec: 1, Deadline: 5, FirmDeadline: 8}
	g.Submit(0, blocker)
	after(eng, 1, func() { g.Submit(0, survivor); g.Submit(0, doomed) })
	eng.RunAll()

	if len(rec.aborted) != 1 || rec.aborted[0].ID != 3 {
		t.Fatalf("aborted = %v, want only the firm-expired task 3", rec.aborted)
	}
	if len(rec.done) != 2 {
		t.Fatalf("done = %d, want 2 (blocker + survivor)", len(rec.done))
	}
	if !containsID(rec.done, 2) {
		t.Error("virtually-late but firm-feasible task was not executed")
	}
}

func containsID(tasks []*task.Task, id uint64) bool {
	for _, tk := range tasks {
		if tk.ID == id {
			return true
		}
	}
	return false
}

func TestNoAbortRunsTardyTasks(t *testing.T) {
	eng := sim.New()
	g, rec := newTestNode(t, eng, NoAbort)
	blocker := &task.Task{ID: 1, Seq: 1, Exec: 10, Deadline: 100}
	tardy := &task.Task{ID: 2, Seq: 2, Exec: 1, Deadline: 5}
	g.Submit(0, blocker)
	after(eng, 1, func() { g.Submit(0, tardy) })
	eng.RunAll()
	if len(rec.done) != 2 {
		t.Fatalf("done = %d, want 2 (tardy task still runs)", len(rec.done))
	}
	if !tardy.Missed() {
		t.Error("tardy task should be recorded as missed")
	}
}

func TestIdlePeriodBetweenArrivals(t *testing.T) {
	eng := sim.New()
	g, rec := newTestNode(t, eng, NoAbort)
	a := &task.Task{ID: 1, Exec: 1, Deadline: 10}
	b := &task.Task{ID: 2, Exec: 1, Deadline: 20}
	g.Submit(0, a)
	after(eng, 5, func() { b.Arrival = 5; g.Submit(0, b) })
	eng.RunAll()
	if rec.start(b) != 5 {
		t.Errorf("rec.start(b) = %v, want 5 (server idle in between)", rec.start(b))
	}
	if got := g.BusyTime(0); math.Abs(got-2) > 1e-12 {
		t.Errorf("BusyTime = %v, want 2", got)
	}
	if len(rec.done) != 2 {
		t.Errorf("done = %d, want 2", len(rec.done))
	}
}

func TestSubmitSetsNodeID(t *testing.T) {
	eng := sim.New()
	g := newGroup(t, 4, GroupConfig{Engine: eng, OnDone: func(*task.Task) {}})
	tk := &task.Task{ID: 1, Exec: 1, Deadline: 10, NodeID: -1}
	g.Submit(3, tk)
	if tk.NodeID != 3 {
		t.Errorf("NodeID = %d, want the node's index 3", tk.NodeID)
	}
}

func newPreemptiveNode(t *testing.T, eng *sim.Engine) (*Group, *recorder) {
	t.Helper()
	rec := &recorder{}
	g := newGroup(t, 1, GroupConfig{
		Engine: eng, Preemptive: true,
		OnDone:   func(tk *task.Task) { rec.done = append(rec.done, tk) },
		Observer: rec.observe,
	})
	return g, rec
}

func TestPreemptiveEDF(t *testing.T) {
	eng := sim.New()
	g, rec := newPreemptiveNode(t, eng)
	long := &task.Task{ID: 1, Seq: 1, Exec: 10, Deadline: 100}
	urgent := &task.Task{ID: 2, Seq: 2, Exec: 2, Deadline: 6}
	g.Submit(0, long)
	after(eng, 3, func() { urgent.Arrival = 3; g.Submit(0, urgent) })
	eng.RunAll()

	// urgent preempts at t=3, runs 3..5; long resumes and finishes at
	// 5 + remaining 7 = 12.
	if len(rec.done) != 2 {
		t.Fatalf("done = %d, want 2", len(rec.done))
	}
	if rec.done[0] != urgent || rec.done[1] != long {
		t.Fatalf("completion order = [%d %d], want urgent first", rec.done[0].ID, rec.done[1].ID)
	}
	if urgent.Finish != 5 {
		t.Errorf("urgent.Finish = %v, want 5 (preemptive service)", urgent.Finish)
	}
	if urgent.Missed() {
		t.Error("urgent missed despite preemption")
	}
	if long.Finish != 12 {
		t.Errorf("long.Finish = %v, want 12 (resumed with remaining demand)", long.Finish)
	}
	if rec.start(long) != 0 {
		t.Errorf("rec.start(long) = %v, want first dispatch time 0", rec.start(long))
	}
	if g.Totals().Preemptions != 1 {
		t.Errorf("Preemptions = %d, want 1", g.Totals().Preemptions)
	}
	if got := g.BusyTime(0); math.Abs(got-12) > 1e-12 {
		t.Errorf("BusyTime = %v, want 12 (no service lost or duplicated)", got)
	}
}

func TestPreemptionSkippedForLaterDeadline(t *testing.T) {
	eng := sim.New()
	g, rec := newPreemptiveNode(t, eng)
	first := &task.Task{ID: 1, Seq: 1, Exec: 4, Deadline: 10}
	later := &task.Task{ID: 2, Seq: 2, Exec: 1, Deadline: 50}
	g.Submit(0, first)
	after(eng, 1, func() { g.Submit(0, later) })
	eng.RunAll()
	if g.Totals().Preemptions != 0 {
		t.Errorf("Preemptions = %d, want 0 (later deadline must not preempt)", g.Totals().Preemptions)
	}
	if rec.done[0] != first {
		t.Error("first task should finish first")
	}
}

// TestPreemptionAtCompletionInstant submits an urgent task at the exact
// instant the running task completes, with the arrival ordered before
// the completion event. The running task has no work left, so it must
// not be preempted: suspending it would re-queue it with Remaining 0 and
// restart it from scratch on its next dispatch.
func TestPreemptionAtCompletionInstant(t *testing.T) {
	eng := sim.New()
	g, rec := newPreemptiveNode(t, eng)
	a := &task.Task{ID: 1, Seq: 1, Exec: 4, Deadline: 100}
	urgent := &task.Task{ID: 2, Seq: 2, Exec: 1, Deadline: 10}
	// Scheduled before a's completion event exists, so it fires first
	// at t=4.
	after(eng, 4, func() { urgent.Arrival = 4; g.Submit(0, urgent) })
	g.Submit(0, a)
	eng.RunAll()
	if len(rec.done) != 2 || rec.done[0] != a || rec.done[1] != urgent {
		var ids []uint64
		for _, tk := range rec.done {
			ids = append(ids, tk.ID)
		}
		t.Fatalf("completion order = %v, want [1 2]", ids)
	}
	if rec.start(a) != 0 || a.Finish != 4 {
		t.Errorf("a Start,Finish = %v,%v, want 0,4", rec.start(a), a.Finish)
	}
	if urgent.Finish != 5 {
		t.Errorf("urgent.Finish = %v, want 5", urgent.Finish)
	}
	if g.Totals().Preemptions != 0 {
		t.Errorf("Preemptions = %d, want 0", g.Totals().Preemptions)
	}
	if got := g.BusyTime(0); got != 5 {
		t.Errorf("BusyTime = %v, want 5", got)
	}
}

func TestPreemptionChain(t *testing.T) {
	// Successively more urgent arrivals nest preemptions.
	eng := sim.New()
	g, _ := newPreemptiveNode(t, eng)
	a := &task.Task{ID: 1, Seq: 1, Exec: 9, Deadline: 100}
	b := &task.Task{ID: 2, Seq: 2, Exec: 5, Deadline: 50}
	c := &task.Task{ID: 3, Seq: 3, Exec: 1, Deadline: 10}
	g.Submit(0, a)
	after(eng, 1, func() { g.Submit(0, b) })
	after(eng, 2, func() { g.Submit(0, c) })
	eng.RunAll()
	// c: 2..3. b: 1..2 then 3..7. a: 0..1 then 7..15.
	if c.Finish != 3 || b.Finish != 7 || a.Finish != 15 {
		t.Errorf("finish times = %v/%v/%v, want 3/7/15", c.Finish, b.Finish, a.Finish)
	}
	if g.Totals().Preemptions != 2 {
		t.Errorf("Preemptions = %d, want 2", g.Totals().Preemptions)
	}
}

func TestTardyPolicyString(t *testing.T) {
	if NoAbort.String() != "no-abort" || AbortAtDispatch.String() != "abort" {
		t.Error("policy names changed")
	}
	if TardyPolicy(9).String() != "TardyPolicy(9)" {
		t.Error("unknown policy formatting changed")
	}
}
