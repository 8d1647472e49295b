package node

import (
	"math"
	"testing"

	"repro/internal/sim"
	"repro/internal/task"
)

func speedTask(id uint64, exec float64) *task.Task {
	return &task.Task{ID: id, Seq: id, Exec: exec, Deadline: 1e9, FirmDeadline: 1e9}
}

func TestSlowdownStretchesService(t *testing.T) {
	eng := sim.New()
	g, rec := newTestNode(t, eng, NoAbort)
	g.Submit(0, speedTask(1, 10))
	// Halve the speed halfway through: 5 units of work done by t=5, the
	// remaining 5 take 10 more time units.
	after(eng, 5, func() { g.SetSpeed(0, 0.5) })
	eng.RunAll()
	if len(rec.done) != 1 {
		t.Fatalf("done = %d tasks, want 1", len(rec.done))
	}
	if got := rec.done[0].Finish; math.Abs(got-15) > 1e-9 {
		t.Errorf("finish = %v, want 15", got)
	}
	if got := g.BusyTime(0); math.Abs(got-15) > 1e-9 {
		t.Errorf("busy time = %v, want 15 (wall-clock while serving)", got)
	}
}

func TestFreezeSuspendsAndResumeCompletes(t *testing.T) {
	eng := sim.New()
	g, rec := newTestNode(t, eng, NoAbort)
	g.Submit(0, speedTask(1, 10))
	g.Submit(0, speedTask(2, 1)) // queued behind task 1
	after(eng, 4, func() { g.SetSpeed(0, 0) })
	after(eng, 9, func() { g.SetSpeed(0, 1) })
	eng.RunAll()
	if len(rec.done) != 2 {
		t.Fatalf("done = %d tasks, want 2", len(rec.done))
	}
	// Task 1: 4 units done before the freeze, 6 remaining after the
	// 5-unit outage: finish at 4 + 5 + 6 = 15. Task 2 follows.
	if got := rec.done[0].Finish; math.Abs(got-15) > 1e-9 {
		t.Errorf("task 1 finish = %v, want 15", got)
	}
	if got := rec.done[1].Finish; math.Abs(got-16) > 1e-9 {
		t.Errorf("task 2 finish = %v, want 16", got)
	}
	// The 5 frozen units are not busy time: 10 + 1 units of service.
	if got := g.BusyTime(0); math.Abs(got-11) > 1e-9 {
		t.Errorf("busy time = %v, want 11 (outage excluded)", got)
	}
}

func TestFreezeHoldsQueueOnIdleNode(t *testing.T) {
	eng := sim.New()
	g, rec := newTestNode(t, eng, NoAbort)
	g.SetSpeed(0, 0)
	g.Submit(0, speedTask(1, 2))
	eng.RunAll()
	if len(rec.done) != 0 {
		t.Fatal("frozen node served a task")
	}
	if g.bank.Len(0) != 1 {
		t.Fatalf("queue length = %d, want 1", g.bank.Len(0))
	}
	g.SetSpeed(0, 1)
	eng.RunAll()
	if len(rec.done) != 1 {
		t.Fatal("thawed node did not pick up the queued task")
	}
	if got := rec.done[0].Finish; math.Abs(got-2) > 1e-9 {
		t.Errorf("finish = %v, want 2", got)
	}
}

func TestRedundantSetSpeedIsNoOp(t *testing.T) {
	eng := sim.New()
	g, rec := newTestNode(t, eng, NoAbort)
	g.Submit(0, speedTask(1, 10))
	after(eng, 3, func() { g.SetSpeed(0, 1) }) // same speed: no resettle
	eng.RunAll()
	if len(rec.done) != 1 || rec.done[0].Finish != 10 {
		t.Fatalf("done = %+v, want one task finishing at 10", rec.done)
	}
	if got := g.hot[0].speed; got != 1 {
		t.Errorf("speed = %v, want 1", got)
	}
}

func TestSetSpeedPanicsOnBadValues(t *testing.T) {
	eng := sim.New()
	g, _ := newTestNode(t, eng, NoAbort)
	for _, s := range []float64{-0.5, math.NaN()} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("SetSpeed(%v) did not panic", s)
				}
			}()
			g.SetSpeed(0, s)
		}()
	}
}
