package node

import (
	"fmt"
	"math"

	"repro/internal/sched"
	"repro/internal/sim"
	"repro/internal/task"
	"repro/internal/trace"
)

// nodeHot is the complete per-node record: the task in service (nil =
// idle server), its pending completion handle, the service speed, the
// start of the current service segment, and the lifecycle counters. It
// is exactly 64 bytes — one cache line per node — so every submit,
// dispatch and complete at a random node touches a single line of this
// array plus the node's ready-queue head, where the former
// struct-of-everything node record spread the same state over three
// lines. The counters are written on the same transitions that write
// the server state, so folding them into the record costs the hot path
// nothing; they ride the line the transition already owns.
//
// The counters are 32-bit: a node would need 2^32 task lifecycles in
// one replication to wrap, which at paper-scale arrival rates is a
// horizon beyond 10^9 time units — two orders of magnitude past any
// experiment in the suite. The accessors widen to int64. There is no
// submission counter: every submitted task is served, aborted, waiting
// or running (a preempted task re-queues without resubmitting), so
// submitted is derived as their sum, which keeps the record at one line
// with a 16-byte completion handle.
//
// The former explicit busy flag is gone: the server is busy exactly
// when running is non-nil. Every state transition set or cleared both
// together (including the speed-0 freeze, which keeps the suspended
// task in running), so the equivalence is an invariant, not a new
// behaviour.
type nodeHot struct {
	running      *task.Task
	completion   sim.Event
	speed        float64 // service speed factor: 1 nominal, 0 frozen
	segmentStart float64
	busyTime     float64 // accumulated service time, for utilization
	served       uint32
	aborted      uint32
	preemptions  uint32
	readyHWM     int32 // deepest the ready queue got (waiting tasks)
}

// Group owns every node of one simulated system in structure-of-arrays
// layout: the per-node server state and counters live in one slice
// indexed by node, the ready queues in one sched.Bank, and all shared
// configuration (engine, policy, callbacks) is stored once on the group
// instead of k times. All k nodes share one registered completion
// callback, scheduled with the node's index as its argument, so setting
// up a large topology costs one closure instead of k, and a completion
// goes straight from the event record to the node's line.
//
// A Group is single-threaded, like the engine that drives it. It is
// reusable: Configure re-points the same backing arrays at a fresh
// run's engine and callbacks, so a reused Workspace re-creates no
// per-node objects.
type Group struct {
	eng        *sim.Engine
	bank       *sched.Bank
	policy     TardyPolicy
	preemptive bool
	observer   Observer
	onDone     func(*task.Task)
	onAbort    func(*task.Task)
	completeCB sim.Callback

	hot []nodeHot
}

// GroupConfig carries the construction parameters shared by every node
// of the group; the ready queues carry the only per-node state.
type GroupConfig struct {
	// Engine drives all nodes.
	Engine *sim.Engine
	// Bank holds every node's ready queue; its configured node count is
	// the group's node count. Required.
	Bank *sched.Bank
	// Policy is the tardy-task policy; zero value defaults to NoAbort.
	Policy TardyPolicy
	// Preemptive enables deadline-based preemption at every node: a
	// newly submitted task with an earlier deadline suspends the task
	// in service, which re-queues with its remaining demand. The
	// paper's model is non-preemptive (Table 1); this is an extension
	// for the ext-preempt ablation.
	Preemptive bool
	// OnDone is called when a task completes service; required.
	OnDone func(*task.Task)
	// OnAbort is called when an abort policy discards a task; required
	// with an abort policy.
	OnAbort func(*task.Task)
	// Observer optionally receives every lifecycle event (for tracing).
	Observer Observer
}

// Configure (re)initializes the group for a new run, reusing the
// backing arrays when the node count is unchanged. It must be called
// after the engine is reset, because it registers the group's
// completion callback on it.
func (g *Group) Configure(cfg GroupConfig) error {
	if cfg.Engine == nil {
		return fmt.Errorf("node group: nil engine")
	}
	if cfg.Bank == nil {
		return fmt.Errorf("node group: nil Bank")
	}
	k := cfg.Bank.Nodes()
	if k == 0 {
		return fmt.Errorf("node group: unconfigured bank")
	}
	if cfg.OnDone == nil {
		return fmt.Errorf("node group: nil OnDone")
	}
	if cfg.Policy == 0 {
		cfg.Policy = NoAbort
	}
	if (cfg.Policy == AbortAtDispatch || cfg.Policy == AbortFirm) && cfg.OnAbort == nil {
		return fmt.Errorf("node group: abort policy requires OnAbort")
	}
	g.eng = cfg.Engine
	g.bank = cfg.Bank
	g.policy, g.preemptive = cfg.Policy, cfg.Preemptive
	g.observer = cfg.Observer
	g.onDone, g.onAbort = cfg.OnDone, cfg.OnAbort
	if cap(g.hot) >= k {
		g.hot = g.hot[:k]
	} else {
		g.hot = make([]nodeHot, k)
	}
	// One registration serves every node: the event's argument is the
	// node index.
	g.completeCB = cfg.Engine.RegisterArg(g.complete)
	for i := range g.hot {
		g.hot[i] = nodeHot{speed: 1}
	}
	return nil
}

// Len returns the node count.
func (g *Group) Len() int { return len(g.hot) }

// Totals is the sum of every node's lifecycle counters since Configure.
type Totals struct {
	// Submitted counts tasks submitted. A preempted task re-queues
	// without resubmitting, so Submitted >= Served + Aborted, with
	// equality for runs that drain.
	Submitted uint64
	// Served counts tasks that completed service, Aborted those the
	// tardy policy discarded, and Preemptions the suspensions of a
	// running task (always zero on non-preemptive nodes).
	Served, Aborted, Preemptions uint64
	// ReadyHWM is the deepest ready queue (tasks waiting, excluding the
	// one in service) any node reached — a pure function of the
	// replication's event sequence.
	ReadyHWM uint64
}

// Totals folds the per-node counters in one pass over the group.
func (g *Group) Totals() Totals {
	var t Totals
	for i := range g.hot {
		h := &g.hot[i]
		t.Submitted += uint64(g.submitted(i))
		t.Served += uint64(h.served)
		t.Aborted += uint64(h.aborted)
		t.Preemptions += uint64(h.preemptions)
		t.ReadyHWM = max(t.ReadyHWM, uint64(h.readyHWM))
	}
	return t
}

// submitted derives node i's submission count: every task submitted is
// served, aborted, waiting or running.
func (g *Group) submitted(i int) int64 {
	h := &g.hot[i]
	n := int64(h.served) + int64(h.aborted) + int64(g.bank.Len(i))
	if h.running != nil {
		n++
	}
	return n
}

// BusyTime returns node i's accumulated service time (for utilization
// = BusyTime/horizon). Time of a task currently in service counts only
// once its service segment ends.
func (g *Group) BusyTime(i int) float64 { return g.hot[i].busyTime }

// Backlog returns the tasks in the system: every node's waiting tasks
// plus the ones in service.
func (g *Group) Backlog() int {
	n := 0
	for i := range g.hot {
		n += g.bank.Len(i)
		if g.hot[i].running != nil {
			n++
		}
	}
	return n
}

// observe reports a lifecycle event if an observer is attached.
func (g *Group) observe(ev trace.Kind, t *task.Task) {
	if g.observer != nil {
		g.observer(ev, g.eng.Now(), t)
	}
}

// Submit enqueues a task at node i at the current simulation time and
// starts the server if it is idle. The task's Arrival must already be
// set by the caller (generator or process manager). On a preemptive
// node a newcomer with an earlier deadline suspends the task in
// service.
func (g *Group) Submit(i int, t *task.Task) {
	t.NodeID = int32(i)
	h := &g.hot[i]
	g.observe(trace.Submit, t)
	g.bank.Push(i, t)
	if g.preemptive {
		// A running task with no work left is completing at this very
		// instant (its completion event is merely ordered after this
		// arrival); suspending it would re-queue it with Remaining 0,
		// which dispatch reads as a first dispatch.
		if running := h.running; running != nil && t.Deadline < running.Deadline &&
			running.Remaining-(g.eng.Now()-h.segmentStart)*h.speed > 0 {
			g.preempt(i) // pushes the suspended task back, deepening the queue
		}
	}
	if l := int32(g.bank.Len(i)); l > h.readyHWM {
		h.readyHWM = l
	}
	g.dispatch(i)
}

// preempt suspends node i's running task and re-queues it with its
// remaining demand.
func (g *Group) preempt(i int) {
	h := &g.hot[i]
	now := g.eng.Now()
	g.eng.Cancel(h.completion)
	cur := h.running
	cur.Remaining -= (now - h.segmentStart) * h.speed
	if h.speed > 0 {
		h.busyTime += now - h.segmentStart
	}
	h.preemptions++
	h.running = nil
	g.observe(trace.Preempt, cur)
	g.bank.Push(i, cur)
}

// dispatch starts node i's next task if the server is idle. The paper's
// model is non-preemptive ("no preemption", section 4.1): once started,
// a task runs to completion unless the node is explicitly preemptive.
func (g *Group) dispatch(i int) {
	h := &g.hot[i]
	if h.running != nil || h.speed == 0 {
		return
	}
	for {
		now := g.eng.Now()
		t := g.bank.Pop(i, now)
		if t == nil {
			return
		}
		if g.shouldAbort(t, now) {
			h.aborted++
			t.Finish = now
			g.observe(trace.Abort, t)
			g.onAbort(t)
			continue
		}
		if t.Remaining == 0 {
			// First dispatch.
			t.Remaining = t.Exec
		}
		h.running = t
		h.segmentStart = now
		g.observe(trace.Dispatch, t)
		h.completion = g.eng.MustScheduleArg(t.Remaining/h.speed, g.completeCB, int32(i))
		return
	}
}

// shouldAbort applies the tardy policy at dispatch time.
func (g *Group) shouldAbort(t *task.Task, now float64) bool {
	switch g.policy {
	case AbortAtDispatch:
		return now > t.Deadline
	case AbortFirm:
		return now > t.FirmDeadline
	default:
		return false
	}
}

// complete finishes node i's task in service and redispatches; it is
// the completion event's handler.
func (g *Group) complete(idx int32) {
	i := int(idx)
	h := &g.hot[i]
	t := h.running
	now := g.eng.Now()
	t.Finish = now
	t.Remaining = 0
	h.running = nil
	h.busyTime += now - h.segmentStart
	h.served++
	g.observe(trace.Complete, t)
	g.onDone(t)
	g.dispatch(i)
}

// SetSpeed changes node i's service speed factor: demand is consumed
// at speed work units per time unit, so a task with remaining demand w
// finishes after w/speed. Speed 0 freezes the server (a transient
// outage): the ready queue holds, a task in service is suspended in
// place, and a later SetSpeed > 0 resumes it with its remaining demand
// intact. Fractional speeds model degraded nodes (scenario fault
// injection); BusyTime accrues only while the server actually serves.
// It panics on a negative or NaN speed.
func (g *Group) SetSpeed(i int, speed float64) {
	if speed < 0 || math.IsNaN(speed) {
		panic(fmt.Sprintf("node %d: SetSpeed(%v)", i, speed))
	}
	h := &g.hot[i]
	if speed == h.speed {
		return
	}
	now := g.eng.Now()
	if h.running != nil {
		if h.speed > 0 {
			// Settle the progress of the current service segment.
			elapsed := now - h.segmentStart
			h.busyTime += elapsed
			h.running.Remaining -= elapsed * h.speed
			if h.running.Remaining < 0 {
				h.running.Remaining = 0
			}
			g.eng.Cancel(h.completion)
			h.completion = sim.Event{}
		}
		h.segmentStart = now
		if speed > 0 {
			h.completion = g.eng.MustScheduleArg(h.running.Remaining/speed, g.completeCB, int32(i))
		}
	}
	h.speed = speed
	// A thawed idle server picks up whatever queued during the freeze.
	g.dispatch(i)
}
