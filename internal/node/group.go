package node

import (
	"fmt"
	"math"

	"repro/internal/sched"
	"repro/internal/sim"
	"repro/internal/task"
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
// experiment in the suite (the engine's own sequence space bounds a
// run at ~4.4e12 events total). The accessors widen to int64.
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
	submitted    uint32
	readyHWM     int32 // deepest the ready queue got (waiting tasks)
	_            int32 // pad to one cache line
}

// Group owns every node of one simulated system in structure-of-arrays
// layout: the per-node server state and counters live in one slice
// indexed by node, the ready queues in one sched.Bank, and all shared
// configuration (engine, policy, callbacks) is stored once on the group
// instead of k times. All k nodes share one registered completion
// callback (the completing task's NodeID routes it), so setting up a
// large topology costs one closure instead of k.
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

// NewGroup returns a configured group.
func NewGroup(cfg GroupConfig) (*Group, error) {
	g := &Group{}
	if err := g.Configure(cfg); err != nil {
		return nil, err
	}
	return g, nil
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
	// One registration serves every node: the payload task's NodeID
	// (set at Submit) routes the completion.
	g.completeCB = cfg.Engine.Register(func(p any) {
		t := p.(*task.Task)
		g.complete(t.NodeID, t)
	})
	for i := range g.hot {
		g.hot[i] = nodeHot{speed: 1}
	}
	return nil
}

// Len returns the node count.
func (g *Group) Len() int { return len(g.hot) }

// Node returns a handle to the i'th node. Handles are built on demand:
// the group keeps no per-node handle array, and every consumer on the
// simulation path addresses nodes by index instead.
func (g *Group) Node(i int) *Node { return &Node{g: g, idx: int32(i)} }

// Totals is the sum of every node's lifecycle counters since Configure.
type Totals struct {
	Submitted, Served, Aborted, Preemptions uint64
	// ReadyHWM is the deepest ready queue any node reached.
	ReadyHWM uint64
}

// Totals folds the per-node counters in one pass over the group.
func (g *Group) Totals() Totals {
	var t Totals
	for i := range g.hot {
		h := &g.hot[i]
		t.Submitted += uint64(h.submitted)
		t.Served += uint64(h.served)
		t.Aborted += uint64(h.aborted)
		t.Preemptions += uint64(h.preemptions)
		t.ReadyHWM = max(t.ReadyHWM, uint64(h.readyHWM))
	}
	return t
}

// BusyTime returns node i's accumulated service time; see
// Node.BusyTime.
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
func (g *Group) observe(ev ObserverEvent, t *task.Task) {
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
	t.NodeID = i
	h := &g.hot[i]
	h.submitted++
	g.observe(ObserveSubmit, t)
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
	g.observe(ObservePreempt, cur)
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
			g.observe(ObserveAbort, t)
			g.onAbort(t)
			continue
		}
		if t.Remaining == 0 {
			// First dispatch.
			t.Remaining = t.Exec
			t.Start = now
		}
		h.running = t
		h.segmentStart = now
		g.observe(ObserveDispatch, t)
		h.completion = g.eng.MustScheduleCall(t.Remaining/h.speed, g.completeCB, t)
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

// complete finishes node i's task in service and redispatches.
func (g *Group) complete(i int, t *task.Task) {
	h := &g.hot[i]
	now := g.eng.Now()
	t.Finish = now
	t.Remaining = 0
	h.running = nil
	h.busyTime += now - h.segmentStart
	h.served++
	g.observe(ObserveComplete, t)
	g.onDone(t)
	g.dispatch(i)
}

// SetSpeed changes node i's service speed factor; see Node.SetSpeed.
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
			h.completion = g.eng.MustScheduleCall(h.running.Remaining/speed, g.completeCB, h.running)
		}
	}
	h.speed = speed
	// A thawed idle server picks up whatever queued during the freeze.
	g.dispatch(i)
}
