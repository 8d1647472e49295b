// Package node implements the processing nodes of the system model
// (paper section 3.2): each node manages one resource with a single
// non-preemptive server, an independent real-time ready queue, and a
// tardy-task policy. Nodes know nothing about global tasks — they see
// only the real-time attributes attached to each submitted task, which is
// precisely the premise of the SDA problem.
//
// All per-node state lives in a Group in structure-of-arrays layout
// (see group.go), with every node's ready queue in one sched.Bank. The
// simulation addresses nodes by index on the group; Node is a 16-byte
// handle onto one index, built on demand for callers that want a
// per-node view. A node's ID is its index in the group.
package node

import (
	"fmt"

	"repro/internal/task"
)

// TardyPolicy selects what a node does with a task whose deadline has
// already passed when the server would start it.
type TardyPolicy int

const (
	// NoAbort executes tardy tasks to completion (the paper's baseline
	// overload management policy, Table 1).
	NoAbort TardyPolicy = iota + 1
	// AbortAtDispatch discards a task if its (virtual) deadline has
	// passed when it reaches the head of the queue — the paper's
	// "components that discard tasks with a past deadline (virtual or
	// not)" (section 5.3). The task is reported through the abort
	// callback and consumes no service time.
	AbortAtDispatch
	// AbortFirm discards a task only when its FirmDeadline (the
	// end-to-end deadline for subtasks) has passed at dispatch: the
	// component understands which deadline makes the work worthless.
	// Under this semantics DIV-x keeps its promotion benefit without
	// being killed by its deliberately early virtual deadlines.
	AbortFirm
)

// String returns the policy name.
func (p TardyPolicy) String() string {
	switch p {
	case NoAbort:
		return "no-abort"
	case AbortAtDispatch:
		return "abort"
	case AbortFirm:
		return "abort-firm"
	default:
		return fmt.Sprintf("TardyPolicy(%d)", int(p))
	}
}

// ObserverEvent is a lifecycle step reported to an Observer.
type ObserverEvent int

// Observer lifecycle steps.
const (
	// ObserveSubmit fires when a task enters the queue.
	ObserveSubmit ObserverEvent = iota + 1
	// ObserveDispatch fires when a task starts or resumes service.
	ObserveDispatch
	// ObservePreempt fires when a running task is suspended.
	ObservePreempt
	// ObserveComplete fires when a task finishes service.
	ObserveComplete
	// ObserveAbort fires when a tardy policy discards a task.
	ObserveAbort
)

// Observer receives per-task lifecycle callbacks with the current
// simulation time. Observers must not mutate the task.
type Observer func(ev ObserverEvent, now float64, t *task.Task)

// Node is a handle to one simulated processing component inside its
// Group.
type Node struct {
	g   *Group
	idx int32
}

// ID returns the node's index.
func (n *Node) ID() int { return int(n.idx) }

// QueueLen returns the number of tasks waiting (not in service).
func (n *Node) QueueLen() int { return n.g.bank.Len(int(n.idx)) }

// Busy reports whether the server is occupied.
func (n *Node) Busy() bool { return n.g.hot[n.idx].running != nil }

// Served returns the number of tasks that completed service.
func (n *Node) Served() int64 { return int64(n.g.hot[n.idx].served) }

// Aborted returns the number of tasks discarded by the tardy policy.
func (n *Node) Aborted() int64 { return int64(n.g.hot[n.idx].aborted) }

// BusyTime returns accumulated service time (for utilization =
// BusyTime/horizon). Time of a task currently in service counts only
// once it finishes.
func (n *Node) BusyTime() float64 { return n.g.hot[n.idx].busyTime }

// Preemptions returns the number of times a running task was suspended
// (always zero for non-preemptive nodes).
func (n *Node) Preemptions() int64 { return int64(n.g.hot[n.idx].preemptions) }

// Submitted returns the number of tasks submitted to the node. A
// preempted task re-queues without resubmitting, so
// Submitted >= Served + Aborted, with equality for runs that drain.
func (n *Node) Submitted() int64 { return n.g.submitted(int(n.idx)) }

// ReadyQueueHWM returns the deepest the ready queue got (tasks waiting,
// excluding the one in service) — a pure function of the replication's
// event sequence, unlike the instantaneous QueueLen.
func (n *Node) ReadyQueueHWM() int { return int(n.g.hot[n.idx].readyHWM) }

// Speed returns the current service speed factor (1 = nominal, 0 =
// frozen).
func (n *Node) Speed() float64 { return n.g.hot[n.idx].speed }

// SetSpeed changes the node's service speed factor: demand is consumed at
// `speed` work units per time unit, so a task with remaining demand w
// finishes after w/speed. Speed 0 freezes the server (a transient
// outage): the ready queue holds, a task in service is suspended in
// place, and a later SetSpeed > 0 resumes it with its remaining demand
// intact. Fractional speeds model degraded nodes (scenario fault
// injection); BusyTime accrues only while the server actually serves.
// It panics on a negative or NaN speed.
func (n *Node) SetSpeed(speed float64) { n.g.SetSpeed(int(n.idx), speed) }

// Submit enqueues a task at the current simulation time and starts the
// server if it is idle. The task's Arrival must already be set by the
// caller (generator or process manager). On a preemptive node a
// newcomer with an earlier deadline suspends the task in service.
func (n *Node) Submit(t *task.Task) { n.g.Submit(int(n.idx), t) }
