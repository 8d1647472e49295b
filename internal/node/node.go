// Package node implements the processing nodes of the system model
// (paper section 3.2): each node manages one resource with a single
// non-preemptive server, an independent real-time ready queue, and a
// tardy-task policy. Nodes know nothing about global tasks — they see
// only the real-time attributes attached to each submitted task, which is
// precisely the premise of the SDA problem.
//
// All per-node state lives in a Group in structure-of-arrays layout
// (see group.go), with every node's ready queue in one sched.Bank. The
// simulation addresses nodes by index on the group; a node's ID is its
// index.
package node

import (
	"fmt"

	"repro/internal/task"
	"repro/internal/trace"
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

// Observer receives per-task lifecycle callbacks with the current
// simulation time: trace.Submit when a task enters the queue,
// trace.Dispatch when it starts or resumes service, trace.Preempt when
// a running task is suspended, trace.Complete when it finishes service
// and trace.Abort when a tardy policy discards it. Observers must not
// mutate the task.
type Observer func(ev trace.Kind, now float64, t *task.Task)
