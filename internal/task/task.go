// Package task defines the task model of Kao & Garcia-Molina (section 3.1):
// local tasks and global serial-parallel tasks with the five timing
// attributes — arrival time ar(X), deadline dl(X), slack sl(X), real
// execution time ex(X) and predicted execution time pex(X) — related by
// dl(X) = ar(X) + ex(X) + sl(X).
//
// A global task is a serial-parallel composition: [T1 T2 ... Tn] executes
// the subtasks in order, [T1 || T2 || ... || Tn] executes them in parallel
// and finishes when all branches finish. Subtasks may themselves be
// serial-parallel (complex subtasks). The Graph type in graph.go models
// this algebra; Task is the schedulable unit (a local task or a simple
// subtask) that node schedulers see.
package task

import "fmt"

// Class distinguishes the two task populations of the model. Local tasks
// execute at exactly one node; Global marks simple subtasks that belong to
// a distributed global task.
type Class uint8

const (
	// Local is a task generated at (and confined to) a single node.
	Local Class = iota + 1
	// Global marks a simple subtask of a distributed global task.
	Global
)

// String returns the class name used in reports ("local"/"global").
func (c Class) String() string {
	switch c {
	case Local:
		return "local"
	case Global:
		return "global"
	default:
		return fmt.Sprintf("Class(%d)", uint8(c))
	}
}

// Task is the unit of work a node scheduler handles: either a local task
// or a simple subtask of a global task carrying its assigned virtual
// deadline. Fields follow the paper's attribute names. They are ordered
// widest first so the record has no padding hole: every in-flight task
// of a run is one of these, so its size is the simulator's per-task
// memory.
type Task struct {
	// ID is unique within a run, assigned by the workload generators.
	ID uint64
	// GlobalID identifies the owning global task instance for Global
	// subtasks; zero for local tasks.
	GlobalID uint64

	// Arrival is ar(X): submission time at the node. For a subtask this
	// is when its precedence constraints released it.
	Arrival float64
	// Deadline is dl(X): the real deadline for a local task, the
	// assigned virtual deadline for a subtask.
	Deadline float64
	// FirmDeadline is the deadline after which the work is truly
	// worthless: the end-to-end deadline of the owning global task for
	// subtasks, the task's own deadline for locals. The AbortFirm
	// tardy policy discards on this instead of the virtual deadline.
	FirmDeadline float64
	// Exec is ex(X): the actual service demand. The scheduler never
	// reads it; only the node's server does.
	Exec float64
	// Pex is pex(X): the predicted service demand available to
	// deadline-assignment strategies and laxity-based schedulers.
	Pex float64

	// Finish records completion (or the discard time of an aborted
	// task); filled by the node. Zero until then. The first-dispatch
	// time is not kept: a node Observer sees it as ObserveDispatch.
	Finish float64

	// Remaining is the unserved demand, maintained by preemptive nodes
	// (an extension beyond the paper's non-preemptive model). Zero
	// means "not yet dispatched"; nodes initialize it to Exec on first
	// dispatch.
	Remaining float64

	// Seq is a monotonically increasing submission sequence number used
	// by schedulers for deterministic FIFO tie-breaking.
	Seq uint64

	// Stage identifies the leaf of the owning global task's graph (the
	// leaf index assigned by Graph.Flatten); -1 for local tasks.
	Stage int32
	// NodeID is the node the task executes at.
	NodeID int32
	// Ref is the process manager's dense index for the in-flight
	// continuation of a Global subtask: the manager's pending tables
	// are slices indexed by Ref instead of a map keyed by ID. Owned by
	// the manager; meaningless (zero) for local tasks.
	Ref int32
	// Class is Local or Global.
	Class Class
}

// Slack returns sl(X) = dl(X) − ar(X) − ex(X), the paper's slack relation
// inverted for a fully specified task.
func (t *Task) Slack() float64 { return t.Deadline - t.Arrival - t.Exec }

// Flexibility returns fl(X) = sl(X)/ex(X) (paper section 3.1). It reports
// +Inf-free results only for positive Exec; callers guard degenerate
// tasks.
func (t *Task) Flexibility() float64 { return t.Slack() / t.Exec }

// Laxity returns the remaining scheduling freedom at time now assuming
// the predicted demand: dl − now − pex. Minimum-laxity-first scheduling
// orders tasks by this value.
func (t *Task) Laxity(now float64) float64 { return t.Deadline - now - t.Pex }

// Missed reports whether the task finished after its deadline. It is only
// meaningful once Finish is set.
func (t *Task) Missed() bool { return t.Finish > t.Deadline }
