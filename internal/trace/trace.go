// Package trace records per-task lifecycle events from a simulation run:
// submissions, dispatches, preemptions, completions and aborts, with
// simulation timestamps and task attributes. A Recorder is attached
// through system.Config.Trace; the resulting event log supports
// debugging ("why did this deadline miss?"), per-node Gantt-style
// reconstruction, and external analysis via CSV export.
package trace

import (
	"fmt"
	"io"
	"strconv"

	"repro/internal/task"
)

// Kind is the lifecycle event type.
type Kind uint8

// Lifecycle kinds, in causal order.
const (
	// Submit is a task entering a node's queue.
	Submit Kind = iota + 1
	// Dispatch is a task starting (or resuming) service.
	Dispatch
	// Preempt is a running task being suspended (preemptive nodes).
	Preempt
	// Complete is a task finishing service.
	Complete
	// Abort is a task discarded by a tardy policy.
	Abort
)

// String returns the kind name used in CSV output.
func (k Kind) String() string {
	switch k {
	case Submit:
		return "submit"
	case Dispatch:
		return "dispatch"
	case Preempt:
		return "preempt"
	case Complete:
		return "complete"
	case Abort:
		return "abort"
	default:
		return fmt.Sprintf("Kind(%d)", uint8(k))
	}
}

// Event is one recorded lifecycle step.
type Event struct {
	// T is the simulation time of the event.
	T float64
	// Kind is the lifecycle step.
	Kind Kind
	// TaskID, GlobalID, Stage, Class and Node identify the task; see
	// task.Task.
	TaskID   uint64
	GlobalID uint64
	Stage    int
	Class    task.Class
	Node     int
	// Deadline is the task's (virtual) deadline at the time of the
	// event.
	Deadline float64
}

// Recorder accumulates events up to a capacity; past it, new events are
// counted as dropped rather than evicting old ones (the head of a run is
// usually what analyses need, and bounded memory is non-negotiable for
// million-task runs).
type Recorder struct {
	cap     int
	events  []Event
	dropped int64
}

// NewRecorder returns a recorder holding up to capacity events;
// capacity <= 0 means unbounded.
func NewRecorder(capacity int) *Recorder {
	return &Recorder{cap: capacity}
}

// Record appends an event, honouring the capacity.
func (r *Recorder) Record(e Event) {
	if r.cap > 0 && len(r.events) >= r.cap {
		r.dropped++
		return
	}
	r.events = append(r.events, e)
}

// Len returns the number of retained events.
func (r *Recorder) Len() int { return len(r.events) }

// Dropped returns the number of events discarded over capacity.
func (r *Recorder) Dropped() int64 { return r.dropped }

// Events returns a copy of the retained events in record order.
func (r *Recorder) Events() []Event {
	out := make([]Event, len(r.events))
	copy(out, r.events)
	return out
}

// CountByKind tallies retained events per kind.
func (r *Recorder) CountByKind() map[Kind]int {
	counts := make(map[Kind]int, 5)
	for _, e := range r.events {
		counts[e.Kind]++
	}
	return counts
}

// TaskHistory returns the events of one task in record order.
func (r *Recorder) TaskHistory(taskID uint64) []Event {
	var out []Event
	for _, e := range r.events {
		if e.TaskID == taskID {
			out = append(out, e)
		}
	}
	return out
}

// WriteCSV writes the retained events as CSV with a header row.
func (r *Recorder) WriteCSV(w io.Writer) error {
	if _, err := io.WriteString(w, "t,kind,task,global,stage,class,node,deadline\n"); err != nil {
		return err
	}
	buf := make([]byte, 0, 96)
	for _, e := range r.events {
		buf = buf[:0]
		buf = strconv.AppendFloat(buf, e.T, 'g', -1, 64)
		buf = append(buf, ',')
		buf = append(buf, e.Kind.String()...)
		buf = append(buf, ',')
		buf = strconv.AppendUint(buf, e.TaskID, 10)
		buf = append(buf, ',')
		buf = strconv.AppendUint(buf, e.GlobalID, 10)
		buf = append(buf, ',')
		buf = strconv.AppendInt(buf, int64(e.Stage), 10)
		buf = append(buf, ',')
		buf = append(buf, e.Class.String()...)
		buf = append(buf, ',')
		buf = strconv.AppendInt(buf, int64(e.Node), 10)
		buf = append(buf, ',')
		buf = strconv.AppendFloat(buf, e.Deadline, 'g', -1, 64)
		buf = append(buf, '\n')
		if _, err := w.Write(buf); err != nil {
			return err
		}
	}
	return nil
}

// FromTask builds an event from a task at the given time.
func FromTask(kind Kind, now float64, t *task.Task) Event {
	return Event{
		T:        now,
		Kind:     kind,
		TaskID:   t.ID,
		GlobalID: t.GlobalID,
		Stage:    int(t.Stage),
		Class:    t.Class,
		Node:     int(t.NodeID),
		Deadline: t.Deadline,
	}
}
