package sched

import (
	"fmt"

	"repro/internal/task"
)

// Bank is a set of per-node ready queues stored in one contiguous arena
// instead of k separately allocated queue objects. Every policy is
// expressed as a keyed entry-heap — EDF keys by deadline, MLF by
// dl − pex (the dispatch-time laxity dl − now − pex minus a term common
// to every waiting task), FCFS by a constant 0 so the (key, seq)
// tie-break degenerates to pure submission order. That includes the
// preempted-task front-requeue: a re-queued task's Seq is below every
// task that arrived while it ran, so the heap serves it first. The
// cross-check test in bank_test.go drives the bank against a
// linear-scan reference for every policy × globalsFirst combination.
//
// The globals-first class priority of the GF strategy becomes two lanes
// per node: lane 2i holds node i's Global subtasks, lane 2i+1 its Local
// tasks, and Pop drains the globals lane first. Without globalsFirst
// there is one lane per node.
//
// Each lane's initial backing array is carved out of one shared arena
// with a full slice expression, so a lane that outgrows its carve
// reallocates only itself; the others keep their arena slot. At 64k
// nodes this turns 64k–128k queue allocations into two and keeps the
// per-node queue heads densely packed — the dominant share of the
// dispatch path's working set.
//
// Each lane additionally caches its minimum entry inside the lane
// record itself (see lane), so the overwhelmingly common shallow-queue
// operations — push to an empty lane, pop of the only waiting task —
// touch just the lane's own cache line and never reach the arena.
// Entries are totally ordered by (key, seq) with seq unique, so the
// cached-top layout pops in exactly the order of a plain heap; results
// are byte-identical.
type Bank struct {
	globalsFirst bool
	mlf, fcfs    bool
	nodes        int
	perNode      int
	lanes        []lane
	arena        []entry
}

// lane is one node's ready queue: the current minimum entry stored
// inline plus a heap of the rest. n is the total entry count (top +
// rest); n == 0 means top is unset. The record is 56 bytes, so a lane
// never straddles more than two cache lines and the depth-0/1 fast
// paths touch one.
type lane struct {
	n    int32
	top  entry
	rest entryHeap
}

// push inserts an entry, keeping top the (key, seq) minimum.
func (l *lane) push(e entry) {
	if l.n == 0 {
		l.top = e
		l.n = 1
		return
	}
	if e.key < l.top.key || (e.key == l.top.key && e.seq < l.top.seq) {
		l.rest.pushEntry(l.top)
		l.top = e
	} else {
		l.rest.pushEntry(e)
	}
	l.n++
}

// pop removes and returns the minimum entry's task, or nil when empty.
func (l *lane) pop() *task.Task {
	if l.n == 0 {
		return nil
	}
	t := l.top.t
	l.n--
	if l.n > 0 {
		l.top = l.rest.popEntry()
	} else {
		l.top = entry{}
	}
	return t
}

// reset empties the lane, keeping the rest heap's backing array.
func (l *lane) reset() {
	l.n = 0
	l.top = entry{}
	l.rest.reset()
}

// NewBank returns an empty bank; Configure sizes it.
func NewBank() *Bank { return &Bank{} }

// Configure (re)initializes the bank for nodes queues of the given
// policy, pre-sizing each lane for perNode entries. When the shape
// (nodes, globalsFirst, perNode) matches the previous configuration the
// lanes are reset in place — lanes that grew past their carve keep
// their larger private arrays — so a warm workspace pays no queue
// allocations at all.
func (b *Bank) Configure(nodes int, p Policy, globalsFirst bool, perNode int) error {
	if err := p.Validate(); err != nil {
		return err
	}
	if nodes <= 0 {
		return fmt.Errorf("sched: bank of %d nodes", nodes)
	}
	if perNode < 1 {
		perNode = 1
	}
	b.globalsFirst = globalsFirst
	b.mlf, b.fcfs = p == MLF, p == FCFS
	laneCount := nodes
	if globalsFirst {
		laneCount = 2 * nodes
	}
	if b.nodes == nodes && len(b.lanes) == laneCount && b.perNode == perNode {
		for i := range b.lanes {
			b.lanes[i].reset()
		}
		return nil
	}
	b.nodes, b.perNode = nodes, perNode
	b.lanes = make([]lane, laneCount)
	b.arena = make([]entry, laneCount*perNode)
	for i := range b.lanes {
		off := i * perNode
		// Full slice expression: append beyond perNode moves this lane
		// to its own array instead of clobbering the neighbour's carve.
		b.lanes[i].rest.items = b.arena[off : off : off+perNode]
	}
	return nil
}

// Nodes returns the configured node count.
func (b *Bank) Nodes() int { return b.nodes }

// key computes the heap ordering key for the configured policy.
func (b *Bank) key(t *task.Task) float64 {
	switch {
	case b.fcfs:
		return 0
	case b.mlf:
		return t.Deadline - t.Pex
	default:
		return t.Deadline
	}
}

// Push adds a task to node i's queue.
func (b *Bank) Push(i int, t *task.Task) {
	li := i
	if b.globalsFirst {
		li = 2 * i
		if t.Class != task.Global {
			li++
		}
	}
	b.lanes[li].push(entry{key: b.key(t), seq: t.Seq, t: t})
}

// Pop removes and returns node i's highest-priority task, or nil when
// the queue is empty. Every policy keys statically at push time, so the
// dispatch time now does not affect the order.
func (b *Bank) Pop(i int, now float64) *task.Task {
	_ = now
	if b.globalsFirst {
		if t := b.lanes[2*i].pop(); t != nil {
			return t
		}
		return b.lanes[2*i+1].pop()
	}
	return b.lanes[i].pop()
}

// Len returns the number of tasks waiting at node i.
func (b *Bank) Len(i int) int {
	if b.globalsFirst {
		return int(b.lanes[2*i].n) + int(b.lanes[2*i+1].n)
	}
	return int(b.lanes[i].n)
}

// Reset empties every lane, keeping capacity.
func (b *Bank) Reset() {
	for i := range b.lanes {
		b.lanes[i].reset()
	}
}
