package sim

import "fmt"

// QueueKind selects the engine's pending-event structure. All kinds pop
// events in exactly the same (time, seq) order, so simulation results are
// byte-identical across kinds; only the constant factors differ.
type QueueKind string

const (
	// QueueAuto starts on the binary heap and promotes the engine to the
	// ladder queue once the pending-event count crosses promoteThreshold
	// (large topologies). Paper-scale runs never promote, so they keep
	// the heap's minimal constant factors. This is the default.
	QueueAuto QueueKind = ""
	// QueueHeap pins the reference binary heap: O(log n) per operation,
	// the implementation every other queue is cross-checked against.
	QueueHeap QueueKind = "heap"
	// QueueLadder pins the two-level ladder queue: a small sorted
	// near-future tier feeding execution plus bucketed far-future rungs
	// that spread lazily, giving O(1) amortized schedule/pop at large
	// pending-event counts.
	QueueLadder QueueKind = "ladder"
)

// promoteThreshold is the pending-event count at which QueueAuto switches
// from the heap to the ladder. Paper-scale systems (k=6: tens of pending
// events) stay far below it; a k>=512 topology crosses it during setup.
const promoteThreshold = 512

// ParseQueueKind validates a queue-kind string ("", "auto", "heap",
// "ladder"), for CLI flags and configuration.
func ParseQueueKind(s string) (QueueKind, error) {
	switch s {
	case "", "auto":
		return QueueAuto, nil
	case string(QueueHeap):
		return QueueHeap, nil
	case string(QueueLadder):
		return QueueLadder, nil
	default:
		return "", fmt.Errorf("sim: unknown event queue %q (want auto, heap, or ladder)", s)
	}
}

// This file is the reference implementation of the event queue: a
// binary min-heap ordered by (time, seq), implemented directly on the
// engine's fields so the paper-scale hot path compiles to tight code.
// Cancellation is by tombstone at the engine layer, so the heap keeps no
// per-event position index and its sifts swap bare 24-byte records.
// ladder.go holds the large-topology implementation; the engine
// dispatches between the two with a single branch, and the cross-check
// fuzz tests require identical observable behaviour from both.

// heapPush inserts an event into the binary heap.
func (e *Engine) heapPush(ev event) {
	e.heap = append(e.heap, ev)
	e.heapUp(len(e.heap) - 1)
}

// heapPop removes the heap's minimum.
func (e *Engine) heapPop() {
	last := len(e.heap) - 1
	e.heap[0] = e.heap[last]
	e.heap = e.heap[:last]
	e.heapDown(0)
}

// heapUp restores the heap property moving index i toward the root.
func (e *Engine) heapUp(i int) {
	for i > 0 {
		parent := (i - 1) / 2
		if !before(&e.heap[i], &e.heap[parent]) {
			break
		}
		e.heapSwap(i, parent)
		i = parent
	}
}

// heapDown restores the heap property moving index i toward the leaves.
func (e *Engine) heapDown(i int) {
	n := len(e.heap)
	for {
		left := 2*i + 1
		if left >= n {
			return
		}
		least := left
		if right := left + 1; right < n && before(&e.heap[right], &e.heap[left]) {
			least = right
		}
		if !before(&e.heap[least], &e.heap[i]) {
			return
		}
		e.heapSwap(i, least)
		i = least
	}
}

func (e *Engine) heapSwap(i, j int) {
	e.heap[i], e.heap[j] = e.heap[j], e.heap[i]
}
