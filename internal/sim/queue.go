package sim

// QueueKind selects when the engine's ladder queue spreads its near
// tier into rungs. Events pop in exactly the same (time, seq) order
// under every kind, so simulation results are byte-identical; only the
// constant factors differ. Callers outside this package take the
// default (New, QueueAuto); the pinned kinds exist as cross-check
// references for tests and benchmarks.
type QueueKind string

const (
	// QueueAuto starts every run flat — all events in the near tier's
	// binary heap — and spreads once more than promoteThreshold records
	// are queued. The paper's stationary 6-node runs never spread, so
	// they keep the heap's minimal constant factors. This is the
	// default.
	QueueAuto QueueKind = ""
	// QueueHeap never spreads: the near tier is a plain binary heap,
	// O(log n) per operation, at any pending count.
	QueueHeap QueueKind = "heap"
	// QueueLadder starts every run spread, so events go to the
	// bucketed rungs from the first push: O(1) amortized schedule/pop
	// at large pending-event counts.
	QueueLadder QueueKind = "ladder"
)

// promoteThreshold is the queued-record count above which a QueueAuto
// queue spreads. It comes from a paired sweep of the Table 1 system
// (heap, ladder and auto on warm workspaces, order alternated;
// CHANGES.md records the numbers). The flat heap led at 6 and 16 nodes,
// whose runs peak at 13 and 33 pending events; the spread ladder led at
// 32 nodes (60 pending) by about 3%, from 64 nodes up (110 and more) by
// about 10%, and on the 6-node scenario presets (62–67 pending, their
// timeline events queued up front) by 2–5%. 48 sits between the two
// groups: the paper's stationary 6-node artifact set stays flat, and
// the larger runs spread early in setup.
const promoteThreshold = 48
