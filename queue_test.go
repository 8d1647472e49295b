package repro

import (
	"fmt"
	"testing"
)

// Event-queue determinism tests: every QueueKind must produce identical
// simulation results — the ladder queue and the auto-promotion path are
// pure performance substitutions for the reference binary heap.

// queueSignature collects every count and ratio a diverging pop order
// would disturb.
func queueSignature(m *SimMetrics) string {
	return fmt.Sprintf("lg=%d ld=%d la=%d gg=%d gd=%d ga=%d mdl=%v mdg=%v lr=%v gr=%v",
		m.LocalGenerated, m.LocalDone, m.LocalAborted,
		m.GlobalGenerated, m.GlobalDone, m.GlobalAborted,
		m.MDLocal(), m.MDGlobal(), m.LocalResponse.Mean(), m.GlobalResponse.Mean())
}

// TestQueueKindsBitIdenticalLargeTopology runs a topology big enough
// that QueueAuto promotes mid-run (its setup alone schedules more than
// promoteThreshold arrival events) and requires identical metrics from
// the heap, the ladder, and the promoting engine.
func TestQueueKindsBitIdenticalLargeTopology(t *testing.T) {
	base := BaselineConfig()
	base.Nodes = 600
	base.Horizon = 600
	base.Load = 0.7
	base.SSP, base.PSP = "EQF", "DIV-1"

	var want string
	for _, kind := range []EventQueueKind{EventQueueHeap, EventQueueLadder, EventQueueAuto} {
		cfg := base
		cfg.EventQueue = kind
		m, err := simulate(cfg)
		if err != nil {
			t.Fatalf("queue=%q: %v", kind, err)
		}
		sig := queueSignature(m)
		if want == "" {
			want = sig
			continue
		}
		if sig != want {
			t.Fatalf("queue=%q diverged:\n got %s\nwant %s", kind, sig, want)
		}
	}
}

// TestQueueKindsBitIdenticalAbortPath covers the trickiest interaction:
// tardy aborts change which events exist downstream, so any pop-order
// difference between queue kinds would cascade visibly.
func TestQueueKindsBitIdenticalAbortPath(t *testing.T) {
	base := BaselineConfig()
	base.Horizon = 6000
	base.Load = 0.8
	base.TardyAbort = true
	base.SSP, base.PSP = "EQF", "DIV-1"

	var want string
	for _, kind := range []EventQueueKind{EventQueueHeap, EventQueueLadder} {
		cfg := base
		cfg.EventQueue = kind
		m, err := simulate(cfg)
		if err != nil {
			t.Fatalf("queue=%q: %v", kind, err)
		}
		sig := queueSignature(m)
		if want == "" {
			want = sig
			continue
		}
		if sig != want {
			t.Fatalf("queue=%q diverged on the abort path:\n got %s\nwant %s", kind, sig, want)
		}
	}
}

// TestQueueKindRejected checks the validation path for the config knob.
func TestQueueKindRejected(t *testing.T) {
	cfg := BaselineConfig()
	cfg.EventQueue = "btree"
	if _, err := simulate(cfg); err == nil {
		t.Fatal("Session.Run accepted an unknown EventQueue kind")
	}
}
