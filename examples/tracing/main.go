// Tracing: a deadline-miss post-mortem with the lifecycle event log.
//
// The trace recorder captures every submit/dispatch/complete/abort in a
// simulation run. This example runs the baseline under UD, finds a
// global task that missed its end-to-end deadline, and reconstructs
// where its time went — stage by stage, queue by queue — which is
// exactly the question an operator asks of a real system ("which hop
// ate the slack?"). Under UD it is almost always an early stage with a
// huge assigned deadline that sat behind local tasks.
package main

import (
	"context"
	"fmt"
	"log"

	"repro"
)

func main() {
	if err := run(); err != nil {
		log.Fatal(err)
	}
}

func run() error {
	cfg := repro.BaselineConfig()
	cfg.SSP = "UD"
	cfg.Horizon = 2000
	rec := repro.NewTraceRecorder(0) // unbounded: short horizon

	// Config.Trace attaches the recorder; a shared recorder forces the
	// sequential path, so the event order is deterministic.
	cfg.Trace = rec
	sess := repro.NewSession()
	defer sess.Close()
	if _, err := sess.Run(context.Background(), repro.Job{Config: cfg}); err != nil {
		return err
	}
	events := rec.Events()
	fmt.Printf("trace: %d events over %.0f time units\n", len(events), cfg.Horizon)
	for kind, n := range rec.CountByKind() {
		fmt.Printf("  %-8v %6d\n", kind, n)
	}

	// Find the subtasks of a global task whose last stage finished past
	// a deadline: group completions by GlobalID and look for a big gap
	// between a stage's submit and dispatch.
	victim := findStarvedSubtask(events)
	if victim == 0 {
		fmt.Println("\nno starved global subtask in this window (try a longer horizon)")
		return nil
	}
	fmt.Printf("\npost-mortem of subtask %d (worst queueing delay):\n", victim)
	var submitted float64
	for _, e := range rec.TaskHistory(victim) {
		switch e.Kind {
		case repro.TraceSubmit:
			submitted = e.T
			fmt.Printf("  t=%8.2f  submitted at node %d (virtual deadline %.2f)\n", e.T, e.Node, e.Deadline)
		case repro.TraceDispatch:
			fmt.Printf("  t=%8.2f  started service after waiting %.2f\n", e.T, e.T-submitted)
		case repro.TraceComplete:
			late := ""
			if e.T > e.Deadline {
				late = fmt.Sprintf("  <- %.2f past its virtual deadline", e.T-e.Deadline)
			}
			fmt.Printf("  t=%8.2f  completed%s\n", e.T, late)
		}
	}
	fmt.Println("\nExport the full log for external analysis:")
	fmt.Println("  rec.WriteCSV(file)   ->  t,kind,task,global,stage,class,node,deadline")
	return rec.WriteCSV(discard{})
}

// findStarvedSubtask returns the global subtask with the largest
// submit-to-dispatch gap.
func findStarvedSubtask(events []repro.TraceEvent) uint64 {
	submits := make(map[uint64]float64)
	var (
		worst   uint64
		worstBy float64
	)
	for _, e := range events {
		if e.GlobalID == 0 {
			continue // local task
		}
		switch e.Kind {
		case repro.TraceSubmit:
			submits[e.TaskID] = e.T
		case repro.TraceDispatch:
			if wait := e.T - submits[e.TaskID]; wait > worstBy {
				worstBy = wait
				worst = e.TaskID
			}
		}
	}
	return worst
}

// discard is an io.Writer sink so the example exercises WriteCSV without
// cluttering the filesystem.
type discard struct{}

func (discard) Write(p []byte) (int, error) { return len(p), nil }
