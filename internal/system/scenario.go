package system

import (
	"cmp"
	"fmt"
	"slices"

	"repro/internal/node"
	"repro/internal/scenario"
	"repro/internal/sim"
)

// faultEvent is one scheduled speed change: the index of the node it
// applies to and the speed factor to set (0 freezes, 1 restores). A
// fault event's argument indexes the workspace's faults.
type faultEvent struct {
	node  int
	speed float64
}

// scheduleScenario registers the scenario's dynamic behaviour on the
// engine before the run starts: node fault events (slowdown / outage
// with automatic recovery) and the periodic queue-length sampler feeding
// the time series. Rate modulation and demand overrides are wired into
// the workload sources directly, so this covers everything else. All
// events go through two RegisterArg callbacks registered once per run:
// a fault event carries the index of its speed change in ws.faults,
// which the workspace reuses across runs, so no event boxes a payload.
func (ws *Workspace) scheduleScenario(eng *sim.Engine, cfg Config, nodes *node.Group, series *scenario.Series) {
	faultCB := eng.RegisterArg(func(i int32) {
		f := &ws.faults[i]
		nodes.SetSpeed(f.node, f.speed)
	})
	fault := func(t float64, f faultEvent) {
		ws.faults = append(ws.faults, f)
		mustCallAt(eng, t, faultCB, int32(len(ws.faults)-1))
	}

	// Schedule events in start-time order, not spec order: the engine
	// breaks time ties by scheduling sequence, so for back-to-back
	// events on one node (recovery at t, next fault at t) this makes
	// the earlier event's SetSpeed(1) fire before the later event's
	// start instead of silently cancelling it.
	ws.faults = ws.faults[:0]
	ws.scEvents = append(ws.scEvents[:0], cfg.Scenario.Events()...)
	slices.SortStableFunc(ws.scEvents, func(a, b scenario.EventSpec) int { return cmp.Compare(a.At, b.At) })
	for _, ev := range ws.scEvents {
		n := ev.Node
		start, end := ev.At, ev.At+ev.Duration
		if start >= cfg.Horizon {
			continue // never takes effect inside the run
		}
		// ev.Factor is 0 for outages: frozen.
		fault(start, faultEvent{node: n, speed: ev.Factor})
		if end < cfg.Horizon {
			fault(end, faultEvent{node: n, speed: 1})
		}
	}

	sampleCB := eng.RegisterArg(func(int32) {
		// The tasks in service count as queued work.
		series.ObserveQueueLen(eng.Now(), float64(nodes.Backlog()))
	})

	// Sample total ready-queue length at every window midpoint: one
	// unbiased snapshot per window, aligned identically across
	// replications so merged series stay comparable.
	half := series.Interval() / 2
	for i := 0; i < series.Len(); i++ {
		at := series.WindowStart(i) + half
		if at > cfg.Horizon {
			break
		}
		mustCallAt(eng, at, sampleCB, 0)
	}
}

// mustCallAt schedules at an absolute time validated by the caller.
func mustCallAt(eng *sim.Engine, t float64, cb sim.Callback, arg int32) {
	if _, err := eng.CallArgAt(t, cb, arg); err != nil {
		panic(fmt.Sprintf("system: scenario event: %v", err))
	}
}
