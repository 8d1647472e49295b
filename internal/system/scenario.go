package system

import (
	"fmt"
	"sort"

	"repro/internal/node"
	"repro/internal/scenario"
	"repro/internal/sim"
)

// faultEvent is the payload of one scheduled speed change: the index
// of the node it applies to and the speed factor to set (0 freezes, 1
// restores).
type faultEvent struct {
	node  int
	speed float64
}

// scheduleScenario registers the scenario's dynamic behaviour on the
// engine before the run starts: node fault events (slowdown / outage
// with automatic recovery) and the periodic queue-length sampler feeding
// the time series. Rate modulation and demand overrides are wired into
// the workload sources directly, so this covers everything else. All
// events go through two callbacks registered once, with payload structs
// allocated up front — no per-event closures.
func scheduleScenario(eng *sim.Engine, cfg Config, nodes *node.Group, series *scenario.Series) {
	faultCB := eng.Register(func(p any) {
		f := p.(*faultEvent)
		nodes.SetSpeed(f.node, f.speed)
	})

	// Schedule events in start-time order, not spec order: the engine
	// breaks time ties by scheduling sequence, so for back-to-back
	// events on one node (recovery at t, next fault at t) this makes
	// the earlier event's SetSpeed(1) fire before the later event's
	// start instead of silently cancelling it.
	events := append([]scenario.EventSpec(nil), cfg.Scenario.Events()...)
	sort.SliceStable(events, func(i, j int) bool { return events[i].At < events[j].At })
	for _, ev := range events {
		n := ev.Node
		start, end := ev.At, ev.At+ev.Duration
		if start >= cfg.Horizon {
			continue // never takes effect inside the run
		}
		// ev.Factor is 0 for outages: frozen.
		mustCallAt(eng, start, faultCB, &faultEvent{node: n, speed: ev.Factor})
		if end < cfg.Horizon {
			mustCallAt(eng, end, faultCB, &faultEvent{node: n, speed: 1})
		}
	}

	sampleCB := eng.Register(func(any) {
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
		mustCallAt(eng, at, sampleCB, nil)
	}
}

// mustCallAt schedules at an absolute time validated by the caller.
func mustCallAt(eng *sim.Engine, t float64, cb sim.Callback, payload any) {
	if _, err := eng.CallAt(t, cb, payload); err != nil {
		panic(fmt.Sprintf("system: scenario event: %v", err))
	}
}
