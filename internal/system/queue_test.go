package system

import (
	"bytes"
	"reflect"
	"testing"

	"repro/internal/scenario"
	"repro/internal/sim"
)

// queueCase is one configuration TestQueueKindsAgree runs under both
// QueueKinds: seeds replications from cfg.Seed, and whether the default
// engine's queue must spread from flat on the way.
type queueCase struct {
	name     string
	cfg      Config
	seeds    int
	promotes bool
}

// queueCases lists the cross-queue inputs: a 600-node topology that
// spreads during setup, the tardy-abort path (aborts change which
// events exist downstream, so any pop-order difference cascades), 16-
// and 64-node baselines on either side of the spread threshold, a
// 6-node storm whose up-front timeline events carry it over, and,
// without -short, the burst, ramp and storm presets at 1024 nodes.
func queueCases(t *testing.T) []queueCase {
	baseline := func(nodes int, horizon float64) Config {
		cfg := Baseline()
		cfg.Nodes = nodes
		cfg.Horizon = horizon
		return cfg
	}
	preset := func(name string, nodes int, horizon float64) Config {
		cfg := baseline(nodes, horizon)
		sc, err := scenario.Preset(name, horizon)
		if err != nil {
			t.Fatal(err)
		}
		cfg.Scenario = sc
		return cfg
	}

	large := baseline(600, 600)
	large.Load = 0.7
	large.SSP, large.PSP = "EQF", "DIV-1"

	abort := Baseline()
	abort.Horizon = 6000
	abort.Load = 0.8
	abort.TardyAbort = true
	abort.SSP, abort.PSP = "EQF", "DIV-1"

	out := []queueCase{
		{"large-topology", large, 1, true},
		{"abort-path", abort, 1, false},
		{"baseline/n16", baseline(16, 2000), 2, false},
		{"baseline/n64", baseline(64, 1000), 2, true},
		{"storm/n6", preset("storm", 6, 2000), 2, true},
	}
	if !testing.Short() {
		for _, p := range []string{"burst", "ramp", "storm"} {
			out = append(out, queueCase{p + "/n1024", preset(p, 1024, 2500), 2, true})
		}
	}
	return out
}

// TestQueueKindsAgree is the system-level cross-queue check: an engine
// spread from the first push (QueueLadder) and the default engine,
// which starts flat and spreads on its pending count, must produce the
// same replication, compared as full codec bytes with the spread
// counter (the one field that records the queue's shape) zeroed. The
// spread engine is pinned by presetting the workspace's engine, which
// RunWith then only resets.
func TestQueueKindsAgree(t *testing.T) {
	for _, c := range queueCases(t) {
		t.Run(c.name, func(t *testing.T) {
			t.Parallel()
			ladder, auto := NewWorkspace(), NewWorkspace()
			ladder.eng = sim.NewWithQueue(sim.QueueLadder)
			for i := 0; i < c.seeds; i++ {
				cfg := c.cfg
				cfg.Seed += uint64(i)
				var ref *Metrics
				var refBytes []byte
				for _, q := range []struct {
					name string
					ws   *Workspace
				}{{"ladder", ladder}, {"auto", auto}} {
					m, err := RunWith(cfg, q.ws)
					if err != nil {
						t.Fatalf("seed %d %s: %v", cfg.Seed, q.name, err)
					}
					if q.ws == auto {
						if promoted := m.Engine.QueuePromotions == 1; promoted != c.promotes {
							t.Errorf("seed %d: default engine promoted = %v, want %v (pending high-water mark %d)",
								cfg.Seed, promoted, c.promotes, m.Engine.PendingHWM)
						}
					} else if m.Engine.QueuePromotions != 0 {
						t.Errorf("seed %d: pinned %s engine promoted", cfg.Seed, q.name)
					}
					m.Engine.QueuePromotions = 0
					b, err := m.MarshalBinary()
					if err != nil {
						t.Fatal(err)
					}
					if ref == nil {
						ref, refBytes = m, b
						continue
					}
					if !bytes.Equal(b, refBytes) {
						t.Errorf("seed %d: %s metrics differ from ladder at %s", cfg.Seed, q.name,
							bitwiseDiff(reflect.ValueOf(*m), reflect.ValueOf(*ref), "Metrics"))
					}
				}
			}
		})
	}
}
