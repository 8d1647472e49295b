package system

import (
	"bytes"
	"fmt"
	"reflect"
	"testing"

	"repro/internal/workload"
)

// runSeeds runs n replications of cfg with seeds cfg.Seed, cfg.Seed+1,
// ... in order on ws, the way one session worker would.
func runSeeds(ws *Workspace, cfg Config, n int) ([]*Metrics, error) {
	runs := make([]*Metrics, n)
	for i := range runs {
		c := cfg
		c.Seed = cfg.Seed + uint64(i)
		m, err := RunWith(c, ws)
		if err != nil {
			return nil, err
		}
		runs[i] = m
	}
	return runs, nil
}

// referenceCase is one configuration TestPooledMatchesReference checks,
// with the number of seeds to run from cfg.Seed.
type referenceCase struct {
	name  string
	cfg   Config
	seeds int
}

// referenceCases lists the golden matrix, the abort path, the combined
// experiment's SSP+PSP settings, and the burst preset; without -short
// it adds a 65536-node burst run.
func referenceCases(t *testing.T) []referenceCase {
	var out []referenceCase
	for _, c := range goldenCases(t) {
		out = append(out, referenceCase{c.name, c.cfg, len(goldenSeeds)})
	}

	// Aborted global instances whose queued sibling subtasks drain later
	// delay instance and graph reuse: the trickiest recycling path.
	abort := Baseline()
	abort.Horizon = 8000
	abort.Load = 0.8
	abort.TardyAbort = true
	abort.SSP, abort.PSP = "EQF", "DIV-1"
	out = append(out, referenceCase{"abort/EQF-DIV-1", abort, 1})

	for _, combo := range [][2]string{{"UD", "UD"}, {"UD", "DIV-1"}, {"EQF", "UD"}, {"EQF", "DIV-1"}} {
		for _, load := range []float64{0.3, 0.5, 0.7} {
			cfg := Baseline()
			cfg.Shape = workload.MixedShape{
				Stages:   []int{1, 3, 1},
				MeanExec: 1 / cfg.MuSubtask,
				Pex:      workload.PexModel{RelErr: cfg.PexRelErr},
			}
			cfg.SSP, cfg.PSP = combo[0], combo[1]
			cfg.Load = load
			cfg.Horizon = 3000
			cfg.Seed = 7
			out = append(out, referenceCase{fmt.Sprintf("combined/%s-%s/load%v", combo[0], combo[1], load), cfg, 2})
		}
	}

	burst := Baseline()
	burst.Horizon = 15000
	burst.Scenario = burstScenario(t, burst.Horizon)
	out = append(out, referenceCase{"burst/n6", burst, 3})

	if !testing.Short() {
		big := Baseline()
		big.Nodes = 65536
		big.Horizon = 40
		big.Scenario = burstScenario(t, big.Horizon)
		out = append(out, referenceCase{"burst/n65536", big, 1})
	}
	return out
}

// TestPooledMatchesReference is the pool-safety check: every object-reuse
// fast path (task and graph pools, instance and frame recycling, one
// workspace reused across configurations) must reproduce the unpooled
// allocation path bit for bit, compared as full codec bytes.
func TestPooledMatchesReference(t *testing.T) {
	ws := NewWorkspace()
	for _, c := range referenceCases(t) {
		for i := 0; i < c.seeds; i++ {
			cfg := c.cfg
			cfg.Seed += uint64(i)
			pooled, err := RunWith(cfg, ws)
			if err != nil {
				t.Fatalf("%s seed %d: %v", c.name, cfg.Seed, err)
			}
			ref, err := runWith(cfg, nil, false)
			if err != nil {
				t.Fatalf("%s seed %d: reference: %v", c.name, cfg.Seed, err)
			}
			pb, err := pooled.MarshalBinary()
			if err != nil {
				t.Fatal(err)
			}
			rb, err := ref.MarshalBinary()
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(pb, rb) {
				t.Errorf("%s seed %d: pooled metrics differ from the unpooled reference at %s",
					c.name, cfg.Seed, bitwiseDiff(reflect.ValueOf(*pooled), reflect.ValueOf(*ref), "Metrics"))
			}
		}
	}
}
