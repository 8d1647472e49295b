package distrib

import (
	"errors"
	"testing"

	"repro/internal/scenario"
	"repro/internal/sim"
	"repro/internal/system"
	"repro/internal/trace"
	"repro/internal/workload"
)

// TestConfigFingerprintStable: semantically identical configurations —
// built independently, differing only in Seed (the cache key's other
// dimension) — must collide.
func TestConfigFingerprintStable(t *testing.T) {
	a := shortCfg(2000)
	b := shortCfg(2000)
	fa, err := ConfigFingerprint(a)
	if err != nil {
		t.Fatal(err)
	}
	fb, err := ConfigFingerprint(b)
	if err != nil {
		t.Fatal(err)
	}
	if fa != fb {
		t.Fatalf("identical configs fingerprint differently: %s vs %s", fa, fb)
	}
	b.Seed = a.Seed + 12345
	if fb, _ = ConfigFingerprint(b); fa != fb {
		t.Fatalf("Seed changed the fingerprint: %s vs %s", fa, fb)
	}
	// Repeated hashing of the same value must be deterministic.
	for i := 0; i < 3; i++ {
		if fi, _ := ConfigFingerprint(a); fi != fa {
			t.Fatalf("fingerprint not stable across calls: %s vs %s", fi, fa)
		}
	}

	// A scenario travels as its spec; the same preset compiled twice is
	// the same identity.
	sa, err := scenario.Preset("burst", a.Horizon)
	if err != nil {
		t.Fatal(err)
	}
	sb, err := scenario.Preset("burst", b.Horizon)
	if err != nil {
		t.Fatal(err)
	}
	a.Scenario, b.Scenario = sa, sb
	fa, _ = ConfigFingerprint(a)
	fb, _ = ConfigFingerprint(b)
	if fa != fb {
		t.Fatalf("recompiled identical scenarios fingerprint differently")
	}
}

// TestConfigFingerprintSensitivity: every knob change — including ones
// like EventQueue and DisablePooling whose alternatives produce
// byte-identical results — must move the hash.
func TestConfigFingerprintSensitivity(t *testing.T) {
	base := shortCfg(2000)
	ref, err := ConfigFingerprint(base)
	if err != nil {
		t.Fatal(err)
	}
	sc, err := scenario.Preset("burst", base.Horizon)
	if err != nil {
		t.Fatal(err)
	}
	mutations := map[string]func(*system.Config){
		"Nodes":          func(c *system.Config) { c.Nodes *= 2 },
		"Load":           func(c *system.Config) { c.Load += 0.05 },
		"FracLocal":      func(c *system.Config) { c.FracLocal += 0.01 },
		"SSP":            func(c *system.Config) { c.SSP = "ED" },
		"PSP":            func(c *system.Config) { c.PSP = "EDF" },
		"Horizon":        func(c *system.Config) { c.Horizon += 1 },
		"Warmup":         func(c *system.Config) { c.Warmup += 1 },
		"TardyAbort":     func(c *system.Config) { c.TardyAbort = !c.TardyAbort },
		"EventQueue":     func(c *system.Config) { c.EventQueue = sim.QueueLadder },
		"DisablePooling": func(c *system.Config) { c.DisablePooling = true },
		"Scenario":       func(c *system.Config) { c.Scenario = sc },
		"Shape": func(c *system.Config) {
			c.Shape = workload.SerialShape{M: 3, MeanExec: 1, Demand: workload.ExponentialDemand{}}
		},
	}
	seen := map[string]string{ref: "base"}
	for name, mutate := range mutations {
		cfg := shortCfg(2000)
		mutate(&cfg)
		fp, err := ConfigFingerprint(cfg)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if prev, dup := seen[fp]; dup {
			t.Fatalf("mutation %s collides with %s (fingerprint %s)", name, prev, fp)
		}
		seen[fp] = name
	}
}

// TestConfigFingerprintRejectsUnwirable: what cannot cross a process
// boundary cannot be cached either.
func TestConfigFingerprintRejectsUnwirable(t *testing.T) {
	cfg := shortCfg(1000)
	cfg.Trace = trace.NewRecorder(0)
	if _, err := ConfigFingerprint(cfg); !errors.Is(err, ErrNotWirable) {
		t.Fatalf("traced config: err = %v, want ErrNotWirable", err)
	}
}
