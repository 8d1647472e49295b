package distrib

import (
	"errors"
	"fmt"
	"reflect"
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

// fillWire sets every leaf reachable from v to a distinct non-zero
// value: integers and floats count up, strings are numbered, bools are
// true, slices get two elements, nil pointers a fresh value, and a
// non-nil interface's concrete value is filled in place.
func fillWire(v reflect.Value, n *int) {
	switch v.Kind() {
	case reflect.Struct:
		for i := range v.NumField() {
			fillWire(v.Field(i), n)
		}
	case reflect.Pointer:
		v.Set(reflect.New(v.Type().Elem()))
		fillWire(v.Elem(), n)
	case reflect.Interface:
		if v.IsNil() {
			return
		}
		cp := reflect.New(v.Elem().Type()).Elem()
		cp.Set(v.Elem())
		fillWire(cp, n)
		v.Set(cp)
	case reflect.Slice:
		v.Set(reflect.MakeSlice(v.Type(), 2, 2))
		for i := range 2 {
			fillWire(v.Index(i), n)
		}
	case reflect.Int:
		*n++
		v.SetInt(int64(*n))
	case reflect.Float64:
		*n++
		v.SetFloat(float64(*n) + 0.5)
	case reflect.String:
		*n++
		v.SetString(fmt.Sprint("s", *n))
	case reflect.Bool:
		v.SetBool(true)
	default:
		panic(fmt.Sprintf("fillWire: unhandled kind %s", v.Kind()))
	}
}

// perturb changes the k-th point of v in walk order and reports whether
// there was one. The points are every leaf (numbers step, strings grow,
// bools flip) and every non-nil pointer, interface or non-empty slice
// (set to nil, or shortened by one).
func perturb(v reflect.Value, k *int) bool {
	hit := func() bool { *k--; return *k < 0 }
	switch v.Kind() {
	case reflect.Struct:
		for i := range v.NumField() {
			if perturb(v.Field(i), k) {
				return true
			}
		}
		return false
	case reflect.Pointer:
		if v.IsNil() {
			return false
		}
		if hit() {
			v.Set(reflect.Zero(v.Type()))
			return true
		}
		return perturb(v.Elem(), k)
	case reflect.Interface:
		if v.IsNil() {
			return false
		}
		if hit() {
			v.Set(reflect.Zero(v.Type()))
			return true
		}
		cp := reflect.New(v.Elem().Type()).Elem()
		cp.Set(v.Elem())
		if perturb(cp, k) {
			v.Set(cp)
			return true
		}
		return false
	case reflect.Slice:
		if v.Len() == 0 {
			return false
		}
		if hit() {
			v.Set(v.Slice(0, v.Len()-1))
			return true
		}
		for i := range v.Len() {
			if perturb(v.Index(i), k) {
				return true
			}
		}
		return false
	}
	if !hit() {
		return false
	}
	switch v.Kind() {
	case reflect.Int:
		v.SetInt(v.Int() + 1)
	case reflect.Float64:
		v.SetFloat(v.Float() + 1)
	case reflect.String:
		v.SetString(v.String() + "x")
	case reflect.Bool:
		v.SetBool(!v.Bool())
	default:
		panic(fmt.Sprintf("perturb: unhandled kind %s", v.Kind()))
	}
	return true
}

// TestConfigFingerprintFieldCoverage walks WireConfig by reflection —
// under every concrete Shape, each with every concrete Demand, and with
// every scenario.Spec leaf set — and requires that perturbing any leaf,
// dropping any pointer or interface, or shortening any slice moves the
// fingerprint, while identically built configurations still collide.
func TestConfigFingerprintFieldCoverage(t *testing.T) {
	demands := []func() workload.Demand{
		func() workload.Demand { return nil },
		func() workload.Demand { return workload.ExponentialDemand{} },
		func() workload.Demand { return workload.ParetoDemand{} },
		func() workload.Demand { return workload.LognormalDemand{} },
		func() workload.Demand { return workload.DeterministicDemand{} },
	}
	shapes := []func(workload.Demand) workload.Shape{
		func(workload.Demand) workload.Shape { return nil },
		func(d workload.Demand) workload.Shape { return workload.SerialShape{Demand: d} },
		func(d workload.Demand) workload.Shape { return workload.ParallelShape{Demand: d} },
		func(d workload.Demand) workload.Shape { return workload.MixedShape{Demand: d} },
		func(d workload.Demand) workload.Shape { return workload.HeteroSerialShape{Demand: d} },
	}
	fingerprint := func(wc WireConfig) string {
		t.Helper()
		fp, err := wc.fingerprint()
		if err != nil {
			t.Fatal(err)
		}
		return fp
	}
	bases := map[string]string{}
	for si, shape := range shapes {
		for di, demand := range demands {
			if si == 0 && di > 0 {
				continue // a nil shape carries no demand
			}
			build := func() WireConfig {
				wc := WireConfig{Shape: shape(demand())}
				var n int
				fillWire(reflect.ValueOf(&wc).Elem(), &n)
				return wc
			}
			name := fmt.Sprintf("shape %T, demand %T", shape(demand()), demand())
			base := fingerprint(build())
			if again := fingerprint(build()); again != base {
				t.Fatalf("%s: identical configs fingerprint differently", name)
			}
			if prev, dup := bases[base]; dup {
				t.Fatalf("%s collides with %s", name, prev)
			}
			bases[base] = name
			for point := 0; ; point++ {
				wc := build()
				k := point
				if !perturb(reflect.ValueOf(&wc).Elem(), &k) {
					break
				}
				if fingerprint(wc) == base {
					t.Errorf("%s: perturbing point %d leaves the fingerprint unchanged", name, point)
				}
			}
		}
	}
}

// TestConfigFingerprintUnknownTypes: the canonical encoder returns
// ErrNotWirable for a Shape or Demand it has no tag for, never panics.
func TestConfigFingerprintUnknownTypes(t *testing.T) {
	for name, wc := range map[string]WireConfig{
		"shape":  {Shape: unknownShape{}},
		"demand": {Shape: workload.SerialShape{M: 2, MeanExec: 1, Demand: unknownDemand{}}},
	} {
		if _, err := wc.fingerprint(); !errors.Is(err, ErrNotWirable) {
			t.Errorf("unknown %s: err = %v, want ErrNotWirable", name, err)
		}
	}
}

type unknownShape struct{ workload.SerialShape }

type unknownDemand struct{ workload.ExponentialDemand }
