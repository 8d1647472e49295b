package distrib

import (
	"bytes"
	"errors"
	"fmt"
	"reflect"
	"runtime"
	"testing"

	"repro/internal/scenario"
	"repro/internal/sim"
	"repro/internal/system"
	"repro/internal/trace"
	"repro/internal/wire"
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
// like EventQueue whose alternatives produce
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
		"Nodes":      func(c *system.Config) { c.Nodes *= 2 },
		"Load":       func(c *system.Config) { c.Load += 0.05 },
		"FracLocal":  func(c *system.Config) { c.FracLocal += 0.01 },
		"SSP":        func(c *system.Config) { c.SSP = "ED" },
		"PSP":        func(c *system.Config) { c.PSP = "EDF" },
		"Horizon":    func(c *system.Config) { c.Horizon += 1 },
		"Warmup":     func(c *system.Config) { c.Warmup += 1 },
		"TardyAbort": func(c *system.Config) { c.TardyAbort = !c.TardyAbort },
		"EventQueue": func(c *system.Config) { c.EventQueue = sim.QueueLadder },
		"Scenario":   func(c *system.Config) { c.Scenario = sc },
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

// TestConfigFingerprintPinned: the fingerprint is part of every cache
// key, so these values, captured before the protocol moved off gob,
// must never move without a fingerprintRev bump.
func TestConfigFingerprintPinned(t *testing.T) {
	mixed := system.Baseline()
	mixed.Shape = workload.MixedShape{Stages: []int{1, 3, 1}, MeanExec: 1, Demand: workload.ParetoDemand{Alpha: 2.5}}
	mixed.Scenario = mustPreset(t, "burst", 2000)
	mixed.LocalRateMultipliers = []float64{1, 2, 3, 4, 5, 6}
	for name, tc := range map[string]struct {
		cfg  system.Config
		want string
	}{
		"baseline": {system.Baseline(), "70e6fd17f06ab9ba97d44c6afd223e03"},
		"mixed":    {mixed, "61e7d4a8817d4e4f26084ca1a3d2d281"},
	} {
		got, err := ConfigFingerprint(tc.cfg)
		if err != nil {
			t.Fatal(err)
		}
		if got != tc.want {
			t.Errorf("%s: fingerprint %s, want %s", name, got, tc.want)
		}
	}
}

func mustPreset(t testing.TB, name string, horizon float64) *scenario.Scenario {
	t.Helper()
	sc, err := scenario.Preset(name, horizon)
	if err != nil {
		t.Fatal(err)
	}
	return sc
}

// decodeConfig reverses ToWire.
func decodeConfig(b []byte) (system.Config, error) {
	d := wire.NewDecoder(b)
	cfg := readConfig(&d)
	return cfg, d.Finish()
}

// sameConfig reports whether a and b agree field for field, their
// scenarios compared by Spec.
func sameConfig(a, b system.Config) bool {
	if (a.Scenario == nil) != (b.Scenario == nil) ||
		a.Scenario != nil && !reflect.DeepEqual(a.Scenario.Spec(), b.Scenario.Spec()) {
		return false
	}
	a.Scenario, b.Scenario = nil, nil
	return reflect.DeepEqual(a, b)
}

// unwired names the Config fields that do not cross the wire (Seed,
// Trace) or that the coverage walk reaches as a Spec (Scenario).
var unwired = map[string]bool{"Seed": true, "Trace": true, "Scenario": true}

// fillWire sets every leaf reachable from v to a distinct non-zero
// value: integers and floats count up, strings are numbered, bools are
// true, slices get two elements, nil pointers a fresh value, and a
// non-nil interface's concrete value is filled in place.
func fillWire(v reflect.Value, n *int) {
	switch v.Kind() {
	case reflect.Struct:
		for i := range v.NumField() {
			if !unwired[v.Type().Field(i).Name] {
				fillWire(v.Field(i), n)
			}
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
			if !unwired[v.Type().Field(i).Name] && perturb(v.Field(i), k) {
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

// wired is what the coverage walk fills and perturbs: every Config
// field that crosses the wire, and the Spec its Scenario compiles from.
type wired struct {
	Config system.Config
	Spec   scenario.Spec
}

// config compiles w's spec into its Config, or reports that the spec
// does not validate.
func (w *wired) config() (system.Config, bool) {
	sc, err := scenario.New(w.Spec)
	cfg := w.Config
	cfg.Scenario = sc
	return cfg, err == nil
}

// TestConfigFingerprintFieldCoverage walks system.Config by reflection
// — every field but Seed and Trace, under every concrete Shape, each
// with every concrete Demand, and with Scenario compiled from a spec
// whose every leaf is set — and requires that ToWire's bytes round-trip
// to an equal Config, and that perturbing any leaf, dropping any
// pointer or interface, or shortening any slice moves them, while
// identically built configurations still collide. A Config field left
// off the wire fails here instead of running defaults on workers.
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
	encode := func(cfg system.Config) []byte {
		t.Helper()
		b, err := ToWire(cfg)
		if err != nil {
			t.Fatal(err)
		}
		back, err := decodeConfig(b)
		if err != nil {
			t.Fatalf("ToWire's bytes do not decode: %v", err)
		}
		if !sameConfig(back, cfg) {
			t.Fatalf("round trip changed the config:\n got %+v\nwant %+v", back, cfg)
		}
		return b
	}
	bases := map[string]string{}
	for si, shape := range shapes {
		for di, demand := range demands {
			if si == 0 && di > 0 {
				continue // a nil shape carries no demand
			}
			build := func() wired {
				w := wired{Config: system.Config{Shape: shape(demand())}}
				var n int
				fillWire(reflect.ValueOf(&w).Elem(), &n)
				// The spec must validate to compile.
				for i := range w.Spec.Events {
					w.Spec.Events[i].Kind, w.Spec.Events[i].Factor = scenario.KindSlowdown, 0.5
				}
				w.Spec.Demand.Dist = "pareto"
				return w
			}
			name := fmt.Sprintf("shape %T, demand %T", shape(demand()), demand())
			w := build()
			cfg, ok := w.config()
			if !ok {
				t.Fatalf("%s: the filled spec does not validate", name)
			}
			base := encode(cfg)
			if prev, dup := bases[string(base)]; dup {
				t.Fatalf("%s collides with %s", name, prev)
			}
			bases[string(base)] = name
			again := build()
			if cfg, _ := again.config(); !bytes.Equal(encode(cfg), base) {
				t.Fatalf("%s: identical configs encode differently", name)
			}
			baseSpec := appendSpec(nil, w.Spec)
			for point := 0; ; point++ {
				w := build()
				k := point
				if !perturb(reflect.ValueOf(&w).Elem(), &k) {
					break
				}
				// A spec that no longer validates cannot be a Config;
				// its encoding, which ToWire embeds, must still move.
				if cfg, ok := w.config(); ok && bytes.Equal(encode(cfg), base) ||
					!ok && bytes.Equal(appendSpec(nil, w.Spec), baseSpec) {
					t.Errorf("%s: perturbing point %d leaves the encoding unchanged", name, point)
				}
			}
		}
	}
}

// TestConfigFingerprintUnknownTypes: the encoder returns ErrNotWirable
// for a Shape or Demand it has no tag for, never panics.
func TestConfigFingerprintUnknownTypes(t *testing.T) {
	for name, shape := range map[string]workload.Shape{
		"shape":  unknownShape{},
		"demand": workload.SerialShape{M: 2, MeanExec: 1, Demand: unknownDemand{}},
	} {
		if _, err := ConfigFingerprint(system.Config{Shape: shape}); !errors.Is(err, ErrNotWirable) {
			t.Errorf("unknown %s: err = %v, want ErrNotWirable", name, err)
		}
	}
}

type unknownShape struct{ workload.SerialShape }

type unknownDemand struct{ workload.ExponentialDemand }

// FuzzWireConfig feeds raw bytes to the config decoder: it must never
// panic, its allocations must stay in proportion to its input, and every
// input it accepts must re-encode to identical bytes. The decoder checks
// every count against the bytes left, so what it allocates itself stays
// within about the input's length; validating a decoded scenario adds
// up to about 5× on a 1024-node churn schedule, hence the 8× bound. The
// seeds are the golden-matrix configurations: every scenario preset and
// a churn schedule, at 6, 64 and 1024 nodes, under UD and EQF.
func FuzzWireConfig(f *testing.F) {
	for _, preset := range []string{"none", "burst", "ramp", "storm", "outage", "heavytail", "churn"} {
		for nodes, horizon := range map[int]float64{6: 2000, 64: 200, 1024: 25} {
			for _, ssp := range []string{"UD", "EQF"} {
				cfg := system.Baseline()
				cfg.Nodes, cfg.Horizon, cfg.SSP = nodes, horizon, ssp
				var err error
				switch preset {
				case "none":
				case "churn":
					cfg.Scenario, err = scenario.Churn(nodes, 2, horizon, scenario.ChurnOptions{Seed: 1, SlowdownFrac: 0.25})
				default:
					cfg.Scenario, err = scenario.Preset(preset, horizon)
				}
				if err != nil {
					f.Fatal(err)
				}
				b, err := ToWire(cfg)
				if err != nil {
					f.Fatal(err)
				}
				f.Add(b)
			}
		}
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		cfg, err := decodeConfig(data)
		runtime.ReadMemStats(&after)
		if grew, limit := after.TotalAlloc-before.TotalAlloc, 8*uint64(len(data))+64<<10; grew > limit {
			t.Fatalf("decoding %d bytes allocated %d, want <= %d", len(data), grew, limit)
		}
		if err != nil {
			return
		}
		again, err := ToWire(cfg)
		if err != nil {
			t.Fatalf("accepted config does not re-encode: %v", err)
		}
		if !bytes.Equal(again, data) {
			t.Fatal("accepted config re-encodes differently")
		}
	})
}
