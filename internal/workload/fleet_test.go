package workload

import (
	"fmt"
	"math"
	"testing"
	"unsafe"

	"repro/internal/rng"
	"repro/internal/sim"
	"repro/internal/task"
)

// emitted is the full identity of one generated task; two runs agree iff
// their emitted sequences are deep-equal.
type emitted struct {
	id, seq                 uint64
	node                    int
	arrival, deadline, firm float64
	exec, pex               float64
}

func record(tk *task.Task) emitted {
	return emitted{
		id: tk.ID, seq: tk.Seq, node: tk.NodeID,
		arrival: tk.Arrival, deadline: tk.Deadline, firm: tk.FirmDeadline,
		exec: tk.Exec, pex: tk.Pex,
	}
}

// sameSource reports whether two generators are at the same state, by
// comparing the next draws of copies.
func sameSource(a, b rng.Source) bool {
	for k := 0; k < 4; k++ {
		if a.Uint64() != b.Uint64() {
			return false
		}
	}
	return true
}

// fleetCase is one equivalence scenario: per-node rates (0 silences a
// node), the shared stream parameters, the run horizon, and
// whether the engine runs to it in slices.
type fleetCase struct {
	name    string
	rates   []float64
	mod     RateModulator
	pex     PexModel
	horizon float64 // 0 = fleetHorizon
	sliced  bool    // run to horizon/3 first, then to the horizon
}

const fleetHorizon = 2000.0

func (c fleetCase) runTo() float64 {
	if c.horizon == 0 {
		return fleetHorizon
	}
	return c.horizon
}

// runEngine runs eng to the case's horizon, in slices if asked.
func (c fleetCase) runEngine(eng *sim.Engine) {
	h := c.runTo()
	if c.sliced {
		eng.Run(h / 3)
	}
	eng.Run(h)
}

// runSources generates the reference stream: one event-per-candidate
// LocalSource per node, seeded exactly as the system workspace seeds
// the fleet. onCandidate, if set, sees node 0's candidate times.
func runSources(t *testing.T, c fleetCase, seed uint64, onCandidate func(float64)) ([]emitted, []rng.Source) {
	t.Helper()
	eng := sim.New()
	var out []emitted
	var id, seq uint64
	nextID := func() uint64 { id++; return id }
	nextSeq := func() uint64 { seq++; return seq }
	submit := func(tk *task.Task) { out = append(out, record(tk)) }
	rngs := make([]rng.Source, len(c.rates))
	srcs := make([]LocalSource, len(c.rates))
	for i, rate := range c.rates {
		rngs[i].ReseedStream(seed, rng.StreamHashParts("local-", uint64(i), ""))
		srcs[i].Init(eng)
		err := srcs[i].Reconfigure(&rngs[i], LocalParams{
			Node: i, Rate: rate, MeanExec: 1,
			SlackMin: 0.25, SlackMax: 2.5,
			Pex: c.pex, Mod: c.mod,
		}, nextID, nextSeq, submit)
		if err != nil {
			t.Fatal(err)
		}
		if i == 0 {
			srcs[i].arr.onCandidate = onCandidate
		}
		srcs[i].Start()
	}
	c.runEngine(eng)
	return out, rngs
}

// runFleet generates the same stream through a LocalFleet.
func runFleet(t *testing.T, c fleetCase, seed uint64) ([]emitted, []rng.Source) {
	t.Helper()
	eng := sim.New()
	var out []emitted
	var id, seq uint64
	f := NewLocalFleet(eng)
	err := f.Configure(len(c.rates), FleetParams{
		MeanExec: 1, SlackMin: 0.25, SlackMax: 2.5,
		Pex: c.pex, Mod: c.mod, Horizon: c.runTo(), Pool: &task.Pool{},
	},
		func() uint64 { id++; return id },
		func() uint64 { seq++; return seq },
		func(tk *task.Task) { out = append(out, record(tk)) })
	if err != nil {
		t.Fatal(err)
	}
	for i, rate := range c.rates {
		if err := f.SeedNode(i, rate, seed, rng.StreamHashParts("local-", uint64(i), "")); err != nil {
			t.Fatal(err)
		}
	}
	f.Start()
	c.runEngine(eng)
	states := make([]rng.Source, len(c.rates))
	for i := range states {
		states[i] = f.streams[i].r
	}
	return out, states
}

// phaseMod is factor before until and factor after from then on, under
// a declared peak of max.
type phaseMod struct{ until, before, after, max float64 }

func (m phaseMod) FactorAt(t float64) float64 {
	if t < m.until {
		return m.before
	}
	return m.after
}
func (m phaseMod) MaxFactor() float64 { return m.max }

// candidateTimes returns node 0's candidate fire times under the
// reference generator, split into accepted and rejected.
func candidateTimes(t *testing.T, c fleetCase, seed uint64) (accepted, rejected []float64) {
	t.Helper()
	var times []float64
	out, _ := runSources(t, c, seed, func(at float64) { times = append(times, at) })
	arrived := map[float64]bool{}
	for _, e := range out {
		if e.node == 0 {
			arrived[e.arrival] = true
		}
	}
	for _, at := range times {
		if arrived[at] {
			accepted = append(accepted, at)
		} else {
			rejected = append(rejected, at)
		}
	}
	return accepted, rejected
}

// TestFleetMatchesSources pins the fleet's contract: with and without
// modulation, with heterogeneous rates and
// silent nodes, a LocalFleet emits the identical task sequence of one
// event-per-candidate LocalSource per node and leaves every RNG stream
// in the identical state. The modulated cases cover the edges of inline
// thinning: a candidate exactly at the horizon (accepted or rejected),
// an engine run in slices, and a near-zero rate phase that spans the
// horizon, whose thinning loop must run out at the horizon.
func TestFleetMatchesSources(t *testing.T) {
	const seed = 7
	step := stepMod{on: 0, off: fleetHorizon / 2}
	rates := []float64{0.5, 0.5, 0.5}
	probe := fleetCase{rates: rates, mod: step}
	accepted, rejected := candidateTimes(t, probe, seed)
	if len(accepted) < 20 || len(rejected) < 20 {
		t.Fatalf("probe run: %d accepted, %d rejected candidates", len(accepted), len(rejected))
	}
	// Candidates late in the run, where node 0 is thinned at 1/2.
	atAccepted := accepted[len(accepted)-10]
	atRejected := rejected[len(rejected)-10]
	tiny := phaseMod{until: fleetHorizon / 2, before: 3, after: 1e-9, max: 3}

	cases := []fleetCase{
		{name: "default layout", rates: []float64{0.375, 0.375, 0.375, 0.375}},
		{name: "heterogeneous with silent node", rates: []float64{1.5, 0, 0.2, 0.7}},
		{name: "modulated default", rates: rates, mod: step},
		{name: "pex error", rates: []float64{0.8, 0.8}, pex: PexModel{RelErr: 0.5}},
		{name: "accepted candidate at horizon", rates: rates, mod: step, horizon: atAccepted},
		{name: "rejected candidate at horizon", rates: rates, mod: step, horizon: atRejected},
		{name: "sliced run", rates: rates, mod: step, sliced: true},
		{name: "near-zero phase across horizon", rates: rates, mod: tiny},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			want, wantState := runSources(t, c, seed, nil)
			got, gotState := runFleet(t, c, seed)
			if len(want) == 0 {
				t.Fatal("reference run generated no tasks")
			}
			if len(got) != len(want) {
				t.Fatalf("fleet emitted %d tasks, sources %d", len(got), len(want))
			}
			for i := range want {
				if got[i] != want[i] {
					t.Fatalf("task %d diverged:\nfleet   %+v\nsources %+v", i, got[i], want[i])
				}
			}
			for i := range wantState {
				if !sameSource(gotState[i], wantState[i]) {
					t.Fatalf("node %d: RNG state after the run differs from the reference", i)
				}
			}
		})
	}

	// The horizon cases must really put a candidate on the horizon.
	last := func(c fleetCase) float64 {
		out, _ := runSources(t, c, seed, nil)
		end := 0.0
		for _, e := range out {
			if e.node == 0 {
				end = e.arrival
			}
		}
		return end
	}
	if got := last(fleetCase{rates: rates, mod: step, horizon: atAccepted}); got != atAccepted {
		t.Errorf("accepted-at-horizon case: last node-0 arrival %v, want the horizon %v", got, atAccepted)
	}
	if got := last(fleetCase{rates: rates, mod: step, horizon: atRejected}); got == atRejected {
		t.Errorf("rejected-at-horizon case: candidate at %v was accepted", atRejected)
	}
}

// globalCase is one modulated global-stream scenario.
type globalCase struct {
	name    string
	mod     RateModulator
	horizon float64
	sliced  bool
}

// runGlobal generates the global stream of c either through the
// production GlobalSource or, with reference set, through the same
// source driven by the event-per-candidate loop. It returns one
// signature per spec, the stream's RNG state afterwards, and (reference
// only) every candidate's fire time mapped to whether it was accepted.
func runGlobal(t *testing.T, c globalCase, reference bool) ([]string, rng.Source, map[float64]bool) {
	t.Helper()
	const rate = 0.5
	eng := sim.New()
	r := rng.NewStream(3, "global")
	var sigs []string
	candidates := map[float64]bool{}
	src, err := NewGlobalSource(eng, r, 6, GlobalParams{
		Rate: rate, Shape: SerialShape{M: 4, MeanExec: 1},
		SlackMin: 0.25, SlackMax: 2.5, RelFlex: 1, MeanLocalExec: 1,
		Mod: c.mod, Horizon: c.horizon,
	}, func(sp Spec) {
		sigs = append(sigs, sp.Graph.String()+"|"+fmt.Sprint(sp.Arrival, sp.Deadline, sp.Slack))
		candidates[sp.Arrival] = true
	})
	if err != nil {
		t.Fatal(err)
	}
	var loop candidateLoop
	if reference {
		loop.init(eng, src)
		if err := loop.reconfigure(r, rate, c.mod); err != nil {
			t.Fatal(err)
		}
		loop.onCandidate = func(at float64) { candidates[at] = false }
		loop.start()
	} else {
		src.Start()
	}
	if c.sliced {
		eng.Run(c.horizon / 3)
	}
	eng.Run(c.horizon)
	return sigs, *r, candidates
}

// TestGlobalSourceMatchesReference is TestFleetMatchesSources for the
// global stream: inline thinning in GlobalSource emits the specs of the
// event-per-candidate loop and leaves its streams in the same state.
func TestGlobalSourceMatchesReference(t *testing.T) {
	const h = 3000.0
	step := stepMod{on: h / 3, off: 2 * h / 3}
	tiny := phaseMod{until: h / 2, before: 2, after: 1e-9, max: 2}
	// A candidate is marked rejected when it fires and accepted when its
	// spec is emitted, which happens inside the same fire.
	_, _, candidates := runGlobal(t, globalCase{mod: step, horizon: h}, true)
	var atAccepted, atRejected float64
	for at, kept := range candidates {
		if at < 2*h/3 {
			continue // the last third runs at half the peak rate
		}
		if kept && (atAccepted == 0 || at < atAccepted) {
			atAccepted = at
		}
		if !kept && (atRejected == 0 || at < atRejected) {
			atRejected = at
		}
	}
	if atAccepted == 0 || atRejected == 0 {
		t.Fatal("probe run found no accepted or no rejected candidate")
	}
	cases := []globalCase{
		{name: "modulated default", mod: step, horizon: h},
		{name: "sliced run", mod: step, horizon: h, sliced: true},
		{name: "accepted candidate at horizon", mod: step, horizon: atAccepted},
		{name: "rejected candidate at horizon", mod: step, horizon: atRejected},
		{name: "near-zero phase across horizon", mod: tiny, horizon: h},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			want, wantState, _ := runGlobal(t, c, true)
			got, gotState, _ := runGlobal(t, c, false)
			if len(want) == 0 {
				t.Fatal("reference run generated no specs")
			}
			if len(got) != len(want) {
				t.Fatalf("source emitted %d specs, reference %d", len(got), len(want))
			}
			for i := range want {
				if got[i] != want[i] {
					t.Fatalf("spec %d diverged:\nsource    %s\nreference %s", i, got[i], want[i])
				}
			}
			if !sameSource(gotState, wantState) {
				t.Fatal("RNG state after the run differs from the reference")
			}
		})
	}
}

// TestModulatorBoundsRejected pins input validation at both thinning
// call sites: a modulator bound that is not positive and finite, or a
// modulated stream without a finite horizon, is an error at
// configuration time — never a silent zero rate or a panic mid-run.
func TestModulatorBoundsRejected(t *testing.T) {
	type bad struct {
		name    string
		mod     RateModulator
		horizon float64
	}
	cases := []bad{
		{"infinite bound", constantMod{f: math.Inf(1)}, 100},
		{"NaN bound", constantMod{f: math.NaN()}, 100},
		{"zero bound", constantMod{f: 0}, 100},
		{"negative bound", constantMod{f: -1}, 100},
		{"no horizon", constantMod{f: 2}, 0},
		{"infinite horizon", constantMod{f: 2}, math.Inf(1)},
		{"NaN horizon", constantMod{f: 2}, math.NaN()},
	}
	id := func() uint64 { return 0 }
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			f := NewLocalFleet(sim.New())
			err := f.Configure(2, FleetParams{MeanExec: 1, Mod: c.mod, Horizon: c.horizon, Pool: &task.Pool{}},
				id, id, func(*task.Task) {})
			if err == nil {
				t.Error("LocalFleet.Configure accepted it")
			}
			_, err = NewGlobalSource(sim.New(), rng.New(1), 6, GlobalParams{
				Rate: 0.5, Shape: SerialShape{M: 4, MeanExec: 1}, SlackMax: 1,
				RelFlex: 1, MeanLocalExec: 1, Mod: c.mod, Horizon: c.horizon,
			}, func(Spec) {})
			if err == nil {
				t.Error("NewGlobalSource accepted it")
			}
		})
	}
	// Unmodulated streams need no horizon.
	f := NewLocalFleet(sim.New())
	if err := f.Configure(2, FleetParams{MeanExec: 1, Pool: &task.Pool{}}, id, id, func(*task.Task) {}); err != nil {
		t.Errorf("unmodulated fleet without a horizon: %v", err)
	}
}

// TestFleetRequiresPool: every local task comes from the run's task
// pool, so Configure rejects a fleet without one instead of letting the
// first arrival dereference it.
func TestFleetRequiresPool(t *testing.T) {
	id := func() uint64 { return 0 }
	f := NewLocalFleet(sim.New())
	if err := f.Configure(1, FleetParams{MeanExec: 1}, id, id, func(*task.Task) {}); err == nil {
		t.Error("LocalFleet.Configure accepted a nil Pool")
	}
}

// TestFleetReuseRegeneratesIdentically pins the warm-workspace contract:
// Configure + SeedNode on a used fleet reproduces the first run exactly.
func TestFleetReuseRegeneratesIdentically(t *testing.T) {
	c := fleetCase{rates: []float64{0.6, 0.6, 0.6}, horizon: 1500}
	first, _ := runFleet(t, c, 11)

	// Same fleet object, reconfigured across engine resets.
	eng := sim.New()
	f := NewLocalFleet(eng)
	var second []emitted
	for run := 0; run < 2; run++ {
		eng.Reset()
		var id, seq uint64
		second = second[:0]
		err := f.Configure(len(c.rates), FleetParams{
			MeanExec: 1, SlackMin: 0.25, SlackMax: 2.5, Pool: &task.Pool{},
		},
			func() uint64 { id++; return id },
			func() uint64 { seq++; return seq },
			func(tk *task.Task) { second = append(second, record(tk)) })
		if err != nil {
			t.Fatal(err)
		}
		for i, rate := range c.rates {
			if err := f.SeedNode(i, rate, 11, rng.StreamHashParts("local-", uint64(i), "")); err != nil {
				t.Fatal(err)
			}
		}
		f.Start()
		eng.Run(1500)
		if len(second) != len(first) {
			t.Fatalf("run %d emitted %d tasks, want %d", run, len(second), len(first))
		}
		for i := range first {
			if second[i] != first[i] {
				t.Fatalf("run %d task %d diverged", run, i)
			}
		}
	}
}

// TestLocalStreamFitsCacheLine pins the layout LocalFleet's working set
// relies on: one node's arrival state is at most one 64-byte cache line,
// so an arrival at a 64k-node topology touches one line of per-node
// state.
func TestLocalStreamFitsCacheLine(t *testing.T) {
	if size := unsafe.Sizeof(localStream{}); size > 64 {
		t.Fatalf("localStream is %d bytes, want <= 64", size)
	}
}
