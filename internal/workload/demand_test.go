package workload

import (
	"math"
	"testing"

	"repro/internal/rng"
	"repro/internal/sim"
	"repro/internal/task"
)

// TestDemandsAreMeanMatched verifies the load-preserving contract: every
// distribution samples around the requested mean.
func TestDemandsAreMeanMatched(t *testing.T) {
	const (
		mean = 2.0
		n    = 200000
	)
	demands := []Demand{
		ExponentialDemand{},
		ParetoDemand{Alpha: 2.5},
		LognormalDemand{Sigma: 1},
		DeterministicDemand{},
	}
	for _, d := range demands {
		r := rng.New(7)
		sum := 0.0
		for i := 0; i < n; i++ {
			x := d.Sample(r, mean)
			if x <= 0 || math.IsNaN(x) || math.IsInf(x, 0) {
				t.Fatalf("%s: sample %v", d.Name(), x)
			}
			sum += x
		}
		got := sum / n
		// Pareto at alpha 2.5 has heavy tails; give it a looser band.
		tol := 0.05 * mean
		if math.Abs(got-mean) > tol {
			t.Errorf("%s: sample mean %v, want %v ±%v", d.Name(), got, mean, tol)
		}
	}
}

func TestValidateDemand(t *testing.T) {
	valid := []Demand{nil, ExponentialDemand{}, ParetoDemand{Alpha: 1.5},
		LognormalDemand{Sigma: 0}, DeterministicDemand{}}
	for _, d := range valid {
		if err := ValidateDemand(d); err != nil {
			t.Errorf("ValidateDemand(%#v) = %v", d, err)
		}
	}
	invalid := []Demand{ParetoDemand{Alpha: 1}, ParetoDemand{Alpha: -2},
		ParetoDemand{Alpha: math.NaN()}, LognormalDemand{Sigma: -1},
		LognormalDemand{Sigma: math.NaN()}}
	for _, d := range invalid {
		if err := ValidateDemand(d); err == nil {
			t.Errorf("ValidateDemand(%#v) accepted", d)
		}
	}
}

// TestShapesRejectInvalidDemand pins that a bad Demand on a shape is a
// construction error, not a deep rng panic mid-run.
func TestShapesRejectInvalidDemand(t *testing.T) {
	bad := ParetoDemand{Alpha: 1}
	shapes := []Shape{
		SerialShape{M: 3, MeanExec: 1, Demand: bad},
		ParallelShape{M: 2, MeanExec: 1, Demand: bad},
		MixedShape{Stages: []int{1, 2}, MeanExec: 1, Demand: bad},
		HeteroSerialShape{MinM: 1, MaxM: 3, MeanExec: 1, Demand: bad},
	}
	for _, sh := range shapes {
		if _, err := sh.Build(rng.New(1), 4); err == nil {
			t.Errorf("%s accepted Pareto alpha 1", sh.Name())
		}
	}
}

// constantMod is a test modulator with a flat factor.
type constantMod struct{ f float64 }

func (m constantMod) FactorAt(float64) float64 { return m.f }
func (m constantMod) MaxFactor() float64       { return m.f }

// stepMod doubles the rate inside [on, off).
type stepMod struct{ on, off float64 }

func (m stepMod) FactorAt(t float64) float64 {
	if t >= m.on && t < m.off {
		return 2
	}
	return 1
}
func (m stepMod) MaxFactor() float64 { return 2 }

// countArrivals runs a one-node modulated fleet to the horizon and bins
// arrival times.
func countArrivals(t *testing.T, mod RateModulator, horizon float64) (first, second int) {
	t.Helper()
	eng := sim.New()
	var id, seq uint64
	f := NewLocalFleet(eng)
	err := f.Configure(1, FleetParams{MeanExec: 1, SlackMax: 1, Mod: mod, Horizon: horizon},
		func() uint64 { id++; return id },
		func() uint64 { seq++; return seq },
		func(tk *task.Task) {
			if tk.Arrival < horizon/2 {
				first++
			} else {
				second++
			}
		},
	)
	if err != nil {
		t.Fatal(err)
	}
	if err := f.SeedNode(0, 1, 11, rng.StreamHash("local-0")); err != nil {
		t.Fatal(err)
	}
	f.Start()
	eng.Run(horizon)
	return first, second
}

func TestModulatedSourceFollowsTheTimeline(t *testing.T) {
	const horizon = 20000
	// Rate 2 in the second half only: the halves should differ by
	// roughly 2x.
	first, second := countArrivals(t, stepMod{on: horizon / 2, off: horizon}, horizon)
	if first == 0 || second == 0 {
		t.Fatalf("arrivals: %d, %d", first, second)
	}
	ratio := float64(second) / float64(first)
	if ratio < 1.8 || ratio > 2.2 {
		t.Errorf("second/first half arrivals = %v, want ~2 (got %d vs %d)", ratio, second, first)
	}
}

func TestConstantModulatorScalesTheRate(t *testing.T) {
	const horizon = 20000
	base1, base2 := countArrivals(t, nil, horizon)
	tripled1, tripled2 := countArrivals(t, constantMod{f: 3}, horizon)
	base, tripled := float64(base1+base2), float64(tripled1+tripled2)
	if ratio := tripled / base; ratio < 2.8 || ratio > 3.2 {
		t.Errorf("tripled/base arrivals = %v, want ~3 (got %v vs %v)", ratio, tripled, base)
	}
}

// TestExcessiveFactorPanics pins the thinning invariant: a modulator
// whose FactorAt exceeds MaxFactor is a programming error, not silent
// rate clipping.
func TestExcessiveFactorPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("modulator exceeding MaxFactor did not panic")
		}
	}()
	countArrivals(t, liarMod{}, 1000)
}

// liarMod declares max 1 but reports 2.
type liarMod struct{}

func (liarMod) FactorAt(float64) float64 { return 2 }
func (liarMod) MaxFactor() float64       { return 1 }
