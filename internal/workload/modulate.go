package workload

import (
	"fmt"
	"math"

	"repro/internal/rng"
	"repro/internal/sim"
)

// RateModulator scales a source's arrival rate over simulated time,
// turning the stationary Poisson streams of the paper into
// non-homogeneous ones (load steps, ramps, bursts). FactorAt must be
// bounded above by MaxFactor for all t; both must be pure functions so
// runs stay deterministic. The scenario package provides the standard
// implementation.
type RateModulator interface {
	// FactorAt returns the instantaneous rate multiplier at time t
	// (1 = nominal).
	FactorAt(t float64) float64
	// MaxFactor returns a finite upper bound on FactorAt over the run.
	MaxFactor() float64
}

// arrivalOwner is the source behind an arrivals loop; accepted
// arrivals call back into it. An interface instead of a captured func()
// lets the loop live by value inside its owner with no per-source
// closure allocations.
type arrivalOwner interface{ arrive() }

// arrivals drives one source's arrival process. With a nil modulator it
// draws plain exponential gaps: each arrival is one engine event that
// emits the task and schedules the next arrival a gap later.
//
// With a modulator it generates a non-homogeneous Poisson process by
// Lewis-Shedler thinning: candidates follow one another at the peak rate
// rate·MaxFactor and each is accepted with probability
// FactorAt(t)/MaxFactor, which needs no rate integration and keeps the
// run a pure function of the seed. The thinning runs inline: at start
// and after each emitted arrival, the loop draws a gap, advances t by
// it (the same float sum the engine computes as now+gap), stops once t
// is past the run horizon, and otherwise draws the accept uniform
// against FactorAt(t), repeating until a candidate is accepted. Only
// the accepted candidate becomes an engine event, and its handler emits
// the arrival without drawing again. The stream therefore sees the same
// draws in the same order as a loop that fired every candidate as an
// event, and every arrival lands on the same float time; only rejected
// candidates stop costing a queue push and pop. A candidate exactly at
// the horizon is still tested, as an engine run to the horizon would
// fire it.
//
// The loop lives by value inside its owning source and self-schedules
// through one package-level handler (the loop itself rides along as the
// payload word) instead of a per-source closure; the peak-rate mean gap
// and the modulator's bound are hoisted to fields at reconfiguration
// (MaxFactor is constant by contract).
//
// Every draw of the source — gap, thinning accept, and the arrival's
// body draws — interleaves on the one stream r, in exact arrival order;
// the results are frozen by the golden digests in internal/system.
type arrivals struct {
	eng       *sim.Engine
	r         *rng.Source
	rate      float64
	peakMean  float64 // mean inter-candidate gap at the peak rate
	maxFactor float64 // cached mod.MaxFactor(); 1 with no modulator
	horizon   float64 // thinning stops past it (modulated only)
	mod       RateModulator
	owner     arrivalOwner
	cb        sim.Callback
	fireFn    func(int32) // a.fire, bound once in init
}

// init binds the loop to its engine and owner, once per source
// lifetime.
func (a *arrivals) init(eng *sim.Engine, owner arrivalOwner) {
	a.eng, a.owner = eng, owner
	a.fireFn = a.fire
}

// reconfigure rebinds the arrivals loop for a fresh run in place: a new
// (typically reseeded) RNG stream, rate, modulator and horizon,
// re-registering the shared handler on the engine (an
// engine Reset clears registrations). It allocates nothing after the
// first run.
func (a *arrivals) reconfigure(r *rng.Source, rate float64, mod RateModulator, horizon float64) error {
	maxFactor, err := peakFactor(mod, horizon)
	if err != nil {
		return err
	}
	a.r, a.rate, a.maxFactor, a.mod, a.horizon = r, rate, maxFactor, mod, horizon
	a.peakMean = 0
	if rate > 0 {
		a.peakMean = 1 / (rate * maxFactor)
	}
	a.cb = a.eng.RegisterArg(a.fireFn)
	return nil
}

// start schedules the first arrival. A zero rate generates nothing.
func (a *arrivals) start() {
	if a.rate > 0 {
		a.schedule()
	}
}

// fire is the arrival handler: it emits the arrival the pending event
// stands for and schedules the next one. The loop's events carry no
// argument.
func (a *arrivals) fire(int32) {
	a.owner.arrive()
	a.schedule()
}

// schedule queues the next arrival: one gap ahead when unmodulated,
// else the first candidate the thinning loop keeps.
func (a *arrivals) schedule() {
	if a.mod == nil {
		a.eng.MustScheduleArg(a.r.Exponential(a.peakMean), a.cb, 0)
		return
	}
	a.thin(a.eng.Now())
}

// thin runs the inline thinning loop from time t and schedules the first
// accepted candidate at or before the horizon, if any.
func (a *arrivals) thin(t float64) {
	for {
		t += a.r.Exponential(a.peakMean)
		if t > a.horizon {
			return
		}
		if thinAccept(a.mod, a.maxFactor, t, a.r) {
			mustCallAt(a.eng, t, a.cb, 0)
			return
		}
	}
}

// peakFactor validates a stream's modulator and returns the factor its
// candidates run at: 1 unmodulated, else the finite positive MaxFactor.
// A modulated stream also needs a finite horizon to bound its thinning
// loop.
func peakFactor(mod RateModulator, horizon float64) (float64, error) {
	if mod == nil {
		return 1, nil
	}
	mf := mod.MaxFactor()
	if !(mf > 0) || math.IsInf(mf, 1) {
		return 0, fmt.Errorf("workload: rate modulator MaxFactor = %v, want > 0 and finite", mf)
	}
	if !(horizon > 0) || math.IsInf(horizon, 1) {
		return 0, fmt.Errorf("workload: modulated stream horizon = %v, want > 0 and finite", horizon)
	}
	return mf, nil
}

// thinAccept is the thinning test of one candidate at time t: keep it
// with probability FactorAt(t)/maxFactor, drawing the uniform from r.
func thinAccept(mod RateModulator, maxFactor, t float64, r *rng.Source) bool {
	f := mod.FactorAt(t)
	if f < 0 {
		f = 0
	}
	if f > maxFactor {
		panic(fmt.Sprintf("workload: modulator factor %v exceeds declared max %v", f, maxFactor))
	}
	return r.Float64()*maxFactor < f
}

// mustCallAt schedules an accepted arrival at absolute time t, which the
// thinning loop guarantees is not in the past.
func mustCallAt(eng *sim.Engine, t float64, cb sim.Callback, arg int32) {
	if _, err := eng.CallArgAt(t, cb, arg); err != nil {
		panic(fmt.Sprintf("workload: %v", err))
	}
}
