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

// pacer schedules the arrivals of a run's Poisson streams, local and
// global alike. It holds what the streams share: the engine, the
// modulator, its cached bound and the horizon; each stream brings its
// own RNG, peak-rate mean gap, handler and argument.
//
// With a nil modulator an arrival is one engine event that emits the
// task and schedules the next arrival one exponential gap later.
//
// With a modulator it generates a non-homogeneous Poisson process by
// Lewis-Shedler thinning: candidates follow one another at the peak rate
// rate·MaxFactor and each is accepted with probability
// FactorAt(t)/MaxFactor, which needs no rate integration and keeps the
// run a pure function of the seed. The thinning runs inline: at start
// and after each emitted arrival, next draws a gap, advances t by it
// (the same float sum the engine computes as now+gap), stops once t is
// past the run horizon, and otherwise draws the accept uniform against
// FactorAt(t), repeating until a candidate is accepted. Only the
// accepted candidate becomes an engine event, and its handler emits the
// arrival without drawing again. A stream therefore sees the same draws
// in the same order as a loop that fired every candidate as an event,
// and every arrival lands on the same float time; only rejected
// candidates stop costing a queue push and pop. A candidate exactly at
// the horizon is still tested, as an engine run to the horizon would
// fire it. The equivalence is pinned by TestFleetMatchesSources and
// TestGlobalSourceMatchesReference.
//
// Every draw of a stream (gap, thinning accept, and the arrival's body
// draws) interleaves on its one RNG, in exact arrival order; the
// results are frozen by the golden digests in internal/system.
type pacer struct {
	eng       *sim.Engine
	mod       RateModulator
	maxFactor float64 // cached mod.MaxFactor(); 1 with no modulator
	horizon   float64 // thinning stops past it (modulated only)
}

// newPacer validates a run's modulator and returns the pacer of its
// streams. A modulated run needs a finite positive MaxFactor and a
// finite positive horizon to bound its thinning loop.
func newPacer(eng *sim.Engine, mod RateModulator, horizon float64) (pacer, error) {
	p := pacer{eng: eng, mod: mod, maxFactor: 1, horizon: horizon}
	if mod == nil {
		return p, nil
	}
	p.maxFactor = mod.MaxFactor()
	if !(p.maxFactor > 0) || math.IsInf(p.maxFactor, 1) {
		return pacer{}, fmt.Errorf("workload: rate modulator MaxFactor = %v, want > 0 and finite", p.maxFactor)
	}
	if !(horizon > 0) || math.IsInf(horizon, 1) {
		return pacer{}, fmt.Errorf("workload: modulated stream horizon = %v, want > 0 and finite", horizon)
	}
	return p, nil
}

// next schedules a stream's next arrival as an event for cb carrying
// arg: one gap of mean peakMean ahead when unmodulated, else the first
// candidate the thinning loop keeps at or before the horizon, if any.
func (p *pacer) next(r *rng.Source, peakMean float64, cb sim.Callback, arg int32) {
	if p.mod == nil {
		p.eng.MustScheduleArg(r.Exponential(peakMean), cb, arg)
		return
	}
	for t := p.eng.Now(); ; {
		t += r.Exponential(peakMean)
		if t > p.horizon {
			return
		}
		f := p.mod.FactorAt(t)
		if f < 0 {
			f = 0
		}
		if f > p.maxFactor {
			panic(fmt.Sprintf("workload: modulator factor %v exceeds declared max %v", f, p.maxFactor))
		}
		if r.Float64()*p.maxFactor < f {
			// t is not in the past: it is now plus non-negative gaps.
			if _, err := p.eng.CallArgAt(t, cb, arg); err != nil {
				panic(fmt.Sprintf("workload: %v", err))
			}
			return
		}
	}
}
