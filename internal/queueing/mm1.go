// Package queueing provides closed-form M/M/1 and M/G/1 results used to
// validate the simulator against theory. With frac_local = 1 and FCFS service,
// every node of the simulated system is an independent M/M/1 queue, so
// the whole pipeline — arrival processes, service sampling, queueing,
// deadline accounting, metrics — can be checked against exact formulas.
// (Under EDF the waiting-time distribution has no simple closed form;
// the FCFS check still exercises every component except the queue
// discipline.)
package queueing

import (
	"fmt"
	"math"
)

// MM1 describes one M/M/1 queue: Poisson arrivals at rate Lambda,
// exponential service at rate Mu.
type MM1 struct {
	Lambda float64
	Mu     float64
}

// Validate checks stability.
func (q MM1) Validate() error {
	if q.Lambda < 0 || q.Mu <= 0 {
		return fmt.Errorf("queueing: bad rates lambda=%v mu=%v", q.Lambda, q.Mu)
	}
	if q.Rho() >= 1 {
		return fmt.Errorf("queueing: unstable queue rho=%v", q.Rho())
	}
	return nil
}

// Rho returns the utilization λ/µ.
func (q MM1) Rho() float64 { return q.Lambda / q.Mu }

// MeanSojourn returns the mean time in system W = 1/(µ−λ).
func (q MM1) MeanSojourn() float64 { return 1 / (q.Mu - q.Lambda) }

// MeanWait returns the mean time in queue Wq = ρ/(µ−λ).
func (q MM1) MeanWait() float64 { return q.Rho() / (q.Mu - q.Lambda) }

// MeanQueueLength returns L = ρ/(1−ρ) (jobs in system, by Little's law
// L = λW).
func (q MM1) MeanQueueLength() float64 { return q.Rho() / (1 - q.Rho()) }

// WaitExceeds returns P(Wq > t) = ρ·e^{−(µ−λ)t} for t ≥ 0, the FCFS
// waiting-time tail. Waiting time is independent of the job's own
// service requirement under FCFS, which makes miss probabilities
// tractable.
func (q MM1) WaitExceeds(t float64) float64 {
	if t < 0 {
		return 1
	}
	return q.Rho() * math.Exp(-(q.Mu-q.Lambda)*t)
}

// SojournExceeds returns P(W > t) = e^{−(µ−λ)t}, the tail of the full
// sojourn (wait + service) time.
func (q MM1) SojournExceeds(t float64) float64 {
	if t < 0 {
		return 1
	}
	return math.Exp(-(q.Mu - q.Lambda) * t)
}

// MissProbUniformSlack returns the probability that a job with deadline
// dl = ar + ex + sl misses it under FCFS, when sl ~ U[a, b]:
//
//	P(miss) = P(Wq > sl) = ∫ ρ e^{−(µ−λ)s} ds / (b−a)
//	        = ρ (e^{−(µ−λ)a} − e^{−(µ−λ)b}) / ((µ−λ)(b−a))
//
// It relies on FCFS waiting being independent of the job's own service
// time, so the miss event depends only on the slack draw.
func (q MM1) MissProbUniformSlack(a, b float64) (float64, error) {
	if err := q.Validate(); err != nil {
		return 0, err
	}
	if a < 0 || b < a {
		return 0, fmt.Errorf("queueing: bad slack range [%v, %v]", a, b)
	}
	delta := q.Mu - q.Lambda
	if b == a {
		return q.WaitExceeds(a), nil
	}
	return q.Rho() * (math.Exp(-delta*a) - math.Exp(-delta*b)) / (delta * (b - a)), nil
}
