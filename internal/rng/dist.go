package rng

import "math"

// Uniform returns a value uniformly distributed in [lo, hi). It panics if
// hi < lo.
func (r *Source) Uniform(lo, hi float64) float64 {
	if hi < lo {
		panic("rng: Uniform called with hi < lo")
	}
	return lo + (hi-lo)*r.Float64()
}

// Exponential returns an exponentially distributed value with the given
// mean. It panics if mean <= 0. Exponential variates model both service
// demands and Poisson inter-arrival gaps in the paper's workload.
func (r *Source) Exponential(mean float64) float64 {
	if mean <= 0 {
		panic("rng: Exponential called with mean <= 0")
	}
	// 1-Float64() is in (0,1], so the logarithm is finite.
	return -mean * math.Log(1-r.Float64())
}

// Erlang returns an Erlang-k distributed value: the sum of k independent
// exponentials each with mean stageMean. The paper notes that the total
// execution time of an m-stage global task is m-stage Erlang.
func (r *Source) Erlang(k int, stageMean float64) float64 {
	if k <= 0 {
		panic("rng: Erlang called with k <= 0")
	}
	// Product-of-uniforms form needs a single log instead of k of them.
	prod := 1.0
	for i := 0; i < k; i++ {
		prod *= 1 - r.Float64()
	}
	return -stageMean * math.Log(prod)
}

// Poisson returns a Poisson-distributed count with the given mean, using
// Knuth's multiplication method for small means and a normal approximation
// beyond. Arrival processes in the simulator are generated from
// exponential gaps, so this is only used for batch-style workloads and
// tests.
func (r *Source) Poisson(mean float64) int {
	if mean < 0 {
		panic("rng: Poisson called with mean < 0")
	}
	if mean == 0 {
		return 0
	}
	if mean > 64 {
		// Normal approximation with continuity correction; adequate for
		// workload shaping at large means.
		v := r.Normal(mean, math.Sqrt(mean)) + 0.5
		if v < 0 {
			return 0
		}
		return int(v)
	}
	limit := math.Exp(-mean)
	count := 0
	for prod := r.Float64(); prod > limit; prod *= r.Float64() {
		count++
	}
	return count
}

// Pareto returns a Pareto-distributed value with shape alpha and scale
// (minimum) xm, via inversion: xm · U^(−1/alpha). It panics if alpha <= 0
// or xm <= 0. With alpha <= 1 the distribution has infinite mean; the
// workload package therefore requires alpha > 1 for demand modelling.
func (r *Source) Pareto(alpha, xm float64) float64 {
	if alpha <= 0 || xm <= 0 {
		panic("rng: Pareto called with alpha <= 0 or xm <= 0")
	}
	// 1-Float64() is in (0,1], so the power is finite.
	return xm * math.Pow(1-r.Float64(), -1/alpha)
}

// Lognormal returns exp(N(mu, sigma)): a lognormally distributed value
// whose logarithm has mean mu and standard deviation sigma. It panics if
// sigma < 0. The mean of the variate is exp(mu + sigma²/2).
func (r *Source) Lognormal(mu, sigma float64) float64 {
	if sigma < 0 {
		panic("rng: Lognormal called with sigma < 0")
	}
	return math.Exp(r.Normal(mu, sigma))
}

// Normal returns a normally distributed value with the given mean and
// standard deviation, generated with the Marsaglia polar method.
func (r *Source) Normal(mean, stddev float64) float64 {
	for {
		u := 2*r.Float64() - 1
		v := 2*r.Float64() - 1
		s := u*u + v*v
		if s >= 1 || s == 0 {
			continue
		}
		return mean + stddev*u*math.Sqrt(-2*math.Log(s)/s)
	}
}
