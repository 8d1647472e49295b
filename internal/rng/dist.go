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
