// Package workload generates the task populations of the simulation model
// (paper sections 4.1, 5.2): per-node Poisson streams of local tasks with
// exponential demands and uniform slack, and a single Poisson stream of
// global tasks whose serial-parallel structure, placements, execution
// times and end-to-end deadlines follow the paper's baseline and its
// variations (heterogeneous subtask counts, unbalanced node loads,
// imperfect execution-time predictions).
package workload

import "repro/internal/rng"

// PexModel turns an actual execution time into the prediction pex(X)
// visible to strategies and laxity schedulers. RelErr introduces a
// multiplicative uniform error (section 4.3 "error in the execution time
// predictions"): pex = ex·(1 + U(−RelErr, +RelErr)), floored at a small
// positive value. RelErr = 0 reproduces Table 1's perfect predictions
// (pex(X)/ex(X) = 1) without consuming random numbers.
type PexModel struct {
	RelErr float64
}

// Sample returns the prediction for an actual demand ex.
func (m PexModel) Sample(r *rng.Source, ex float64) float64 {
	if m.RelErr == 0 {
		return ex
	}
	pex := ex * (1 + r.Uniform(-m.RelErr, m.RelErr))
	const floor = 1e-9
	if pex < floor {
		pex = floor
	}
	return pex
}
