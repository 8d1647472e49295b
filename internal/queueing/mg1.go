package queueing

import "fmt"

// MG1 describes one M/G/1 queue served FCFS: Poisson arrivals at rate
// Lambda and independent service times with mean MeanService and second
// moment SecondMoment (E[S²]). With frac_local = 1 and FCFS, a node whose
// local demands follow a scenario's demand override is exactly such a
// queue, so the simulator can be checked beyond exponential service.
type MG1 struct {
	Lambda       float64
	MeanService  float64
	SecondMoment float64
}

// Validate checks the moments and stability.
func (q MG1) Validate() error {
	if q.Lambda < 0 || q.MeanService <= 0 || q.SecondMoment < q.MeanService*q.MeanService {
		return fmt.Errorf("queueing: bad M/G/1 lambda=%v E[S]=%v E[S²]=%v", q.Lambda, q.MeanService, q.SecondMoment)
	}
	if q.Rho() >= 1 {
		return fmt.Errorf("queueing: unstable queue rho=%v", q.Rho())
	}
	return nil
}

// Rho returns the utilization λ·E[S].
func (q MG1) Rho() float64 { return q.Lambda * q.MeanService }

// MeanSojourn returns the Pollaczek–Khinchine mean time in system
// W = E[S] + λE[S²]/(2(1−ρ)).
func (q MG1) MeanSojourn() float64 {
	return q.MeanService + q.Lambda*q.SecondMoment/(2*(1-q.Rho()))
}
