package stats

import (
	"fmt"
	"math"
)

// tTable95 holds two-sided 95% Student-t critical values indexed by
// degrees of freedom (1-based; index 0 unused), rounded to three
// decimals as printed in the standard tables. Every interval the
// artifacts report was computed with these values.
var tTable95 = [...]float64{
	0, 12.706, 4.303, 3.182, 2.776, 2.571, 2.447, 2.365, 2.306, 2.262,
	2.228, 2.201, 2.179, 2.160, 2.145, 2.131, 2.120, 2.110, 2.101, 2.093,
	2.086, 2.080, 2.074, 2.069, 2.064, 2.060, 2.056, 2.052, 2.048, 2.045,
	2.042,
}

// z975 is the standard normal 0.975 quantile.
const z975 = 1.959963984540054

// TCritical95 returns the two-sided 95% Student-t critical value for the
// given degrees of freedom. Non-positive df returns 0 (no interval can be
// formed from fewer than two observations). Beyond the table, the
// Cornish–Fisher expansion of the t quantile in powers of 1/df
// (Abramowitz and Stegun 26.7.5) is accurate to about 1e-7 at df 31 and
// better above; it tends to the normal quantile as df grows.
func TCritical95(df int) float64 {
	if df <= 0 {
		return 0
	}
	if df < len(tTable95) {
		return tTable95[df]
	}
	x, v := z975, float64(df)
	x2 := x * x
	g1 := x * (x2 + 1) / 4
	g2 := x * ((5*x2+16)*x2 + 3) / 96
	g3 := x * (((3*x2+19)*x2+17)*x2 - 15) / 384
	g4 := x * ((((79*x2+776)*x2+1482)*x2-1920)*x2 - 945) / 92160
	return x + (g1+(g2+(g3+g4/v)/v)/v)/v
}

// Estimate is a point estimate with a symmetric 95% confidence half-width.
type Estimate struct {
	Mean     float64
	HalfCI   float64
	N        int // number of replications behind the estimate
	StdError float64
}

// Lo returns the lower bound of the 95% interval.
func (e Estimate) Lo() float64 { return e.Mean - e.HalfCI }

// Hi returns the upper bound of the 95% interval.
func (e Estimate) Hi() float64 { return e.Mean + e.HalfCI }

// MeanCI returns the mean of xs with a 95% Student-t confidence half-width
// across replications. With fewer than two values the half-width is zero.
func MeanCI(xs []float64) Estimate {
	var w Welford
	for _, x := range xs {
		w.Add(x)
	}
	est := Estimate{Mean: w.Mean(), N: int(w.N())}
	if w.N() >= 2 {
		est.StdError = w.StdDev() / math.Sqrt(float64(w.N()))
		est.HalfCI = TCritical95(int(w.N())-1) * est.StdError
	}
	return est
}

// PairedMeanCI returns the mean of the paired differences a[i]−b[i]
// with a 95% Student-t half-width across pairs, as MeanCI does for one
// sample. When a[i] and b[i] share their random numbers (one seed runs
// both configurations), the pairing cancels the common noise and the
// interval is narrower than either sample's own. Slices of unequal
// length have no pairing and are rejected.
func PairedMeanCI(a, b []float64) (Estimate, error) {
	if len(a) != len(b) {
		return Estimate{}, fmt.Errorf("stats: paired samples of %d and %d values", len(a), len(b))
	}
	d := make([]float64, len(a))
	for i := range a {
		d[i] = a[i] - b[i]
	}
	return MeanCI(d), nil
}
