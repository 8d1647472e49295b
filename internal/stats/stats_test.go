package stats

import (
	"math"
	"testing"
	"testing/quick"
)

func almostEqual(a, b, tol float64) bool {
	return math.Abs(a-b) <= tol
}

func TestWelfordKnownValues(t *testing.T) {
	var w Welford
	for _, x := range []float64{2, 4, 4, 4, 5, 5, 7, 9} {
		w.Add(x)
	}
	if got := w.Mean(); !almostEqual(got, 5, 1e-12) {
		t.Errorf("Mean = %v, want 5", got)
	}
	// Unbiased sample variance of this classic data set is 32/7.
	if got := w.Variance(); !almostEqual(got, 32.0/7.0, 1e-12) {
		t.Errorf("Variance = %v, want %v", got, 32.0/7.0)
	}
	if w.Min() != 2 || w.Max() != 9 {
		t.Errorf("Min,Max = %v,%v want 2,9", w.Min(), w.Max())
	}
	if w.N() != 8 {
		t.Errorf("N = %d, want 8", w.N())
	}
}

func TestWelfordEmpty(t *testing.T) {
	var w Welford
	if w.Mean() != 0 || w.Variance() != 0 || w.StdDev() != 0 || w.N() != 0 {
		t.Error("zero-value Welford should report all zeros")
	}
}

func TestWelfordSingle(t *testing.T) {
	var w Welford
	w.Add(3.5)
	if w.Mean() != 3.5 || w.Variance() != 0 {
		t.Errorf("single observation: Mean=%v Variance=%v", w.Mean(), w.Variance())
	}
}

func TestWelfordMergeMatchesSequential(t *testing.T) {
	f := func(xs, ys []float64) bool {
		var all, a, b Welford
		for _, x := range xs {
			x = math.Mod(x, 1e6)
			all.Add(x)
			a.Add(x)
		}
		for _, y := range ys {
			y = math.Mod(y, 1e6)
			all.Add(y)
			b.Add(y)
		}
		a.Merge(&b)
		return a.N() == all.N() &&
			almostEqual(a.Mean(), all.Mean(), 1e-6*(1+math.Abs(all.Mean()))) &&
			almostEqual(a.Variance(), all.Variance(), 1e-4*(1+all.Variance()))
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

func TestWelfordMergeEmptyCases(t *testing.T) {
	var a, b Welford
	a.Add(1)
	a.Add(2)
	want := a
	a.Merge(&b) // merging empty changes nothing
	if a != want {
		t.Error("merging an empty accumulator changed state")
	}
	b.Merge(&a) // merging into empty copies
	if b != want {
		t.Error("merging into an empty accumulator did not copy")
	}
}

func TestRatio(t *testing.T) {
	var c Ratio
	if c.Value() != 0 {
		t.Error("empty ratio should be 0")
	}
	for i := 0; i < 10; i++ {
		c.Observe(i < 3)
	}
	if got := c.Value(); !almostEqual(got, 0.3, 1e-12) {
		t.Errorf("Value = %v, want 0.3", got)
	}
	if c.Hits() != 3 || c.Total() != 10 {
		t.Errorf("Hits,Total = %d,%d want 3,10", c.Hits(), c.Total())
	}
	var d Ratio
	d.Observe(true)
	c.Merge(&d)
	if c.Hits() != 4 || c.Total() != 11 {
		t.Errorf("after merge Hits,Total = %d,%d want 4,11", c.Hits(), c.Total())
	}
}

func TestTCritical95(t *testing.T) {
	tests := []struct {
		df   int
		want float64
	}{
		{df: 0, want: 0},
		{df: -1, want: 0},
		{df: 1, want: 12.706},
		{df: 5, want: 2.571},
		{df: 30, want: 2.042},
		{df: 31, want: 2.0395134},
		{df: 1000, want: 1.9623391},
	}
	for _, tt := range tests {
		if got := TCritical95(tt.df); !almostEqual(got, tt.want, 5e-8) {
			t.Errorf("TCritical95(%d) = %v, want %v", tt.df, got, tt.want)
		}
	}
}

// tQuantile975 computes the Student-t 0.975 quantile for df degrees of
// freedom from the density alone: Newton's method on the Simpson-rule
// integral of the density over [0, t], which must reach 0.475.
func tQuantile975(df int) float64 {
	v := float64(df)
	lg1, _ := math.Lgamma((v + 1) / 2)
	lg2, _ := math.Lgamma(v / 2)
	c := math.Exp(lg1-lg2) / math.Sqrt(v*math.Pi)
	density := func(x float64) float64 { return c * math.Pow(1+x*x/v, -(v+1)/2) }
	integral := func(b float64) float64 {
		const n = 4000 // even
		h := b / n
		sum := density(0) + density(b)
		for i := 1; i < n; i++ {
			w := 2.0
			if i%2 == 1 {
				w = 4
			}
			sum += w * density(float64(i)*h)
		}
		return sum * h / 3
	}
	q := 2.0
	for range 50 {
		step := (integral(q) - 0.475) / density(q)
		q -= step
		if math.Abs(step) < 1e-12 {
			break
		}
	}
	return q
}

// TestTCritical95MatchesQuantile checks every critical value against a
// quantile computed independently from the t density: each table entry
// (df 1–30) is the exact quantile rounded to three decimals, and beyond
// the table the value is within 1e-6 of the exact quantile.
func TestTCritical95MatchesQuantile(t *testing.T) {
	for df := 1; df < len(tTable95); df++ {
		if want := math.Round(tQuantile975(df)*1000) / 1000; TCritical95(df) != want {
			t.Errorf("TCritical95(%d) = %v, exact quantile rounds to %v", df, TCritical95(df), want)
		}
	}
	for _, df := range []int{31, 32, 33, 35, 40, 50, 60, 80, 100, 120, 200, 500, 1000, 10000} {
		if got, want := TCritical95(df), tQuantile975(df); !almostEqual(got, want, 1e-6) {
			t.Errorf("TCritical95(%d) = %.9f, exact quantile %.9f", df, got, want)
		}
	}
}

func TestMeanCI(t *testing.T) {
	est := MeanCI([]float64{10, 12})
	if !almostEqual(est.Mean, 11, 1e-12) {
		t.Errorf("Mean = %v, want 11", est.Mean)
	}
	// stddev = sqrt(2), stderr = 1, t(df=1) = 12.706.
	if !almostEqual(est.HalfCI, 12.706, 1e-9) {
		t.Errorf("HalfCI = %v, want 12.706", est.HalfCI)
	}
	if est.Lo() >= est.Mean || est.Hi() <= est.Mean {
		t.Error("interval does not bracket the mean")
	}
}

func TestMeanCIDegenerate(t *testing.T) {
	if est := MeanCI(nil); est.Mean != 0 || est.HalfCI != 0 {
		t.Error("empty input should give zero estimate")
	}
	if est := MeanCI([]float64{5}); est.Mean != 5 || est.HalfCI != 0 {
		t.Error("single input should give zero half-width")
	}
}

func TestPairedMeanCI(t *testing.T) {
	// Differences 2 and 4: mean 3, stddev sqrt(2), stderr 1.
	est, err := PairedMeanCI([]float64{12, 15}, []float64{10, 11})
	if err != nil {
		t.Fatal(err)
	}
	if !almostEqual(est.Mean, 3, 1e-12) || !almostEqual(est.HalfCI, 12.706, 1e-9) || est.N != 2 {
		t.Errorf("PairedMeanCI = %+v, want mean 3, half-width 12.706 over 2 pairs", est)
	}
	// A common offset cancels: the pairs differ by exactly 1.
	if est, _ := PairedMeanCI([]float64{5, 9, 2}, []float64{4, 8, 1}); est.Mean != 1 || est.HalfCI != 0 {
		t.Errorf("constant difference gave %+v, want mean 1 and zero half-width", est)
	}
	if _, err := PairedMeanCI([]float64{1, 2}, []float64{1}); err == nil {
		t.Error("unequal lengths accepted")
	}
}

func TestFigureAccessors(t *testing.T) {
	f := Figure{
		ID: "fig2b",
		Curves: []Curve{
			{Label: "UD", Points: []Point{{X: 0.1, Y: 1}, {X: 0.5, Y: 40}}},
			{Label: "EQF", Points: []Point{{X: 0.1, Y: 1}, {X: 0.5, Y: 25}}},
		},
	}
	if c := f.Curve("UD"); c == nil || len(c.Points) != 2 {
		t.Fatal("Curve(UD) lookup failed")
	}
	if c := f.Curve("missing"); c != nil {
		t.Fatal("Curve(missing) should be nil")
	}
	if y, ok := f.YAt("EQF", 0.5); !ok || y != 25 {
		t.Errorf("YAt(EQF,0.5) = %v,%v want 25,true", y, ok)
	}
	if _, ok := f.YAt("EQF", 0.3); ok {
		t.Error("YAt at absent x should report false")
	}
	if xs := f.XValues(); len(xs) != 2 || xs[0] != 0.1 || xs[1] != 0.5 {
		t.Errorf("XValues = %v", xs)
	}
}
