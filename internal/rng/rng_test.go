package rng

import (
	"math"
	"testing"
	"testing/quick"
)

func TestNewDeterministic(t *testing.T) {
	a := New(42)
	b := New(42)
	for i := 0; i < 1000; i++ {
		if got, want := a.Uint64(), b.Uint64(); got != want {
			t.Fatalf("draw %d: sources with equal seeds diverged: %d != %d", i, got, want)
		}
	}
}

func TestNewSeedsDiffer(t *testing.T) {
	a := New(1)
	b := New(2)
	same := 0
	for i := 0; i < 100; i++ {
		if a.Uint64() == b.Uint64() {
			same++
		}
	}
	if same > 0 {
		t.Fatalf("sources with different seeds produced %d identical draws", same)
	}
}

func TestNewStreamIndependence(t *testing.T) {
	a := NewStream(7, "arrivals")
	b := NewStream(7, "service")
	c := NewStream(7, "arrivals")
	for i := 0; i < 100; i++ {
		av, bv, cv := a.Uint64(), b.Uint64(), c.Uint64()
		if av != cv {
			t.Fatalf("draw %d: same (seed,label) diverged", i)
		}
		if av == bv {
			t.Fatalf("draw %d: different labels collided", i)
		}
	}
}

func TestFloat64Range(t *testing.T) {
	r := New(3)
	for i := 0; i < 100000; i++ {
		v := r.Float64()
		if v < 0 || v >= 1 {
			t.Fatalf("Float64 out of [0,1): %v", v)
		}
	}
}

func TestFloat64Moments(t *testing.T) {
	r := New(11)
	const n = 200000
	var sum, sumSq float64
	for i := 0; i < n; i++ {
		v := r.Float64()
		sum += v
		sumSq += v * v
	}
	mean := sum / n
	variance := sumSq/n - mean*mean
	if math.Abs(mean-0.5) > 0.005 {
		t.Errorf("uniform mean = %v, want 0.5 +/- 0.005", mean)
	}
	if math.Abs(variance-1.0/12) > 0.005 {
		t.Errorf("uniform variance = %v, want 1/12 +/- 0.005", variance)
	}
}

func TestIntNRange(t *testing.T) {
	r := New(5)
	counts := make([]int, 7)
	const n = 70000
	for i := 0; i < n; i++ {
		counts[r.IntN(7)]++
	}
	for v, c := range counts {
		if c == 0 {
			t.Fatalf("IntN(7) never produced %d", v)
		}
		// Expected 10000 per bucket; allow 10% slop.
		if c < 9000 || c > 11000 {
			t.Errorf("IntN(7) bucket %d count = %d, want about 10000", v, c)
		}
	}
}

func TestIntNPanicsOnNonPositive(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("IntN(0) did not panic")
		}
	}()
	New(1).IntN(0)
}

func TestSampleDistinct(t *testing.T) {
	r := New(9)
	for trial := 0; trial < 1000; trial++ {
		got := r.SampleDistinct(4, 6)
		if len(got) != 4 {
			t.Fatalf("len = %d, want 4", len(got))
		}
		seen := make(map[int]bool, 4)
		for _, v := range got {
			if v < 0 || v >= 6 {
				t.Fatalf("value %d out of [0,6)", v)
			}
			if seen[v] {
				t.Fatalf("duplicate value %d in %v", v, got)
			}
			seen[v] = true
		}
	}
}

func TestSampleDistinctFullRange(t *testing.T) {
	r := New(10)
	got := r.SampleDistinct(5, 5)
	seen := make(map[int]bool, 5)
	for _, v := range got {
		seen[v] = true
	}
	if len(seen) != 5 {
		t.Fatalf("SampleDistinct(5,5) = %v, want a permutation of 0..4", got)
	}
}

func TestSampleDistinctEmpty(t *testing.T) {
	if got := New(1).SampleDistinct(0, 5); got != nil {
		t.Fatalf("SampleDistinct(0,5) = %v, want nil", got)
	}
}

func TestExponentialMoments(t *testing.T) {
	r := New(13)
	const (
		n    = 200000
		mean = 2.5
	)
	var sum, sumSq float64
	for i := 0; i < n; i++ {
		v := r.Exponential(mean)
		if v < 0 {
			t.Fatalf("negative exponential variate %v", v)
		}
		sum += v
		sumSq += v * v
	}
	gotMean := sum / n
	gotVar := sumSq/n - gotMean*gotMean
	if math.Abs(gotMean-mean)/mean > 0.02 {
		t.Errorf("exponential mean = %v, want %v +/- 2%%", gotMean, mean)
	}
	if math.Abs(gotVar-mean*mean)/(mean*mean) > 0.05 {
		t.Errorf("exponential variance = %v, want %v +/- 5%%", gotVar, mean*mean)
	}
}

func TestParetoMomentsAndSupport(t *testing.T) {
	r := New(29)
	const (
		n     = 200000
		alpha = 2.5
		xm    = 1.5
	)
	var sum float64
	for i := 0; i < n; i++ {
		v := r.Pareto(alpha, xm)
		if v < xm {
			t.Fatalf("Pareto variate %v below scale %v", v, xm)
		}
		sum += v
	}
	want := xm * alpha / (alpha - 1) // mean of Pareto(alpha, xm)
	if got := sum / n; math.Abs(got-want)/want > 0.03 {
		t.Errorf("Pareto mean = %v, want %v +/- 3%%", got, want)
	}
	for _, bad := range [][2]float64{{0, 1}, {-1, 1}, {2, 0}, {2, -1}} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("Pareto(%v, %v) did not panic", bad[0], bad[1])
				}
			}()
			r.Pareto(bad[0], bad[1])
		}()
	}
}

func TestLognormalMoments(t *testing.T) {
	r := New(31)
	const (
		n     = 200000
		mu    = 0.4
		sigma = 0.8
	)
	var sum float64
	for i := 0; i < n; i++ {
		v := r.Lognormal(mu, sigma)
		if v <= 0 {
			t.Fatalf("non-positive lognormal variate %v", v)
		}
		sum += v
	}
	want := math.Exp(mu + sigma*sigma/2)
	if got := sum / n; math.Abs(got-want)/want > 0.03 {
		t.Errorf("lognormal mean = %v, want %v +/- 3%%", got, want)
	}
	// Sigma 0 degenerates to a point mass at e^mu.
	if got := r.Lognormal(mu, 0); math.Abs(got-math.Exp(mu)) > 1e-12 {
		t.Errorf("Lognormal(mu, 0) = %v, want e^mu", got)
	}
	func() {
		defer func() {
			if recover() == nil {
				t.Error("Lognormal with negative sigma did not panic")
			}
		}()
		r.Lognormal(0, -1)
	}()
}

func TestNormalMoments(t *testing.T) {
	r := New(23)
	const (
		n      = 200000
		mean   = -3.0
		stddev = 2.0
	)
	var sum, sumSq float64
	for i := 0; i < n; i++ {
		v := r.Normal(mean, stddev)
		sum += v
		sumSq += v * v
	}
	gotMean := sum / n
	gotVar := sumSq/n - gotMean*gotMean
	if math.Abs(gotMean-mean) > 0.02 {
		t.Errorf("normal mean = %v, want %v", gotMean, mean)
	}
	if math.Abs(gotVar-stddev*stddev) > 0.08 {
		t.Errorf("normal variance = %v, want %v", gotVar, stddev*stddev)
	}
}

func TestUniformPropertyInRange(t *testing.T) {
	r := New(29)
	f := func(lo float64, width uint16) bool {
		lo = math.Mod(lo, 1e6)
		hi := lo + float64(width)
		v := r.Uniform(lo, hi)
		if width == 0 {
			return v == lo
		}
		return v >= lo && v < hi
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 2000}); err != nil {
		t.Error(err)
	}
}

func TestIntNPropertyInRange(t *testing.T) {
	r := New(31)
	f := func(n uint16) bool {
		bound := int(n%1000) + 1
		v := r.IntN(bound)
		return v >= 0 && v < bound
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 5000}); err != nil {
		t.Error(err)
	}
}

func BenchmarkUint64(b *testing.B) {
	r := New(1)
	var sink uint64
	for i := 0; i < b.N; i++ {
		sink = r.Uint64()
	}
	_ = sink
}

func BenchmarkExponential(b *testing.B) {
	r := New(1)
	var sink float64
	for i := 0; i < b.N; i++ {
		sink = r.Exponential(1)
	}
	_ = sink
}

// TestReseedMatchesNew pins the in-place reseeding contract: a reused
// Source reseeded for a new run must produce exactly the sequence a
// freshly constructed one would.
func TestReseedMatchesNew(t *testing.T) {
	reused := New(1)
	for i := 0; i < 17; i++ {
		reused.Uint64() // desync the state from any fresh source
	}
	for _, seed := range []uint64{0, 1, 42, 1 << 60} {
		reused.Reseed(seed)
		fresh := New(seed)
		for i := 0; i < 64; i++ {
			if got, want := reused.Uint64(), fresh.Uint64(); got != want {
				t.Fatalf("seed %d draw %d: Reseed gave %d, New gave %d", seed, i, got, want)
			}
		}
	}
}

// TestReseedStreamMatchesNewStream pins the substream variant, including
// the cached-hash path a warm workspace uses.
func TestReseedStreamMatchesNewStream(t *testing.T) {
	reused := New(9)
	for _, tc := range []struct {
		seed  uint64
		label string
	}{
		{1, "global"}, {1, "local-0"}, {7, "local-63"}, {1 << 40, "churn-node-1023"},
	} {
		h := StreamHash(tc.label)
		reused.ReseedStream(tc.seed, h)
		fresh := NewStream(tc.seed, tc.label)
		for i := 0; i < 64; i++ {
			if got, want := reused.Uint64(), fresh.Uint64(); got != want {
				t.Fatalf("(%d,%q) draw %d: ReseedStream gave %d, NewStream gave %d",
					tc.seed, tc.label, i, got, want)
			}
		}
	}
}
