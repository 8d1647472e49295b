package core

import (
	"math"
	"testing"

	"repro/internal/rng"
)

func almostEqual(a, b float64) bool { return math.Abs(a-b) <= 1e-9*(1+math.Abs(b)) }

// Shared worked example: three remaining stages with pex [2 3 5],
// released at now=10, group deadline 30 (remaining slack 10).
var (
	exNow       = 10.0
	exDL        = 30.0
	exRemaining = []float64{2, 3, 5}
)

func TestUltimateDeadline(t *testing.T) {
	got := UltimateDeadline{}.StageDeadline(exNow, exDL, exRemaining)
	if got != exDL {
		t.Errorf("UD = %v, want dl(T) = %v", got, exDL)
	}
}

func TestEffectiveDeadline(t *testing.T) {
	tests := []struct {
		name      string
		remaining []float64
		want      float64
	}{
		{name: "first stage", remaining: []float64{2, 3, 5}, want: 30 - 8},
		{name: "middle stage", remaining: []float64{3, 5}, want: 30 - 5},
		{name: "last stage", remaining: []float64{5}, want: 30},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			got := EffectiveDeadline{}.StageDeadline(exNow, exDL, tt.remaining)
			if !almostEqual(got, tt.want) {
				t.Errorf("ED = %v, want %v", got, tt.want)
			}
		})
	}
}

func TestEqualSlack(t *testing.T) {
	// slack = 30−10−10 = 10, three remaining stages -> 10/3 each.
	got := EqualSlack{}.StageDeadline(exNow, exDL, exRemaining)
	want := 10 + 2 + 10.0/3
	if !almostEqual(got, want) {
		t.Errorf("EQS = %v, want %v", got, want)
	}
}

func TestEqualFlexibility(t *testing.T) {
	// slack = 10, share = pex/total = 2/10.
	got := EqualFlexibility{}.StageDeadline(exNow, exDL, exRemaining)
	want := 10 + 2 + 10*(2.0/10)
	if !almostEqual(got, want) {
		t.Errorf("EQF = %v, want %v", got, want)
	}
}

func TestEqualFlexibilityEqualPexMatchesEqualSlack(t *testing.T) {
	// With identical pex values, proportional and equal division agree.
	remaining := []float64{1.5, 1.5, 1.5, 1.5}
	eqf := EqualFlexibility{}.StageDeadline(3, 20, remaining)
	eqs := EqualSlack{}.StageDeadline(3, 20, remaining)
	if !almostEqual(eqf, eqs) {
		t.Errorf("EQF = %v, EQS = %v; want equal for uniform pex", eqf, eqs)
	}
}

func TestEqualFlexibilityDegeneratePex(t *testing.T) {
	// All-zero predictions fall back to equal slack division rather
	// than dividing by zero.
	got := EqualFlexibility{}.StageDeadline(0, 12, []float64{0, 0, 0})
	want := EqualSlack{}.StageDeadline(0, 12, []float64{0, 0, 0})
	if !almostEqual(got, want) || math.IsNaN(got) {
		t.Errorf("EQF degenerate = %v, want %v", got, want)
	}
}

func TestLastStageAlwaysGetsGroupDeadline(t *testing.T) {
	// Paper invariant: at the final stage every strategy reduces to the
	// group deadline.
	strategies := []SerialStrategy{
		UltimateDeadline{}, EffectiveDeadline{}, EqualSlack{}, EqualFlexibility{},
	}
	for _, s := range strategies {
		got := s.StageDeadline(17.5, 42, []float64{3})
		if !almostEqual(got, 42) {
			t.Errorf("%s last stage = %v, want 42", s.Name(), got)
		}
	}
}

func TestNegativeRemainingSlack(t *testing.T) {
	// A stage released after the budget is gone: EQS/EQF assign a
	// deadline earlier than now+pex (maximum urgency), never NaN.
	remaining := []float64{2, 2}
	for _, s := range []SerialStrategy{EqualSlack{}, EqualFlexibility{}} {
		got := s.StageDeadline(50, 40, remaining) // slack = −14
		if math.IsNaN(got) || got >= 50+2 {
			t.Errorf("%s with negative slack = %v, want < now+pex", s.Name(), got)
		}
	}
}

func TestSerialStrategyBoundsProperty(t *testing.T) {
	// With non-negative remaining slack every strategy satisfies
	// ar+pex <= dl(Ti) <= dl(T).
	r := rng.New(42)
	strategies := []SerialStrategy{
		UltimateDeadline{}, EffectiveDeadline{}, EqualSlack{}, EqualFlexibility{},
	}
	for trial := 0; trial < 2000; trial++ {
		m := 1 + r.IntN(8)
		remaining := make([]float64, m)
		total := 0.0
		for i := range remaining {
			remaining[i] = r.Uniform(0.01, 5)
			total += remaining[i]
		}
		now := r.Uniform(0, 100)
		slack := r.Uniform(0, 20)
		dl := now + total + slack
		for _, s := range strategies {
			got := s.StageDeadline(now, dl, remaining)
			if got < now+remaining[0]-1e-9 || got > dl+1e-9 {
				t.Fatalf("%s: dl(Ti)=%v outside [now+pex=%v, dl=%v] (m=%d)",
					s.Name(), got, now+remaining[0], dl, m)
			}
		}
		// ArtificialStages deliberately withholds slack, so only the
		// upper bound and the tighter-than-base relation hold for it.
		as := ArtificialStages{Base: EqualFlexibility{}, Extra: 1 + r.IntN(4)}
		base := EqualFlexibility{}.StageDeadline(now, dl, remaining)
		got := as.StageDeadline(now, dl, remaining)
		if got > dl+1e-9 {
			t.Fatalf("EQF-AS: dl(Ti)=%v beyond group deadline %v", got, dl)
		}
		if got > base+1e-9 {
			t.Fatalf("EQF-AS: dl(Ti)=%v looser than base EQF %v", got, base)
		}
	}
}

// TestEQFIsProportionalSplitProperty: when every stage of a serial
// chain runs to its virtual deadline (each releases at its
// predecessor's), EQF is the static proportional split of the whole
// window, d_i = c_i·D/Σc for windows c_i: stage i ends at
// arrival + (D − arrival)·Σ_{j≤i} pex_j / Σ pex.
func TestEQFIsProportionalSplitProperty(t *testing.T) {
	r := rng.New(11)
	for trial := 0; trial < 2000; trial++ {
		pex := make([]float64, 1+r.IntN(8))
		total := 0.0
		for i := range pex {
			pex[i] = r.Uniform(0.01, 5)
			total += pex[i]
		}
		arrival := r.Uniform(0, 100)
		dl := arrival + total + r.Uniform(0, 20)
		now, prefix := arrival, 0.0
		for i := range pex {
			got := EqualFlexibility{}.StageDeadline(now, dl, pex[i:])
			prefix += pex[i]
			want := arrival + (dl-arrival)*prefix/total
			if math.Abs(got-want) > 1e-12*math.Abs(want) {
				t.Fatalf("trial %d stage %d of %v: EQF dl = %v, proportional split %v", trial, i, pex, got, want)
			}
			now = got
		}
	}
}

func TestEQSMonotoneInStageCountProperty(t *testing.T) {
	// Splitting the same remaining budget across more equal stages must
	// give the first stage an earlier (or equal) deadline.
	r := rng.New(7)
	for trial := 0; trial < 1000; trial++ {
		pex := r.Uniform(0.1, 3)
		now := r.Uniform(0, 50)
		slack := r.Uniform(0, 30)
		m1 := 1 + r.IntN(5)
		m2 := m1 + 1 + r.IntN(3)
		mk := func(m int) []float64 {
			rem := make([]float64, m)
			for i := range rem {
				rem[i] = pex
			}
			return rem
		}
		rem1, rem2 := mk(m1), mk(m2)
		dl1 := now + float64(m1)*pex + slack
		dl2 := now + float64(m2)*pex + slack
		d1 := EqualSlack{}.StageDeadline(now, dl1, rem1)
		d2 := EqualSlack{}.StageDeadline(now, dl2, rem2)
		if d2 > d1+1e-9 {
			t.Fatalf("EQS first-stage deadline grew with stage count: m=%d->%v, m=%d->%v",
				m1, d1, m2, d2)
		}
	}
}

func TestArtificialStages(t *testing.T) {
	base := EqualFlexibility{}
	zero := ArtificialStages{Base: base, Extra: 0}
	if got, want := zero.StageDeadline(exNow, exDL, exRemaining), base.StageDeadline(exNow, exDL, exRemaining); !almostEqual(got, want) {
		t.Errorf("AS(0) = %v, want base %v", got, want)
	}
	// Phantom stages must tighten the current stage's deadline.
	prev := base.StageDeadline(exNow, exDL, exRemaining)
	for extra := 1; extra <= 4; extra++ {
		as := ArtificialStages{Base: base, Extra: extra}
		got := as.StageDeadline(exNow, exDL, exRemaining)
		if got >= prev {
			t.Errorf("AS(%d) = %v, want strictly earlier than %v", extra, got, prev)
		}
		prev = got
	}
	if name := (ArtificialStages{Base: base, Extra: 2}).Name(); name != "EQF-AS" {
		t.Errorf("Name = %q", name)
	}
}

// paddedEQF is EQF behind a type the ArtificialStages fast path does
// not recognise, so wrapping it takes the copied-vector path.
type paddedEQF struct{ EqualFlexibility }

// TestArtificialStagesPaddedSumMatchesPaddedVector: EQF-AS pads the pex
// sum instead of copying the vector, and must give the copied vector's
// deadline bit for bit, degenerate predictions included.
func TestArtificialStagesPaddedSumMatchesPaddedVector(t *testing.T) {
	r := rng.New(3)
	for trial := 0; trial < 2000; trial++ {
		remaining := make([]float64, 1+r.IntN(8))
		for i := range remaining {
			if trial%10 != 0 {
				remaining[i] = r.Uniform(0.01, 5)
			}
		}
		now := r.Uniform(0, 100)
		dl := now + r.Uniform(-5, 40)
		extra := 1 + r.IntN(4)
		fast := ArtificialStages{Base: EqualFlexibility{}, Extra: extra}.StageDeadline(now, dl, remaining)
		slow := ArtificialStages{Base: paddedEQF{}, Extra: extra}.StageDeadline(now, dl, remaining)
		if math.Float64bits(fast) != math.Float64bits(slow) {
			t.Fatalf("trial %d %v +%d: padded sum %v, padded vector %v", trial, remaining, extra, fast, slow)
		}
	}
}

func TestStrategyNames(t *testing.T) {
	tests := []struct {
		give SerialStrategy
		want string
	}{
		{UltimateDeadline{}, "UD"},
		{EffectiveDeadline{}, "ED"},
		{EqualSlack{}, "EQS"},
		{EqualFlexibility{}, "EQF"},
	}
	for _, tt := range tests {
		if got := tt.give.Name(); got != tt.want {
			t.Errorf("Name() = %q, want %q", got, tt.want)
		}
	}
}
