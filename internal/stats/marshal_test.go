package stats

import (
	"math"
	"testing"
)

// TestWelfordBinaryRoundTrip pins bit-exactness through AppendBinary:
// awkward values (thirds, negative zero, huge magnitudes) must decode
// to an accumulator whose every future computation is identical.
func TestWelfordBinaryRoundTrip(t *testing.T) {
	cases := [][]float64{
		{},
		{0.1, 1.0 / 3, -0.7},
		{math.Copysign(0, -1), 1e-308, -1e308, math.Nextafter(1, 2)},
		{5},
	}
	for ci, xs := range cases {
		var w Welford
		for _, x := range xs {
			w.Add(x)
		}
		b, err := w.AppendBinary(nil)
		if err != nil {
			t.Fatal(err)
		}
		var got Welford
		if err := got.UnmarshalBinary(b); err != nil {
			t.Fatal(err)
		}
		if got != w {
			t.Fatalf("case %d: round trip %+v -> %+v", ci, w, got)
		}
		if math.Float64bits(got.Mean()) != math.Float64bits(w.Mean()) ||
			math.Float64bits(got.Variance()) != math.Float64bits(w.Variance()) {
			t.Fatalf("case %d: derived moments not bit-identical", ci)
		}
	}
	var w Welford
	if err := w.UnmarshalBinary(make([]byte, WelfordWireSize-1)); err == nil {
		t.Fatal("short welford wire accepted")
	}
}

// TestRatioBinaryRoundTrip pins the counter encoding.
func TestRatioBinaryRoundTrip(t *testing.T) {
	var c Ratio
	for i := 0; i < 7; i++ {
		c.Observe(i%3 == 0)
	}
	b, err := c.AppendBinary(nil)
	if err != nil {
		t.Fatal(err)
	}
	var got Ratio
	if err := got.UnmarshalBinary(b); err != nil {
		t.Fatal(err)
	}
	if got != c {
		t.Fatalf("round trip %+v -> %+v", c, got)
	}
	if err := got.UnmarshalBinary(b[:RatioWireSize-1]); err == nil {
		t.Fatal("short ratio wire accepted")
	}
}
