package wire

import (
	"errors"
	"math"
	"testing"
)

// TestRoundTrip: every value a Buf appends reads back bit for bit, in
// order, and a fully consumed decoder finishes cleanly.
func TestRoundTrip(t *testing.T) {
	negZero := math.Copysign(0, -1)
	nan := math.Float64frombits(0x7ff8_0000_dead_beef)
	b := Buf(nil).Word(math.MaxUint64).Int(-7).Float(negZero).Float(nan).Str("héllo").Bool(true).Bool(false)
	b = b.Int(3).Float(1).Float(2).Float(3)

	d := NewDecoder(b)
	if w := d.Word(); w != math.MaxUint64 {
		t.Fatalf("Word = %d", w)
	}
	if i := d.Int(); i != -7 {
		t.Fatalf("Int = %d", i)
	}
	if f := d.Float(); math.Float64bits(f) != math.Float64bits(negZero) {
		t.Fatalf("Float = %v, want -0", f)
	}
	if f := d.Float(); math.Float64bits(f) != math.Float64bits(nan) {
		t.Fatalf("NaN payload lost: %#x", math.Float64bits(f))
	}
	if s := d.Str(); s != "héllo" {
		t.Fatalf("Str = %q", s)
	}
	if !d.Bool() || d.Bool() {
		t.Fatal("Bool did not round-trip")
	}
	if fs := Slice(&d, 8, d.Float); len(fs) != 3 || fs[0] != 1 || fs[2] != 3 {
		t.Fatalf("Slice = %v", fs)
	}
	if err := d.Finish(); err != nil {
		t.Fatal(err)
	}
}

// TestDecoderRejects: a truncated input, a bool word other than 0 or 1,
// a count larger than the bytes left and trailing bytes all fail, the
// first failure sticks, and later reads return zero values.
func TestDecoderRejects(t *testing.T) {
	d := NewDecoder(Buf(nil).Word(1)[:7])
	if d.Word() != 0 || !errors.Is(d.Finish(), ErrTruncated) {
		t.Fatal("truncated word accepted")
	}

	d = NewDecoder(Buf(nil).Word(2).Word(5))
	if d.Bool(); d.Err() == nil {
		t.Fatal("bool word 2 accepted")
	}
	if d.Word() != 0 {
		t.Fatal("read after a failure returned data")
	}

	d = NewDecoder(Buf(nil).Int(2).Word(1)) // claims two words, holds one
	if s := Slice(&d, 8, d.Word); s != nil || d.Err() == nil {
		t.Fatalf("oversized count accepted: %v", s)
	}

	d = NewDecoder(Buf(nil).Int(1 << 40).Str("x")) // a string longer than its input
	if s := d.Str(); s != "" || d.Err() == nil {
		t.Fatal("oversized string length accepted")
	}

	d = NewDecoder(Buf(nil).Word(1).Word(2))
	d.Word()
	if d.Finish() == nil {
		t.Fatal("trailing bytes accepted")
	}
}
