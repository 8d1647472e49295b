package system

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"math"
	"reflect"
	"runtime"
	"testing"
	"unsafe"

	"repro/internal/scenario"
)

// bitwiseDiff walks two values of one type through every field,
// exported or not, and names the first leaf whose bits differ: floats
// compare by Float64bits, pointers by nil-ness and slices by length
// before their contents (a nil and an empty slice behave alike, and the
// codec does not tell them apart). It returns "" when a and b are
// bit-identical.
func bitwiseDiff(a, b reflect.Value, path string) string {
	switch a.Kind() {
	case reflect.Struct:
		for i := 0; i < a.NumField(); i++ {
			if d := bitwiseDiff(a.Field(i), b.Field(i), path+"."+a.Type().Field(i).Name); d != "" {
				return d
			}
		}
	case reflect.Pointer:
		if a.IsNil() || b.IsNil() {
			if a.IsNil() != b.IsNil() {
				return path + ": nil-ness differs"
			}
			return ""
		}
		return bitwiseDiff(a.Elem(), b.Elem(), path)
	case reflect.Slice:
		if a.Len() != b.Len() {
			return fmt.Sprintf("%s: len %d vs %d", path, a.Len(), b.Len())
		}
		for i := 0; i < a.Len(); i++ {
			if d := bitwiseDiff(a.Index(i), b.Index(i), fmt.Sprintf("%s[%d]", path, i)); d != "" {
				return d
			}
		}
	case reflect.Int, reflect.Int64:
		if a.Int() != b.Int() {
			return fmt.Sprintf("%s: %d vs %d", path, a.Int(), b.Int())
		}
	case reflect.Uint64:
		if a.Uint() != b.Uint() {
			return fmt.Sprintf("%s: %d vs %d", path, a.Uint(), b.Uint())
		}
	case reflect.Float64:
		if math.Float64bits(a.Float()) != math.Float64bits(b.Float()) {
			return fmt.Sprintf("%s: bits %#x vs %#x", path, math.Float64bits(a.Float()), math.Float64bits(b.Float()))
		}
	default:
		panic(fmt.Sprintf("bitwiseDiff: %s: unhandled kind %s", path, a.Kind()))
	}
	return ""
}

// roundTrip encodes m, decodes the bytes into a fresh Metrics, and
// fails the test unless the two are bit-identical and re-encode to the
// same bytes, and EncodedLen predicted the encoding's length.
func roundTrip(t *testing.T, name string, m *Metrics) []byte {
	t.Helper()
	b, err := m.MarshalBinary()
	if err != nil {
		t.Fatalf("%s: encode: %v", name, err)
	}
	if n := m.EncodedLen(); n != len(b) {
		t.Fatalf("%s: EncodedLen %d, encoding is %d bytes", name, n, len(b))
	}
	var got Metrics
	if err := got.UnmarshalBinary(b); err != nil {
		t.Fatalf("%s: decode: %v", name, err)
	}
	if d := bitwiseDiff(reflect.ValueOf(*m), reflect.ValueOf(got), "Metrics"); d != "" {
		t.Fatalf("%s: round trip differs at %s", name, d)
	}
	again, _ := got.AppendBinary([]byte("prefix"))
	if !bytes.Equal(again[len("prefix"):], b) {
		t.Fatalf("%s: re-encoding differs from the decoded bytes", name)
	}
	return b
}

// TestMetricsCodecGoldenMatrix round-trips every replication of the
// golden matrix (the stationary model and every scenario preset),
// fields left out of the digest included.
func TestMetricsCodecGoldenMatrix(t *testing.T) {
	ws := NewWorkspace()
	for _, c := range goldenCases(t) {
		runs, err := runSeeds(ws, c.cfg, len(goldenSeeds))
		if err != nil {
			t.Fatalf("%s: %v", c.name, err)
		}
		for i, m := range runs {
			roundTrip(t, fmt.Sprintf("%s/seed%d", c.name, goldenSeeds[i]), m)
		}
	}
}

// filler sets every leaf reachable from a value, unexported fields
// included, to a distinct non-zero value: integers count up; the first
// float is negative zero and the rest alternate NaNs with distinct
// payloads, subnormals and ordinary numbers; slices get three elements
// and pointers a fresh value.
type filler struct {
	n       uint64
	negZero bool
}

func (f *filler) fill(v reflect.Value) {
	if !v.CanSet() {
		v = reflect.NewAt(v.Type(), unsafe.Pointer(v.UnsafeAddr())).Elem()
	}
	switch v.Kind() {
	case reflect.Struct:
		for i := 0; i < v.NumField(); i++ {
			f.fill(v.Field(i))
		}
	case reflect.Pointer:
		v.Set(reflect.New(v.Type().Elem()))
		f.fill(v.Elem())
	case reflect.Slice:
		v.Set(reflect.MakeSlice(v.Type(), 3, 3))
		for i := 0; i < 3; i++ {
			f.fill(v.Index(i))
		}
	case reflect.Int, reflect.Int64:
		f.n++
		v.SetInt(int64(f.n))
	case reflect.Uint64:
		f.n++
		v.SetUint(f.n)
	case reflect.Float64:
		f.n++
		switch {
		case !f.negZero:
			f.negZero = true
			v.SetFloat(math.Copysign(0, -1))
		case f.n%3 == 0:
			v.SetFloat(math.Float64frombits(0x7ff8_0000_0000_0000 | f.n))
		case f.n%3 == 1:
			v.SetFloat(math.SmallestNonzeroFloat64 * float64(f.n))
		default:
			v.SetFloat(float64(f.n) + 0.25)
		}
	default:
		panic(fmt.Sprintf("filler: unhandled kind %s", v.Kind()))
	}
}

// filledMetrics returns a Metrics in which every leaf is set.
func filledMetrics() *Metrics {
	var m Metrics
	new(filler).fill(reflect.ValueOf(&m).Elem())
	return &m
}

// TestMetricsCodecEveryField round-trips a Metrics whose every leaf is
// distinct and non-zero, so a dropped, swapped or truncated field shows,
// and checks that a nil Series and an empty non-nil one keep their
// identity.
func TestMetricsCodecEveryField(t *testing.T) {
	m := filledMetrics()
	roundTrip(t, "filled", m)

	m.Series = nil
	roundTrip(t, "nil series", m)
	m.Series = new(scenario.Series)
	roundTrip(t, "empty series", m)
	if b := roundTrip(t, "zero", &Metrics{}); len(b) != metricsFixedSize {
		t.Fatalf("zero Metrics encodes to %d bytes, metricsFixedSize is %d", len(b), metricsFixedSize)
	}
}

// allocatedBytes returns the heap bytes f allocates, averaged over runs.
func allocatedBytes(runs int, f func()) uint64 {
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < runs; i++ {
		f()
	}
	runtime.ReadMemStats(&after)
	return (after.TotalAlloc - before.TotalAlloc) / uint64(runs)
}

// TestMetricsCodecRejects: a truncated input, a foreign version word and
// trailing bytes are errors, and no input — including one with any
// word inflated to a huge count — makes the decoder allocate more than
// the input's length.
func TestMetricsCodecRejects(t *testing.T) {
	b, err := filledMetrics().MarshalBinary()
	if err != nil {
		t.Fatal(err)
	}
	var m Metrics
	for n := 0; n < len(b); n++ {
		if m.UnmarshalBinary(b[:n]) == nil {
			t.Fatalf("truncated input of %d/%d bytes accepted", n, len(b))
		}
	}
	if m.UnmarshalBinary(append(append([]byte(nil), b...), 0)) == nil {
		t.Fatal("trailing byte accepted")
	}
	foreign := append([]byte(nil), b...)
	binary.BigEndian.PutUint64(foreign, metricsCodecVersion+1)
	if m.UnmarshalBinary(foreign) == nil {
		t.Fatal("foreign version word accepted")
	}
	if m.LocalGenerated != 0 {
		t.Fatal("a failed decode changed its target")
	}

	// Every field is a big-endian word, so inflating each word in turn
	// reaches every count. Decoding must fail or accept canonically, and
	// stay within the input's length. The budget over len(b) allows the
	// fixed-size Series header, which is not backed by input bytes.
	const headerSlack = 64
	for off := 0; off+8 <= len(b); off += 8 {
		for _, v := range []uint64{1 << 62, 1 << 40, uint64(len(b)), math.MaxUint64} {
			in := append([]byte(nil), b...)
			binary.BigEndian.PutUint64(in[off:], v)
			var got Metrics
			if err := got.UnmarshalBinary(in); err == nil {
				if out, _ := got.MarshalBinary(); !bytes.Equal(out, in) {
					t.Fatalf("word %d = %#x: accepted input does not re-encode to itself", off/8, v)
				}
			}
			if n := allocatedBytes(4, func() { _ = new(Metrics).UnmarshalBinary(in) }); n > uint64(len(in))+headerSlack+uint64(unsafe.Sizeof(Metrics{})) {
				t.Fatalf("word %d = %#x: decoding %d bytes allocated %d", off/8, v, len(in), n)
			}
		}
	}
}

// FuzzMetricsCodec: no input panics the decoder, every accepted input
// re-encodes to exactly the same bytes (the encoding is canonical), and
// EncodedLen of the decoded value is that length.
func FuzzMetricsCodec(f *testing.F) {
	for _, m := range []*Metrics{{}, filledMetrics()} {
		b, err := m.MarshalBinary()
		if err != nil {
			f.Fatal(err)
		}
		f.Add(b)
		f.Add(b[:len(b)/2])
	}
	cfg := Baseline()
	cfg.Nodes, cfg.Horizon = 64, 200
	var err error
	if cfg.Scenario, err = scenario.Preset("burst", cfg.Horizon); err != nil {
		f.Fatal(err)
	}
	run, err := RunWith(cfg, nil)
	if err != nil {
		f.Fatal(err)
	}
	b, err := run.MarshalBinary()
	if err != nil {
		f.Fatal(err)
	}
	f.Add(b)
	f.Fuzz(func(t *testing.T, data []byte) {
		var m Metrics
		if m.UnmarshalBinary(data) != nil {
			return
		}
		out, err := m.MarshalBinary()
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(out, data) {
			t.Fatalf("accepted %d bytes re-encode to %d different bytes", len(data), len(out))
		}
		if n := m.EncodedLen(); n != len(data) {
			t.Fatalf("EncodedLen %d, encoding is %d bytes", n, len(data))
		}
	})
}
