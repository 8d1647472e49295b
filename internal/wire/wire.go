// Package wire is the exact binary encoding shared by the result codec
// (system.Metrics, its scenario.Series) and the internal/distrib
// protocol: big-endian 64-bit words (integers as two's-complement bits,
// floats as IEEE-754 bits, bools and presence flags as 0 or 1), strings
// and slices as a count word and their elements. A Buf appends; one
// Decoder reads, checking every count against the bytes left before the
// caller allocates for it.
package wire

import (
	"encoding/binary"
	"errors"
	"fmt"
	"math"
)

// Buf appends encoded values.
type Buf []byte

func (b Buf) Word(v uint64) Buf   { return binary.BigEndian.AppendUint64(b, v) }
func (b Buf) Int(v int) Buf       { return b.Word(uint64(v)) }
func (b Buf) Float(v float64) Buf { return b.Word(math.Float64bits(v)) }
func (b Buf) Str(s string) Buf    { return append(b.Int(len(s)), s...) }

func (b Buf) Bool(v bool) Buf {
	if v {
		return b.Word(1)
	}
	return b.Word(0)
}

// ErrTruncated reports an encoding that ends before its last value.
var ErrTruncated = errors.New("wire: encoding truncated")

// Decoder consumes an encoding front to back. The first failure sticks:
// every later read returns a zero value, and Finish reports it.
type Decoder struct {
	b   []byte
	err error
}

// NewDecoder returns a decoder over b.
func NewDecoder(b []byte) Decoder { return Decoder{b: b} }

// Err returns the first failure so far.
func (d *Decoder) Err() error { return d.err }

// Fail records err unless a failure is already recorded.
func (d *Decoder) Fail(err error) {
	if d.err == nil {
		d.err = err
	}
}

// Next consumes n bytes, or fails if fewer remain.
func (d *Decoder) Next(n int) []byte {
	if d.err != nil {
		return nil
	}
	if len(d.b) < n {
		d.err = ErrTruncated
		return nil
	}
	p := d.b[:n:n]
	d.b = d.b[n:]
	return p
}

// Rest consumes every remaining byte.
func (d *Decoder) Rest() []byte { return d.Next(len(d.b)) }

func (d *Decoder) Word() uint64 {
	if p := d.Next(8); p != nil {
		return binary.BigEndian.Uint64(p)
	}
	return 0
}

func (d *Decoder) Int() int       { return int(d.Word()) }
func (d *Decoder) Float() float64 { return math.Float64frombits(d.Word()) }

// Bool reads a bool or presence word; anything but 0 or 1 fails.
func (d *Decoder) Bool() bool {
	v := d.Word()
	if v > 1 {
		d.Fail(fmt.Errorf("wire: bool word %d, want 0 or 1", v))
	}
	return v == 1
}

// Count reads a count word and fails unless that many elements of at
// least size encoded bytes each fit in what remains.
func (d *Decoder) Count(size int) int {
	n := d.Word()
	if d.err == nil && n > uint64(len(d.b)/size) {
		d.err = fmt.Errorf("wire: count %d of %d-byte elements exceeds the %d bytes left", n, size, len(d.b))
	}
	if d.err != nil {
		return 0
	}
	return int(n)
}

func (d *Decoder) Str() string { return string(d.Next(d.Count(1))) }

// Slice reads a count word and that many elements with read, each at
// least size encoded bytes; an empty slice decodes as nil.
func Slice[T any](d *Decoder, size int, read func() T) []T {
	n := d.Count(size)
	if n == 0 {
		return nil
	}
	s := make([]T, n)
	for i := range s {
		s[i] = read()
	}
	return s
}

// Finish returns the first failure, or an error if bytes remain.
func (d *Decoder) Finish() error {
	if d.err == nil && len(d.b) > 0 {
		d.err = fmt.Errorf("wire: %d trailing bytes", len(d.b))
	}
	return d.err
}
