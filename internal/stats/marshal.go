package stats

import (
	"encoding/binary"
	"fmt"
	"math"
)

// Binary round-trip support: Welford and Ratio accumulators cross the
// process boundary of the multi-process backend inside the
// system.Metrics codec, which appends these encodings and decodes them
// with UnmarshalBinary. Floats travel as raw IEEE-754
// bits (math.Float64bits), never decimal text, so a decoded accumulator
// is bit-identical to the encoded one and downstream merges reproduce
// the in-process results exactly — including negative zeros,
// subnormals, and NaN payloads.

// WelfordWireSize and RatioWireSize are the fixed lengths of the
// respective AppendBinary encodings, for callers that pack several
// accumulators into one frame.
const (
	WelfordWireSize = 5 * 8
	RatioWireSize   = 2 * 8
)

// AppendBinary implements encoding.BinaryAppender: n, mean, m2, min,
// max as big-endian 64-bit words (floats by Float64bits), appended to b.
func (w Welford) AppendBinary(b []byte) ([]byte, error) {
	b = binary.BigEndian.AppendUint64(b, uint64(w.n))
	b = binary.BigEndian.AppendUint64(b, math.Float64bits(w.mean))
	b = binary.BigEndian.AppendUint64(b, math.Float64bits(w.m2))
	b = binary.BigEndian.AppendUint64(b, math.Float64bits(w.min))
	return binary.BigEndian.AppendUint64(b, math.Float64bits(w.max)), nil
}

// UnmarshalBinary implements encoding.BinaryUnmarshaler, reversing
// AppendBinary bit for bit.
func (w *Welford) UnmarshalBinary(b []byte) error {
	if len(b) != WelfordWireSize {
		return fmt.Errorf("stats: welford wire length %d, want %d", len(b), WelfordWireSize)
	}
	w.n = int64(binary.BigEndian.Uint64(b[0:]))
	w.mean = math.Float64frombits(binary.BigEndian.Uint64(b[8:]))
	w.m2 = math.Float64frombits(binary.BigEndian.Uint64(b[16:]))
	w.min = math.Float64frombits(binary.BigEndian.Uint64(b[24:]))
	w.max = math.Float64frombits(binary.BigEndian.Uint64(b[32:]))
	return nil
}

// AppendBinary implements encoding.BinaryAppender: hits then total as
// big-endian 64-bit words, appended to b.
func (c Ratio) AppendBinary(b []byte) ([]byte, error) {
	b = binary.BigEndian.AppendUint64(b, uint64(c.hits))
	return binary.BigEndian.AppendUint64(b, uint64(c.total)), nil
}

// UnmarshalBinary implements encoding.BinaryUnmarshaler.
func (c *Ratio) UnmarshalBinary(b []byte) error {
	if len(b) != RatioWireSize {
		return fmt.Errorf("stats: ratio wire length %d, want %d", len(b), RatioWireSize)
	}
	c.hits = int64(binary.BigEndian.Uint64(b[0:]))
	c.total = int64(binary.BigEndian.Uint64(b[8:]))
	return nil
}
