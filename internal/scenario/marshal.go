package scenario

import (
	"encoding/binary"
	"fmt"
	"math"
	"slices"

	"repro/internal/stats"
)

// Binary round-trip support: a replication's Series crosses the process
// boundary of the multi-process backend, and sits in the result cache,
// inside the system.Metrics codec, which appends this encoding.
// Geometry floats travel as raw IEEE-754 bits and every window's
// accumulators reuse the exact stats encodings, so a decoded series
// merges and renders CSV byte-identically to the encoded one.

// windowWireSize is the fixed per-window encoding length.
const windowWireSize = 2*stats.RatioWireSize + 2*stats.WelfordWireSize

// AppendBinary implements encoding.BinaryAppender: interval, horizon,
// window count, then each window's LocalMiss, GlobalMiss, Lateness,
// QueueLen in the stats wire encodings, appended to b.
func (s Series) AppendBinary(b []byte) ([]byte, error) {
	b = binary.BigEndian.AppendUint64(b, math.Float64bits(s.interval))
	b = binary.BigEndian.AppendUint64(b, math.Float64bits(s.horizon))
	b = binary.BigEndian.AppendUint64(b, uint64(len(s.windows)))
	b = slices.Grow(b, len(s.windows)*windowWireSize)
	for i := range s.windows {
		w := &s.windows[i]
		// The stats appenders never fail.
		b, _ = w.LocalMiss.AppendBinary(b)
		b, _ = w.GlobalMiss.AppendBinary(b)
		b, _ = w.Lateness.AppendBinary(b)
		b, _ = w.QueueLen.AppendBinary(b)
	}
	return b, nil
}

// MarshalBinary implements encoding.BinaryMarshaler.
func (s Series) MarshalBinary() ([]byte, error) {
	return s.AppendBinary(make([]byte, 0, 3*8+len(s.windows)*windowWireSize))
}

// UnmarshalBinary implements encoding.BinaryUnmarshaler, reversing
// MarshalBinary bit for bit.
func (s *Series) UnmarshalBinary(b []byte) error {
	if len(b) < 3*8 {
		return fmt.Errorf("scenario: series wire length %d, want >= %d", len(b), 3*8)
	}
	s.interval = math.Float64frombits(binary.BigEndian.Uint64(b[0:]))
	s.horizon = math.Float64frombits(binary.BigEndian.Uint64(b[8:]))
	n := binary.BigEndian.Uint64(b[16:])
	if want := 3*8 + int(n)*windowWireSize; n > uint64(len(b)) || len(b) != want {
		return fmt.Errorf("scenario: series wire length %d, want %d for %d windows", len(b), want, n)
	}
	s.windows = make([]Window, n)
	off := 3 * 8
	take := func(size int) []byte {
		p := b[off : off+size]
		off += size
		return p
	}
	for i := range s.windows {
		w := &s.windows[i]
		if err := w.LocalMiss.UnmarshalBinary(take(stats.RatioWireSize)); err != nil {
			return err
		}
		if err := w.GlobalMiss.UnmarshalBinary(take(stats.RatioWireSize)); err != nil {
			return err
		}
		if err := w.Lateness.UnmarshalBinary(take(stats.WelfordWireSize)); err != nil {
			return err
		}
		if err := w.QueueLen.UnmarshalBinary(take(stats.WelfordWireSize)); err != nil {
			return err
		}
	}
	return nil
}
