package scenario

import (
	"encoding/binary"
	"fmt"
	"math"
	"slices"

	"repro/internal/stats"
	"repro/internal/wire"
)

// Binary round-trip support: a replication's Series crosses the process
// boundary of the multi-process backend inside the system.Metrics codec,
// which appends this encoding and decodes it with UnmarshalBinary.
// Geometry floats travel as raw IEEE-754 bits and every window's
// accumulators reuse the exact stats encodings, so a decoded series
// merges and renders CSV byte-identically to the encoded one.

// windowWireSize is the fixed per-window encoding length, and
// seriesHeaderSize the interval, horizon and window-count words before
// the windows.
const (
	windowWireSize   = 2*stats.RatioWireSize + 2*stats.WelfordWireSize
	seriesHeaderSize = 3 * 8
)

// EncodedLen returns the exact length of s's AppendBinary encoding.
func (s *Series) EncodedLen() int { return seriesHeaderSize + len(s.windows)*windowWireSize }

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

// UnmarshalBinary implements encoding.BinaryUnmarshaler, reversing
// AppendBinary bit for bit. On error s is left unchanged.
func (s *Series) UnmarshalBinary(b []byte) error {
	const r, w = stats.RatioWireSize, stats.WelfordWireSize
	d := wire.NewDecoder(b)
	interval, horizon := d.Float(), d.Float()
	windows := make([]Window, d.Count(windowWireSize))
	for i := range windows {
		p, win := d.Next(windowWireSize), &windows[i]
		d.Fail(win.LocalMiss.UnmarshalBinary(p[:r]))
		d.Fail(win.GlobalMiss.UnmarshalBinary(p[r : 2*r]))
		d.Fail(win.Lateness.UnmarshalBinary(p[2*r : 2*r+w]))
		d.Fail(win.QueueLen.UnmarshalBinary(p[2*r+w:]))
	}
	if err := d.Finish(); err != nil {
		return fmt.Errorf("scenario: decode series: %w", err)
	}
	s.interval, s.horizon, s.windows = interval, horizon, windows
	return nil
}
