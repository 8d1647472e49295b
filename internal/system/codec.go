package system

import (
	"encoding/binary"
	"fmt"
	"math"
	"slices"

	"repro/internal/scenario"
	"repro/internal/stats"
	"repro/internal/wire"
)

// Metrics codec: the one serialization of a replication result, carried
// by the worker protocol's result frames; the shard-result cache sizes
// its budget by EncodedLen. Every field travels as exact bits — integers
// and float64 bits as big-endian words, accumulators and the scenario
// series in their own bit-exact encodings — so a decoded Metrics is
// bit-identical to the encoded one.
//
// Layout, in declaration order after a version word: the six arrival
// and completion counts; LocalMiss, GlobalMiss, StageMiss; the four
// Welford accumulators; StageMissByIndex, StageSlackByIndex and
// Utilization, each as a count word and its elements; the two in-flight
// counts; the ten Engine counters; and the Series as a length word (0
// for nil) followed by its encoding.

// metricsCodecVersion opens every encoding. Bump it when a field is
// added, removed, reordered or changes meaning, so that bytes written
// by another layout are rejected instead of misread.
const metricsCodecVersion = 1

// metricsFixedSize is the encoded length of a Metrics without slice
// elements or Series.
const metricsFixedSize = 8 + 6*8 + 3*stats.RatioWireSize + 4*stats.WelfordWireSize +
	3*8 + 2*8 + 10*8 + 8

// EncodedLen returns the exact length of m's AppendBinary encoding,
// computed from the slice and Series lengths without encoding.
func (m *Metrics) EncodedLen() int {
	n := metricsFixedSize + len(m.StageMissByIndex)*stats.RatioWireSize +
		len(m.StageSlackByIndex)*stats.WelfordWireSize + len(m.Utilization)*8
	if m.Series != nil {
		n += m.Series.EncodedLen()
	}
	return n
}

// AppendBinary implements encoding.BinaryAppender, appending m's
// encoding to b after growing it once by EncodedLen.
func (m *Metrics) AppendBinary(b []byte) ([]byte, error) {
	put := binary.BigEndian.AppendUint64
	b = slices.Grow(b, m.EncodedLen())
	b = put(b, metricsCodecVersion)
	for _, v := range [...]int64{
		m.LocalGenerated, m.GlobalGenerated, m.LocalDone, m.GlobalDone,
		m.LocalAborted, m.GlobalAborted,
	} {
		b = put(b, uint64(v))
	}
	// The stats and scenario appenders never fail.
	b, _ = m.LocalMiss.AppendBinary(b)
	b, _ = m.GlobalMiss.AppendBinary(b)
	b, _ = m.StageMiss.AppendBinary(b)
	b, _ = m.LocalResponse.AppendBinary(b)
	b, _ = m.GlobalResponse.AppendBinary(b)
	b, _ = m.GlobalTardiness.AppendBinary(b)
	b, _ = m.InheritedSlack.AppendBinary(b)
	b = put(b, uint64(len(m.StageMissByIndex)))
	for _, r := range m.StageMissByIndex {
		b, _ = r.AppendBinary(b)
	}
	b = put(b, uint64(len(m.StageSlackByIndex)))
	for _, w := range m.StageSlackByIndex {
		b, _ = w.AppendBinary(b)
	}
	b = put(b, uint64(len(m.Utilization)))
	for _, u := range m.Utilization {
		b = put(b, math.Float64bits(u))
	}
	b = put(b, uint64(m.LocalInFlight))
	b = put(b, uint64(m.GlobalInFlight))
	e := &m.Engine
	for _, v := range [...]uint64{
		e.EventsScheduled, e.EventsFired, e.EventsCancelled, e.QueuePromotions,
		e.PendingHWM, e.ReadyHWM, e.TasksSubmitted, e.TasksCompleted,
		e.TasksAborted, e.Preemptions,
	} {
		b = put(b, v)
	}
	if m.Series == nil {
		return put(b, 0), nil
	}
	at := len(b)
	b = put(b, 0)
	b, _ = m.Series.AppendBinary(b)
	binary.BigEndian.PutUint64(b[at:], uint64(len(b)-at-8))
	return b, nil
}

// MarshalBinary implements encoding.BinaryMarshaler.
func (m *Metrics) MarshalBinary() ([]byte, error) { return m.AppendBinary(nil) }

// UnmarshalBinary implements encoding.BinaryUnmarshaler, reversing
// AppendBinary bit for bit. It rejects a foreign version word, a
// truncated input and trailing bytes, and checks every count against
// the bytes that remain before allocating for it, so no allocation
// exceeds the input's length. Empty slices decode as nil. On error m is
// left unchanged.
func (m *Metrics) UnmarshalBinary(b []byte) error {
	d := wire.NewDecoder(b)
	if v := d.Word(); d.Err() == nil && v != metricsCodecVersion {
		return fmt.Errorf("system: metrics codec version %d, want %d", v, metricsCodecVersion)
	}
	var out Metrics
	for _, p := range [...]*int64{
		&out.LocalGenerated, &out.GlobalGenerated, &out.LocalDone, &out.GlobalDone,
		&out.LocalAborted, &out.GlobalAborted,
	} {
		*p = int64(d.Word())
	}
	out.LocalMiss, out.GlobalMiss, out.StageMiss = readRatio(&d), readRatio(&d), readRatio(&d)
	out.LocalResponse, out.GlobalResponse = readWelford(&d), readWelford(&d)
	out.GlobalTardiness, out.InheritedSlack = readWelford(&d), readWelford(&d)
	out.StageMissByIndex = wire.Slice(&d, stats.RatioWireSize, func() stats.Ratio { return readRatio(&d) })
	out.StageSlackByIndex = wire.Slice(&d, stats.WelfordWireSize, func() stats.Welford { return readWelford(&d) })
	if n := d.Count(8); n > 0 { // one word per node: decoded in bulk, not a call per element
		p, u := d.Next(8*n), make([]float64, n)
		for i := range u {
			u[i] = math.Float64frombits(binary.BigEndian.Uint64(p[8*i:]))
		}
		out.Utilization = u
	}
	out.LocalInFlight = int64(d.Word())
	out.GlobalInFlight = int64(d.Word())
	e := &out.Engine
	for _, p := range [...]*uint64{
		&e.EventsScheduled, &e.EventsFired, &e.EventsCancelled, &e.QueuePromotions,
		&e.PendingHWM, &e.ReadyHWM, &e.TasksSubmitted, &e.TasksCompleted,
		&e.TasksAborted, &e.Preemptions,
	} {
		*p = d.Word()
	}
	if n := d.Count(1); n > 0 {
		if p := d.Next(n); p != nil {
			out.Series = new(scenario.Series)
			d.Fail(out.Series.UnmarshalBinary(p))
		}
	}
	if err := d.Finish(); err != nil {
		return fmt.Errorf("system: decode metrics: %w", err)
	}
	*m = out
	return nil
}

func readRatio(d *wire.Decoder) (r stats.Ratio) {
	d.Fail(r.UnmarshalBinary(d.Next(stats.RatioWireSize)))
	return r
}

func readWelford(d *wire.Decoder) (w stats.Welford) {
	d.Fail(w.UnmarshalBinary(d.Next(stats.WelfordWireSize)))
	return w
}
