package system

import (
	"encoding/binary"
	"errors"
	"fmt"
	"math"
	"slices"

	"repro/internal/scenario"
	"repro/internal/stats"
)

// Metrics codec: the one serialization of a replication result, used by
// the shard-result cache and (through gob's BinaryMarshaler support) by
// the worker protocol. Every field travels as exact bits — integers and
// float64 bits as big-endian words, accumulators and the scenario series
// in their own bit-exact encodings — so a decoded Metrics is
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
// elements or Series; AppendBinary grows its buffer once by this plus
// the slices' elements.
const metricsFixedSize = 8 + 6*8 + 3*stats.RatioWireSize + 4*stats.WelfordWireSize +
	3*8 + 2*8 + 10*8 + 8

// AppendBinary implements encoding.BinaryAppender, appending m's
// encoding to b.
func (m *Metrics) AppendBinary(b []byte) ([]byte, error) {
	put := binary.BigEndian.AppendUint64
	b = slices.Grow(b, metricsFixedSize+len(m.StageMissByIndex)*stats.RatioWireSize+
		len(m.StageSlackByIndex)*stats.WelfordWireSize+len(m.Utilization)*8)
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
	d := metricsDecoder{b: b}
	if v := d.word(); d.err == nil && v != metricsCodecVersion {
		return fmt.Errorf("system: metrics codec version %d, want %d", v, metricsCodecVersion)
	}
	var out Metrics
	for _, p := range [...]*int64{
		&out.LocalGenerated, &out.GlobalGenerated, &out.LocalDone, &out.GlobalDone,
		&out.LocalAborted, &out.GlobalAborted,
	} {
		*p = int64(d.word())
	}
	d.ratio(&out.LocalMiss)
	d.ratio(&out.GlobalMiss)
	d.ratio(&out.StageMiss)
	d.welford(&out.LocalResponse)
	d.welford(&out.GlobalResponse)
	d.welford(&out.GlobalTardiness)
	d.welford(&out.InheritedSlack)
	if n := d.count(stats.RatioWireSize); n > 0 {
		out.StageMissByIndex = make([]stats.Ratio, n)
		for i := range out.StageMissByIndex {
			d.ratio(&out.StageMissByIndex[i])
		}
	}
	if n := d.count(stats.WelfordWireSize); n > 0 {
		out.StageSlackByIndex = make([]stats.Welford, n)
		for i := range out.StageSlackByIndex {
			d.welford(&out.StageSlackByIndex[i])
		}
	}
	if n := d.count(8); n > 0 {
		out.Utilization = make([]float64, n)
		for i := range out.Utilization {
			out.Utilization[i] = math.Float64frombits(d.word())
		}
	}
	out.LocalInFlight = int64(d.word())
	out.GlobalInFlight = int64(d.word())
	e := &out.Engine
	for _, p := range [...]*uint64{
		&e.EventsScheduled, &e.EventsFired, &e.EventsCancelled, &e.QueuePromotions,
		&e.PendingHWM, &e.ReadyHWM, &e.TasksSubmitted, &e.TasksCompleted,
		&e.TasksAborted, &e.Preemptions,
	} {
		*p = d.word()
	}
	if n := d.count(1); n > 0 {
		if p := d.next(n); p != nil {
			out.Series = new(scenario.Series)
			d.fail(out.Series.UnmarshalBinary(p))
		}
	}
	if d.err == nil && len(d.b) > 0 {
		d.err = fmt.Errorf("system: %d trailing bytes after metrics", len(d.b))
	}
	if d.err != nil {
		return d.err
	}
	*m = out
	return nil
}

var errMetricsTruncated = errors.New("system: metrics encoding truncated")

// metricsDecoder consumes an encoding front to back; the first failure
// sticks, and every later read returns zero values.
type metricsDecoder struct {
	b   []byte
	err error
}

func (d *metricsDecoder) fail(err error) {
	if d.err == nil {
		d.err = err
	}
}

// next consumes n bytes, or fails if fewer remain.
func (d *metricsDecoder) next(n int) []byte {
	if d.err != nil {
		return nil
	}
	if len(d.b) < n {
		d.err = errMetricsTruncated
		return nil
	}
	p := d.b[:n:n]
	d.b = d.b[n:]
	return p
}

func (d *metricsDecoder) word() uint64 {
	if p := d.next(8); p != nil {
		return binary.BigEndian.Uint64(p)
	}
	return 0
}

// count reads a count word and fails unless that many elements of size
// bytes each fit in what remains.
func (d *metricsDecoder) count(size int) int {
	n := d.word()
	if d.err == nil && n > uint64(len(d.b)/size) {
		d.err = fmt.Errorf("system: metrics count %d of %d-byte elements exceeds the %d bytes left", n, size, len(d.b))
	}
	if d.err != nil {
		return 0
	}
	return int(n)
}

func (d *metricsDecoder) ratio(r *stats.Ratio) {
	if p := d.next(stats.RatioWireSize); p != nil {
		d.fail(r.UnmarshalBinary(p))
	}
}

func (d *metricsDecoder) welford(w *stats.Welford) {
	if p := d.next(stats.WelfordWireSize); p != nil {
		d.fail(w.UnmarshalBinary(p))
	}
}
