package distrib

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"fmt"
	"math"

	"repro/internal/scenario"
	"repro/internal/system"
	"repro/internal/workload"
)

// fingerprintRev opens every fingerprint encoding. It is bumped whenever
// the encoding (or the meaning of any encoded field) changes, so entries
// cached under an older layout can never alias a newer one. Revisions 1
// and 2 hashed a gob encoding; 3 is the canonical encoding below, and 4
// is 3 without the pooling switch.
const fingerprintRev = 4

// Type tags of the fingerprint encoding's Shape and Demand values; 0 is
// nil. Tags are part of the encoding: never renumber one.
const (
	tagSerialShape uint64 = iota + 1
	tagParallelShape
	tagMixedShape
	tagHeteroSerialShape
)

const (
	tagExponentialDemand uint64 = iota + 1
	tagParetoDemand
	tagLognormalDemand
	tagDeterministicDemand
)

// ConfigFingerprint returns a stable content hash identifying every
// result-relevant knob of cfg — the identity under which warm sessions
// and cached shard results are keyed. Two configurations that are
// semantically identical (including ones differing only in Seed or in
// an attached progress hook: seeds are the cache key's other dimension)
// hash identically; changing any knob yields a different fingerprint.
// That includes knobs like EventQueue whose alternatives are provably
// byte-identical: the cache trades a few redundant misses for zero risk
// of serving results across a semantic boundary.
//
// The hash is the first 16 bytes of sha256, in hex, over a canonical
// encoding of the wire configuration: the revision word, then every
// field in declaration order as fixed-width big-endian words (floats by
// their bits), strings and slices length-prefixed, Shape and Demand
// behind a type tag, and the scenario Spec and its Demand behind a
// presence word. Configurations that cannot cross a process boundary
// (ErrNotWirable: attached trace recorder, unregistered Shape/Demand)
// cannot be fingerprinted either — callers bypass caching for those.
func ConfigFingerprint(cfg system.Config) (string, error) {
	wc, err := ToWire(cfg)
	if err != nil {
		return "", err
	}
	return wc.fingerprint()
}

// fingerprint hashes the canonical encoding of wc.
func (wc *WireConfig) fingerprint() (string, error) {
	var scratch [512]byte
	b, err := wc.appendCanonical(scratch[:0])
	if err != nil {
		return "", err
	}
	sum := sha256.Sum256(b)
	return hex.EncodeToString(sum[:16]), nil
}

// canon appends the fingerprint encoding's primitives.
type canon []byte

func (c canon) word(v uint64) canon   { return binary.BigEndian.AppendUint64(c, v) }
func (c canon) int(v int) canon       { return c.word(uint64(v)) }
func (c canon) float(v float64) canon { return c.word(math.Float64bits(v)) }
func (c canon) str(s string) canon    { return append(c.int(len(s)), s...) }

func (c canon) bool(v bool) canon {
	if v {
		return c.word(1)
	}
	return c.word(0)
}

// appendCanonical appends wc's fingerprint encoding to b. An unknown
// Shape or Demand implementation is an ErrNotWirable error.
func (wc *WireConfig) appendCanonical(b []byte) ([]byte, error) {
	c := canon(b).word(fingerprintRev)
	c = c.int(wc.Nodes).float(wc.MuSubtask).float(wc.MuLocal).int(wc.M)
	c = c.float(wc.Load).float(wc.FracLocal).float(wc.SlackMin).float(wc.SlackMax)
	c = c.float(wc.RelFlex).float(wc.PexRelErr).str(wc.Scheduler)
	c = c.bool(wc.TardyAbort).bool(wc.FirmAbort).bool(wc.Preemptive)
	c = c.str(wc.SSP).str(wc.PSP)
	c, err := c.shape(wc.Shape)
	if err != nil {
		return nil, err
	}
	c = c.int(len(wc.LocalRateMultipliers))
	for _, r := range wc.LocalRateMultipliers {
		c = c.float(r)
	}
	c = c.float(wc.Horizon).float(wc.Warmup).spec(wc.Scenario)
	c = c.str(wc.EventQueue)
	return c, nil
}

// shape appends a type tag and the shape's fields in declaration order.
func (c canon) shape(s workload.Shape) (canon, error) {
	var d workload.Demand
	switch sh := s.(type) {
	case nil:
		return c.word(0), nil
	case workload.SerialShape:
		c = c.word(tagSerialShape).int(sh.M).float(sh.MeanExec).float(sh.Pex.RelErr)
		d = sh.Demand
	case workload.ParallelShape:
		c = c.word(tagParallelShape).int(sh.M).float(sh.MeanExec).float(sh.Pex.RelErr)
		d = sh.Demand
	case workload.MixedShape:
		c = c.word(tagMixedShape).int(len(sh.Stages))
		for _, w := range sh.Stages {
			c = c.int(w)
		}
		c = c.float(sh.MeanExec).float(sh.Pex.RelErr)
		d = sh.Demand
	case workload.HeteroSerialShape:
		c = c.word(tagHeteroSerialShape).int(sh.MinM).int(sh.MaxM).float(sh.MeanExec).float(sh.Pex.RelErr)
		d = sh.Demand
	default:
		return nil, fmt.Errorf("%w: unknown shape %T", ErrNotWirable, s)
	}
	switch dd := d.(type) {
	case nil:
		return c.word(0), nil
	case workload.ExponentialDemand:
		return c.word(tagExponentialDemand), nil
	case workload.ParetoDemand:
		return c.word(tagParetoDemand).float(dd.Alpha), nil
	case workload.LognormalDemand:
		return c.word(tagLognormalDemand).float(dd.Sigma), nil
	case workload.DeterministicDemand:
		return c.word(tagDeterministicDemand), nil
	default:
		return nil, fmt.Errorf("%w: unknown demand %T", ErrNotWirable, d)
	}
}

// spec appends a presence word and the scenario spec's fields in
// declaration order.
func (c canon) spec(sp *scenario.Spec) canon {
	if sp == nil {
		return c.word(0)
	}
	c = c.word(1).str(sp.Name).float(sp.Interval).int(len(sp.Phases))
	for _, ph := range sp.Phases {
		c = c.float(ph.Duration).float(ph.Rate).float(ph.EndRate)
	}
	c = c.int(len(sp.Events))
	for _, ev := range sp.Events {
		c = c.str(ev.Kind).int(ev.Node).float(ev.At).float(ev.Duration).float(ev.Factor)
	}
	if sp.Demand == nil {
		return c.word(0)
	}
	return c.word(1).str(sp.Demand.Dist).float(sp.Demand.Alpha).float(sp.Demand.Sigma)
}
