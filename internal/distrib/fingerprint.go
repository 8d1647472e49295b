package distrib

import (
	"crypto/sha256"
	"encoding/hex"
	"errors"
	"fmt"

	"repro/internal/scenario"
	"repro/internal/sched"
	"repro/internal/sim"
	"repro/internal/system"
	"repro/internal/wire"
	"repro/internal/workload"
)

// fingerprintRev opens every config encoding. It is bumped whenever
// the encoding (or the meaning of any encoded field) changes, so entries
// cached under an older layout can never alias a newer one. Revisions 1
// and 2 hashed a gob encoding; 3 is the canonical encoding below, and 4
// is 3 without the pooling switch.
const fingerprintRev = 4

// Type tags of the config encoding's Shape and Demand values; 0 is nil.
// Tags are part of the encoding: never renumber one.
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

// ErrNotWirable marks a configuration that cannot cross a process
// boundary (an attached trace recorder, or a Shape/Demand implementation
// this package does not know). ProcBackend falls back to in-process
// execution for such configurations.
var ErrNotWirable = errors.New("distrib: config cannot cross a process boundary")

// ToWire returns cfg's canonical encoding, the bytes a shard frame
// carries to a worker and ConfigFingerprint hashes: the revision word,
// then every field but Seed (the shard's seeds replace it) and Trace in
// declaration order, Shape and Demand behind a type tag, the scenario
// as its Spec behind a presence word. A trace recorder, or a Shape or
// Demand without a tag, is an ErrNotWirable error.
func ToWire(cfg system.Config) ([]byte, error) {
	return appendConfig(nil, cfg)
}

// ConfigFingerprint returns a stable content hash identifying every
// result-relevant knob of cfg — the identity under which the service's
// sessions and cached shard results are keyed. Two configurations that are
// semantically identical (including ones differing only in Seed or in
// an attached progress hook: seeds are the cache key's other dimension)
// hash identically; changing any knob yields a different fingerprint.
// That includes knobs like EventQueue whose alternatives are provably
// byte-identical: the cache trades a few redundant misses for zero risk
// of serving results across a semantic boundary.
//
// The hash is the first 16 bytes of sha256, in hex, over ToWire's
// encoding, so a worker runs exactly the configuration the cache keyed.
// What cannot cross a process boundary (ErrNotWirable) cannot be
// fingerprinted either — callers bypass caching for those.
func ConfigFingerprint(cfg system.Config) (string, error) {
	var scratch [512]byte
	b, err := appendConfig(scratch[:0], cfg)
	if err != nil {
		return "", err
	}
	sum := sha256.Sum256(b)
	return hex.EncodeToString(sum[:16]), nil
}

// appendConfig appends ToWire's encoding of cfg to b.
func appendConfig(b wire.Buf, cfg system.Config) (wire.Buf, error) {
	if cfg.Trace != nil {
		return nil, fmt.Errorf("%w: a trace recorder is attached", ErrNotWirable)
	}
	b = b.Word(fingerprintRev)
	b = b.Int(cfg.Nodes).Float(cfg.MuSubtask).Float(cfg.MuLocal).Int(cfg.M)
	b = b.Float(cfg.Load).Float(cfg.FracLocal).Float(cfg.SlackMin).Float(cfg.SlackMax)
	b = b.Float(cfg.RelFlex).Float(cfg.PexRelErr).Str(string(cfg.Scheduler))
	b = b.Bool(cfg.TardyAbort).Bool(cfg.FirmAbort).Bool(cfg.Preemptive)
	b, err := appendShape(b.Str(cfg.SSP).Str(cfg.PSP), cfg.Shape)
	if err != nil {
		return nil, err
	}
	b = b.Int(len(cfg.LocalRateMultipliers))
	for _, r := range cfg.LocalRateMultipliers {
		b = b.Float(r)
	}
	b = b.Float(cfg.Horizon).Float(cfg.Warmup).Bool(cfg.Scenario != nil)
	if cfg.Scenario != nil {
		b = appendSpec(b, cfg.Scenario.Spec())
	}
	return b.Str(string(cfg.EventQueue)), nil
}

// readConfig reverses appendConfig.
func readConfig(d *wire.Decoder) (cfg system.Config) {
	if rev := d.Word(); d.Err() == nil && rev != fingerprintRev {
		d.Fail(fmt.Errorf("distrib: config encoding revision %d, want %d", rev, fingerprintRev))
	}
	cfg.Nodes, cfg.MuSubtask, cfg.MuLocal, cfg.M = d.Int(), d.Float(), d.Float(), d.Int()
	cfg.Load, cfg.FracLocal, cfg.SlackMin, cfg.SlackMax = d.Float(), d.Float(), d.Float(), d.Float()
	cfg.RelFlex, cfg.PexRelErr, cfg.Scheduler = d.Float(), d.Float(), sched.Policy(d.Str())
	cfg.TardyAbort, cfg.FirmAbort, cfg.Preemptive = d.Bool(), d.Bool(), d.Bool()
	cfg.SSP, cfg.PSP, cfg.Shape = d.Str(), d.Str(), readShape(d)
	cfg.LocalRateMultipliers = wire.Slice(d, 8, d.Float)
	cfg.Horizon, cfg.Warmup = d.Float(), d.Float()
	if d.Bool() {
		cfg.Scenario = readScenario(d)
	}
	cfg.EventQueue = sim.QueueKind(d.Str())
	return cfg
}

// appendShape appends a type tag and the shape's fields in declaration
// order, its Demand last.
func appendShape(b wire.Buf, s workload.Shape) (wire.Buf, error) {
	var d workload.Demand
	switch sh := s.(type) {
	case nil:
		return b.Word(0), nil
	case workload.SerialShape:
		b = b.Word(tagSerialShape).Int(sh.M).Float(sh.MeanExec).Float(sh.Pex.RelErr)
		d = sh.Demand
	case workload.ParallelShape:
		b = b.Word(tagParallelShape).Int(sh.M).Float(sh.MeanExec).Float(sh.Pex.RelErr)
		d = sh.Demand
	case workload.MixedShape:
		b = b.Word(tagMixedShape).Int(len(sh.Stages))
		for _, w := range sh.Stages {
			b = b.Int(w)
		}
		b = b.Float(sh.MeanExec).Float(sh.Pex.RelErr)
		d = sh.Demand
	case workload.HeteroSerialShape:
		b = b.Word(tagHeteroSerialShape).Int(sh.MinM).Int(sh.MaxM).Float(sh.MeanExec).Float(sh.Pex.RelErr)
		d = sh.Demand
	default:
		return nil, fmt.Errorf("%w: unknown shape %T", ErrNotWirable, s)
	}
	switch dd := d.(type) {
	case nil:
		return b.Word(0), nil
	case workload.ExponentialDemand:
		return b.Word(tagExponentialDemand), nil
	case workload.ParetoDemand:
		return b.Word(tagParetoDemand).Float(dd.Alpha), nil
	case workload.LognormalDemand:
		return b.Word(tagLognormalDemand).Float(dd.Sigma), nil
	case workload.DeterministicDemand:
		return b.Word(tagDeterministicDemand), nil
	default:
		return nil, fmt.Errorf("%w: unknown demand %T", ErrNotWirable, d)
	}
}

// readShape reverses appendShape.
func readShape(d *wire.Decoder) workload.Shape {
	pex := func() workload.PexModel { return workload.PexModel{RelErr: d.Float()} }
	switch tag := d.Word(); tag {
	case 0:
		return nil
	case tagSerialShape:
		return workload.SerialShape{M: d.Int(), MeanExec: d.Float(), Pex: pex(), Demand: readDemand(d)}
	case tagParallelShape:
		return workload.ParallelShape{M: d.Int(), MeanExec: d.Float(), Pex: pex(), Demand: readDemand(d)}
	case tagMixedShape:
		return workload.MixedShape{Stages: wire.Slice(d, 8, d.Int), MeanExec: d.Float(), Pex: pex(), Demand: readDemand(d)}
	case tagHeteroSerialShape:
		return workload.HeteroSerialShape{MinM: d.Int(), MaxM: d.Int(), MeanExec: d.Float(), Pex: pex(), Demand: readDemand(d)}
	default:
		d.Fail(fmt.Errorf("distrib: unknown shape tag %d", tag))
		return nil
	}
}

// readDemand reverses the Demand half of appendShape.
func readDemand(d *wire.Decoder) workload.Demand {
	switch tag := d.Word(); tag {
	case 0:
		return nil
	case tagExponentialDemand:
		return workload.ExponentialDemand{}
	case tagParetoDemand:
		return workload.ParetoDemand{Alpha: d.Float()}
	case tagLognormalDemand:
		return workload.LognormalDemand{Sigma: d.Float()}
	case tagDeterministicDemand:
		return workload.DeterministicDemand{}
	default:
		d.Fail(fmt.Errorf("distrib: unknown demand tag %d", tag))
		return nil
	}
}

// appendSpec appends the scenario spec's fields in declaration order,
// its Demand behind a presence word.
func appendSpec(b wire.Buf, sp scenario.Spec) wire.Buf {
	b = b.Str(sp.Name).Float(sp.Interval).Int(len(sp.Phases))
	for _, ph := range sp.Phases {
		b = b.Float(ph.Duration).Float(ph.Rate).Float(ph.EndRate)
	}
	b = b.Int(len(sp.Events))
	for _, ev := range sp.Events {
		b = b.Str(ev.Kind).Int(ev.Node).Float(ev.At).Float(ev.Duration).Float(ev.Factor)
	}
	b = b.Bool(sp.Demand != nil)
	if sp.Demand != nil {
		b = b.Str(sp.Demand.Dist).Float(sp.Demand.Alpha).Float(sp.Demand.Sigma)
	}
	return b
}

// readScenario reverses appendSpec and compiles the spec.
func readScenario(d *wire.Decoder) *scenario.Scenario {
	var sp scenario.Spec
	sp.Name, sp.Interval = d.Str(), d.Float()
	sp.Phases = wire.Slice(d, 3*8, func() scenario.PhaseSpec {
		return scenario.PhaseSpec{Duration: d.Float(), Rate: d.Float(), EndRate: d.Float()}
	})
	sp.Events = wire.Slice(d, 5*8, func() scenario.EventSpec {
		return scenario.EventSpec{Kind: d.Str(), Node: d.Int(), At: d.Float(), Duration: d.Float(), Factor: d.Float()}
	})
	if d.Bool() {
		sp.Demand = &scenario.DemandSpec{Dist: d.Str(), Alpha: d.Float(), Sigma: d.Float()}
	}
	if d.Err() != nil {
		return nil
	}
	sc, err := scenario.New(sp)
	d.Fail(err)
	return sc
}
