// Package distrib is the multi-process execution backend behind the
// session.Backend seam: a coordinator (ProcBackend) that spawns N worker
// processes and work-steals sub-shards across them, and a worker server
// (ServeWorker) that executes the sub-shards it receives over a
// length-prefixed binary protocol on stdin/stdout.
//
// Every message is one frame:
//
//	[uint32 big-endian payload length] [1 byte message kind] [gob payload]
//
// Coordinator -> worker: shardMsg (run these seeds), cancelMsg (stop the
// identified shard at the next replication boundary). Worker ->
// coordinator: resultMsg (one replication's metrics, streamed as it
// finishes), doneMsg (the shard's outcome with a structured Code).
// Closing the worker's stdin shuts it down.
//
// Outcomes carry a Code rather than an error string alone because error
// identity does not survive a process boundary: a worker's
// context.Canceled arrives at the coordinator as CodeCanceled and is
// rehydrated into a CanceledError that still satisfies
// errors.Is(err, context.Canceled), so the run layer's cancellation
// semantics (partial results remain valid) hold across processes.
//
// Simulation results cross the boundary as system.Metrics, which gob
// carries through its BinaryMarshaler: the exact-bit Metrics codec the
// result cache also stores. A merged result is therefore bit-identical
// to one computed in process, and the coordinator merges sub-shards in
// seed order, so ProcBackend output is byte-identical to the in-process
// pool at any worker count.
package distrib

import (
	"bytes"
	"context"
	"encoding/binary"
	"encoding/gob"
	"errors"
	"fmt"
	"io"
	"sync"

	"repro/internal/failpoint"
	"repro/internal/obs"
	"repro/internal/scenario"
	"repro/internal/sched"
	"repro/internal/sim"
	"repro/internal/system"
	"repro/internal/workload"
)

func init() {
	// The wire configuration carries Shape and Demand as gob interface
	// values; every concrete type this package can ship is registered
	// here. ToWire rejects unknown implementations up front.
	gob.Register(workload.SerialShape{})
	gob.Register(workload.ParallelShape{})
	gob.Register(workload.MixedShape{})
	gob.Register(workload.HeteroSerialShape{})
	gob.Register(workload.ExponentialDemand{})
	gob.Register(workload.ParetoDemand{})
	gob.Register(workload.LognormalDemand{})
	gob.Register(workload.DeterministicDemand{})
}

// msgKind tags a frame's payload type.
type msgKind uint8

const (
	msgShard  msgKind = iota + 1 // coordinator -> worker: shardMsg
	msgCancel                    // coordinator -> worker: cancelMsg
	msgResult                    // worker -> coordinator: resultMsg
	msgDone                      // worker -> coordinator: doneMsg
	msgPing                      // coordinator -> worker: pingMsg (liveness probe)
	msgPong                      // worker -> coordinator: pongMsg (liveness reply)
	msgHello                     // either direction: helloMsg (transport handshake)
)

// Handshake identity. ProtocolMagic distinguishes this protocol from an
// arbitrary byte stream that happened to connect to a worker port;
// ProtocolVersion is bumped on any incompatible frame or payload change,
// so a coordinator and worker built from different protocol revisions
// fail the handshake with a structured *FrameError instead of a gob
// decode error deep inside a shard. Version 2 removed WireConfig's RNG
// layout field, which gob would otherwise ignore silently when a
// version-1 peer sent it. Version 3 carries resultMsg's Metrics in the
// system.Metrics binary codec instead of gob's struct encoding.
const (
	ProtocolMagic   uint32 = 0x53444131 // "SDA1"
	ProtocolVersion uint32 = 3
)

// maxFrame bounds a frame payload; anything larger is a protocol error,
// not data (it protects against reading a corrupted length as a huge
// allocation).
const maxFrame = 1 << 30

// corruptKind is the frame-kind byte the distrib/frame-write failpoint
// scribbles over a frame's real kind: no valid kind, so every receiver
// must reject the frame as corrupt rather than misinterpret it.
const corruptKind = 0xEE

// Code classifies a shard outcome on the wire.
type Code uint8

const (
	// CodeOK: every seed ran; resultMsg frames covered all of them.
	CodeOK Code = iota
	// CodeCanceled: the shard was cancelled; Completed counts the seed
	// prefix that finished. Maps to an error satisfying
	// errors.Is(err, context.Canceled) on the coordinator side.
	CodeCanceled
	// CodeError: a replication failed; the sub-shard has no usable
	// result.
	CodeError
)

// err rehydrates a wire code into the error the in-process backend
// would have returned.
func (c Code) err(msg string) error {
	switch c {
	case CodeOK:
		return nil
	case CodeCanceled:
		return &CanceledError{Msg: msg}
	default:
		return fmt.Errorf("distrib: worker: %s", msg)
	}
}

// CanceledError is the coordinator-side image of a cancellation that
// happened in a worker process. It unwraps to context.Canceled, so the
// run layer's isCancellation test — errors.Is(err, context.Canceled) —
// holds even though the cancelled context lived in another process.
type CanceledError struct{ Msg string }

// Error implements error.
func (e *CanceledError) Error() string { return "distrib: worker canceled: " + e.Msg }

// Unwrap makes errors.Is(e, context.Canceled) true.
func (e *CanceledError) Unwrap() error { return context.Canceled }

// isCancellation mirrors the session package's test.
func isCancellation(err error) bool {
	return errors.Is(err, context.Canceled) || errors.Is(err, context.DeadlineExceeded)
}

// shardMsg asks a worker to run one sub-shard.
type shardMsg struct {
	ID          uint64
	Config      WireConfig
	Seeds       []uint64
	Parallelism int
}

// cancelMsg asks a worker to stop shard ID at the next replication
// boundary (claimed replications run to completion, preserving the
// prefix guarantee).
type cancelMsg struct{ ID uint64 }

// pingMsg is a coordinator liveness probe; the worker's main loop
// answers every ping with a pongMsg echoing Seq. Pings flow while a
// sub-shard is outstanding, so a worker whose main loop hangs (or whose
// process wedges) stops answering and misses its liveness deadline even
// though its pipe never closes.
type pingMsg struct{ Seq uint64 }

// pongMsg answers a ping.
type pongMsg struct{ Seq uint64 }

// helloMsg opens a network transport: each side announces its magic and
// protocol version before any shard traffic. The stdin/stdout transport
// skips the handshake — the coordinator spawns its workers from its own
// binary, so the versions match by construction.
type helloMsg struct {
	Magic   uint32
	Version uint32
}

// SendHello writes one handshake frame announcing this binary's
// protocol identity.
func SendHello(w io.Writer) error {
	return newFrameWriter(w).send(msgHello, helloMsg{Magic: ProtocolMagic, Version: ProtocolVersion})
}

// ReadHello reads the peer's handshake frame and verifies it. Every
// failure — a short or non-frame stream, a non-hello first frame, a
// foreign magic, a different protocol version — is a *FrameError with
// Op "handshake", so transports reject mismatched binaries before any
// shard state exists on either side.
func ReadHello(r io.Reader) error {
	kind, payload, err := readFrame(r)
	if err != nil {
		if errors.Is(err, io.EOF) {
			err = io.ErrUnexpectedEOF
		}
		return &FrameError{Op: "handshake", Err: err}
	}
	if kind != msgHello {
		return &FrameError{Op: "handshake", Kind: kind, Len: uint32(len(payload)),
			Err: fmt.Errorf("expected hello, got frame kind %d", kind)}
	}
	var m helloMsg
	if err := decodeMsg(kind, payload, &m); err != nil {
		return &FrameError{Op: "handshake", Kind: kind, Len: uint32(len(payload)), Err: err}
	}
	if m.Magic != ProtocolMagic {
		return &FrameError{Op: "handshake", Kind: kind, Len: uint32(len(payload)),
			Err: fmt.Errorf("magic %#08x is not a distrib peer (want %#08x)", m.Magic, ProtocolMagic)}
	}
	if m.Version != ProtocolVersion {
		return &FrameError{Op: "handshake", Kind: kind, Len: uint32(len(payload)),
			Err: fmt.Errorf("protocol version %d, this binary speaks %d", m.Version, ProtocolVersion)}
	}
	return nil
}

// resultMsg streams one finished replication: Index is the position
// within the sub-shard's Seeds.
type resultMsg struct {
	ID      uint64
	Index   int
	Metrics *system.Metrics
}

// doneMsg ends a shard: Completed is the finished seed-prefix length
// (== len(Seeds) for CodeOK), Error the message for non-OK codes. Pool
// carries the worker process's cumulative workspace-pool gauges home —
// the coordinator keeps the latest per worker, giving the fleet view
// without a separate stats round-trip.
type doneMsg struct {
	ID        uint64
	Completed int
	Code      Code
	Error     string
	Pool      obs.PoolStats
}

// frameOverhead is the per-frame wire header: 4-byte big-endian payload
// length plus 1-byte kind.
const frameOverhead = 5

// frameWriter serializes whole frames with a single Write each, so
// concurrent senders (a streaming result and a cancel frame) never
// interleave bytes.
type frameWriter struct {
	mu     sync.Mutex
	w      io.Writer
	buf    bytes.Buffer
	frames uint64 // frames written, for the per-worker wire stats
	bytes  uint64 // bytes written (header + payload)
}

func newFrameWriter(w io.Writer) *frameWriter { return &frameWriter{w: w} }

// send encodes msg and writes one frame.
func (fw *frameWriter) send(kind msgKind, msg any) error {
	corrupt, ferr := failpoint.Inject("distrib/frame-write")
	if ferr != nil {
		return ferr
	}
	fw.mu.Lock()
	defer fw.mu.Unlock()
	fw.buf.Reset()
	fw.buf.Write([]byte{0, 0, 0, 0, byte(kind)})
	if err := gob.NewEncoder(&fw.buf).Encode(msg); err != nil {
		return fmt.Errorf("distrib: encode %d: %w", kind, err)
	}
	b := fw.buf.Bytes()
	if len(b)-5 > maxFrame {
		return fmt.Errorf("distrib: frame of %d bytes exceeds limit", len(b)-5)
	}
	binary.BigEndian.PutUint32(b[:4], uint32(len(b)-5))
	if corrupt {
		// Scribble the kind byte: the frame stays length-correct (the
		// stream does not desynchronize) but the receiver must reject it
		// as an unknown kind — corruption by construction detectable.
		b[4] = corruptKind
	}
	if _, err := fw.w.Write(b); err != nil {
		return err
	}
	fw.frames++
	fw.bytes += uint64(len(b))
	return nil
}

// counts returns the frames and bytes successfully written so far.
func (fw *frameWriter) counts() (frames, bytes uint64) {
	fw.mu.Lock()
	defer fw.mu.Unlock()
	return fw.frames, fw.bytes
}

// FrameError is the structured rejection of a malformed frame: which
// stage of framing failed (Op), the claimed payload length and frame
// kind where known, and the underlying cause. Every non-EOF framing
// failure is a *FrameError — a corrupt or truncated stream yields a
// typed error the caller can count and recover from, never a panic and
// never an unbounded wait.
type FrameError struct {
	// Op is the stage that rejected the frame: "header" (short read in
	// the 5-byte header), "length" (claimed length exceeds maxFrame),
	// "payload" (stream ended inside the payload), "decode" (gob
	// rejected the payload), "kind" (no such frame kind), or
	// "handshake" (the peer is not a compatible distrib binary).
	Op string
	// Kind is the frame-kind byte as read (zero for header failures).
	Kind msgKind
	// Len is the claimed payload length as read.
	Len uint32
	// Err is the underlying cause, when one exists.
	Err error
}

// Error implements error.
func (e *FrameError) Error() string {
	msg := fmt.Sprintf("distrib: bad frame (%s, kind %d, len %d)", e.Op, e.Kind, e.Len)
	if e.Err != nil {
		msg += ": " + e.Err.Error()
	}
	return msg
}

// Unwrap exposes the cause to errors.Is/As.
func (e *FrameError) Unwrap() error { return e.Err }

// readChunk bounds a single payload-read allocation; a corrupt length
// prefix claiming a huge payload costs at most one readChunk of memory
// before the stream runs dry.
const readChunk = 1 << 20

// readFrame reads one frame. io.EOF (clean close between frames) passes
// through unwrapped; every other failure is a *FrameError. The payload
// is read incrementally, so a corrupted length prefix never provokes an
// allocation larger than the bytes actually present (plus one chunk).
func readFrame(r io.Reader) (msgKind, []byte, error) {
	if _, err := failpoint.Inject("distrib/frame-read"); err != nil {
		return 0, nil, &FrameError{Op: "header", Err: err}
	}
	var hdr [5]byte
	if _, err := io.ReadFull(r, hdr[:]); err != nil {
		if err == io.EOF {
			return 0, nil, io.EOF
		}
		return 0, nil, &FrameError{Op: "header", Err: err}
	}
	n := binary.BigEndian.Uint32(hdr[:4])
	kind := msgKind(hdr[4])
	if n > maxFrame {
		return 0, nil, &FrameError{Op: "length", Kind: kind, Len: n}
	}
	capHint := int(n)
	if capHint > readChunk {
		capHint = readChunk
	}
	p := make([]byte, 0, capHint)
	for len(p) < int(n) {
		step := int(n) - len(p)
		if step > readChunk {
			step = readChunk
		}
		start := len(p)
		if cap(p)-start < step {
			grown := make([]byte, start, start+step)
			copy(grown, p)
			p = grown
		}
		p = p[:start+step]
		if _, err := io.ReadFull(r, p[start:]); err != nil {
			return 0, nil, &FrameError{Op: "payload", Kind: kind, Len: n, Err: err}
		}
	}
	return kind, p, nil
}

// decodeMsg unpacks a frame payload; failures are structured
// *FrameError values (Op "decode").
func decodeMsg(kind msgKind, p []byte, into any) error {
	if _, err := failpoint.Inject("distrib/decode"); err != nil {
		return &FrameError{Op: "decode", Kind: kind, Len: uint32(len(p)), Err: err}
	}
	if err := gob.NewDecoder(bytes.NewReader(p)).Decode(into); err != nil {
		return &FrameError{Op: "decode", Kind: kind, Len: uint32(len(p)), Err: err}
	}
	return nil
}

// ErrNotWirable marks a configuration that cannot cross a process
// boundary (an attached trace recorder, or a Shape/Demand implementation
// this package does not know). ProcBackend falls back to in-process
// execution for such configurations.
var ErrNotWirable = errors.New("distrib: config cannot cross a process boundary")

// WireConfig is system.Config flattened for the wire: the scenario
// travels as its declarative Spec (recompiled worker-side), the trace
// recorder cannot travel at all, and Seed is omitted because the shard's
// Seeds list overrides it per replication.
type WireConfig struct {
	Nodes                int
	MuSubtask, MuLocal   float64
	M                    int
	Load, FracLocal      float64
	SlackMin, SlackMax   float64
	RelFlex, PexRelErr   float64
	Scheduler            string
	TardyAbort           bool
	FirmAbort            bool
	Preemptive           bool
	SSP, PSP             string
	Shape                workload.Shape
	LocalRateMultipliers []float64
	Horizon, Warmup      float64
	Scenario             *scenario.Spec
	DisablePooling       bool
	EventQueue           string
}

// shapeDemand extracts the demand of a known shape.
func shapeDemand(s workload.Shape) (workload.Demand, bool) {
	switch sh := s.(type) {
	case workload.SerialShape:
		return sh.Demand, true
	case workload.ParallelShape:
		return sh.Demand, true
	case workload.MixedShape:
		return sh.Demand, true
	case workload.HeteroSerialShape:
		return sh.Demand, true
	default:
		return nil, false
	}
}

// wirableDemand reports whether d is a registered concrete demand.
func wirableDemand(d workload.Demand) bool {
	switch d.(type) {
	case nil, workload.ExponentialDemand, workload.ParetoDemand,
		workload.LognormalDemand, workload.DeterministicDemand:
		return true
	default:
		return false
	}
}

// ToWire flattens a configuration for the wire, or reports
// ErrNotWirable for configurations that must stay in process.
func ToWire(cfg system.Config) (WireConfig, error) {
	if cfg.Trace != nil {
		return WireConfig{}, fmt.Errorf("%w: a trace recorder is attached", ErrNotWirable)
	}
	if cfg.Shape != nil {
		d, known := shapeDemand(cfg.Shape)
		if !known {
			return WireConfig{}, fmt.Errorf("%w: unknown shape %T", ErrNotWirable, cfg.Shape)
		}
		if !wirableDemand(d) {
			return WireConfig{}, fmt.Errorf("%w: unknown demand %T", ErrNotWirable, d)
		}
	}
	wc := WireConfig{
		Nodes:                cfg.Nodes,
		MuSubtask:            cfg.MuSubtask,
		MuLocal:              cfg.MuLocal,
		M:                    cfg.M,
		Load:                 cfg.Load,
		FracLocal:            cfg.FracLocal,
		SlackMin:             cfg.SlackMin,
		SlackMax:             cfg.SlackMax,
		RelFlex:              cfg.RelFlex,
		PexRelErr:            cfg.PexRelErr,
		Scheduler:            string(cfg.Scheduler),
		TardyAbort:           cfg.TardyAbort,
		FirmAbort:            cfg.FirmAbort,
		Preemptive:           cfg.Preemptive,
		SSP:                  cfg.SSP,
		PSP:                  cfg.PSP,
		Shape:                cfg.Shape,
		LocalRateMultipliers: cfg.LocalRateMultipliers,
		Horizon:              cfg.Horizon,
		Warmup:               cfg.Warmup,
		DisablePooling:       cfg.DisablePooling,
		EventQueue:           string(cfg.EventQueue),
	}
	if cfg.Scenario != nil {
		sp := cfg.Scenario.Spec()
		wc.Scenario = &sp
	}
	return wc, nil
}

// Config rebuilds the runnable configuration worker-side, recompiling
// the scenario spec.
func (wc WireConfig) Config() (system.Config, error) {
	cfg := system.Config{
		Nodes:                wc.Nodes,
		MuSubtask:            wc.MuSubtask,
		MuLocal:              wc.MuLocal,
		M:                    wc.M,
		Load:                 wc.Load,
		FracLocal:            wc.FracLocal,
		SlackMin:             wc.SlackMin,
		SlackMax:             wc.SlackMax,
		RelFlex:              wc.RelFlex,
		PexRelErr:            wc.PexRelErr,
		Scheduler:            sched.Policy(wc.Scheduler),
		TardyAbort:           wc.TardyAbort,
		FirmAbort:            wc.FirmAbort,
		Preemptive:           wc.Preemptive,
		SSP:                  wc.SSP,
		PSP:                  wc.PSP,
		Shape:                wc.Shape,
		LocalRateMultipliers: wc.LocalRateMultipliers,
		Horizon:              wc.Horizon,
		Warmup:               wc.Warmup,
		DisablePooling:       wc.DisablePooling,
		EventQueue:           sim.QueueKind(wc.EventQueue),
	}
	if wc.Scenario != nil {
		sc, err := scenario.New(*wc.Scenario)
		if err != nil {
			return system.Config{}, err
		}
		cfg.Scenario = sc
	}
	return cfg, nil
}
