// Package distrib is the multi-process execution backend behind the
// session.Backend seam: a coordinator (ProcBackend) that spawns N worker
// processes and work-steals sub-shards across them, and a worker server
// (ServeWorker) that executes the sub-shards it receives over a
// length-prefixed binary protocol on stdin/stdout.
//
// Every message is one frame:
//
//	[uint32 big-endian payload length] [1 byte message kind] [payload]
//
// Coordinator -> worker: shardMsg (run these seeds), cancel (stop the
// identified shard at the next replication boundary), ping. Worker ->
// coordinator: resultMsg (one replication's metrics, streamed as it
// finishes), doneMsg (the shard's outcome with a structured Code), pong.
// Closing the worker's stdin shuts it down.
//
// Payloads are exact internal/wire encodings, read by its one bounded
// decoder. A shard carries its configuration as ToWire's bytes, the
// bytes ConfigFingerprint hashes, so a worker runs exactly the
// configuration the result cache keyed. Hello, ping, pong and cancel
// frames have a fixed size, checked from the header alone.
//
// Outcomes carry a Code rather than an error string alone because error
// identity does not survive a process boundary: a worker's
// context.Canceled arrives at the coordinator as CodeCanceled and is
// rehydrated into a CanceledError that still satisfies
// errors.Is(err, context.Canceled), so the run layer's cancellation
// semantics (partial results remain valid) hold across processes.
//
// Simulation results cross the boundary as system.Metrics in its
// exact-bit codec, the encoding the result cache also stores. A merged
// result is therefore bit-identical to one computed in process, and the
// coordinator merges sub-shards in seed order, so ProcBackend output is
// byte-identical to the in-process pool at any worker count.
package distrib

import (
	"context"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"sync"
	"sync/atomic"

	"repro/internal/failpoint"
	"repro/internal/obs"
	"repro/internal/system"
	"repro/internal/wire"
)

// msgKind tags a frame's payload type.
type msgKind uint8

const (
	msgShard  msgKind = iota + 1 // coordinator -> worker: shardMsg
	msgCancel                    // coordinator -> worker: idMsg naming the shard
	msgResult                    // worker -> coordinator: resultMsg
	msgDone                      // worker -> coordinator: doneMsg
	msgPing                      // coordinator -> worker: idMsg (liveness probe)
	msgPong                      // worker -> coordinator: idMsg (liveness reply)
	msgHello                     // either direction: helloMsg (transport handshake)
)

// fixedSize is the exact payload length of the fixed-size kinds, 0 for
// the others; readFrame rejects a mismatched header before the payload.
var fixedSize = [...]uint32{msgCancel: 8, msgPing: 8, msgPong: 8, msgHello: 8}

// Handshake identity. ProtocolMagic distinguishes this protocol from an
// arbitrary byte stream that happened to connect to a worker port;
// ProtocolVersion is bumped on any incompatible frame or payload change,
// so a coordinator and worker built from different protocol revisions
// fail the handshake with a structured *FrameError instead of a decode
// error deep inside a shard. Versions 1 to 4 were gob frames; versions
// 5 and up are the binary encoding, whose shard frames carry the config
// encoding at its own revision (fingerprintRev); version 6 is 5 with that
// encoding's event-queue name gone.
const (
	ProtocolMagic   uint32 = 0x53444131 // "SDA1"
	ProtocolVersion uint32 = 6
)

// maxFrame bounds the payload of the kinds without a fixed size;
// anything larger is a protocol error, not data (it protects against
// reading a corrupted length as a huge allocation).
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

// message is a frame payload: appendTo encodes it, and decode reverses
// that through the shared bounded decoder.
type message interface {
	appendTo(b wire.Buf) wire.Buf
	decode(d *wire.Decoder)
}

// shardMsg asks a worker to run one sub-shard. Config, ToWire's
// encoding, is the payload's tail; the worker decodes it into cfg.
type shardMsg struct {
	ID          uint64
	Seeds       []uint64
	Parallelism int
	Config      []byte
	cfg         system.Config
}

func (m *shardMsg) appendTo(b wire.Buf) wire.Buf {
	b = b.Word(m.ID).Int(m.Parallelism).Int(len(m.Seeds))
	for _, s := range m.Seeds {
		b = b.Word(s)
	}
	return append(b, m.Config...)
}

func (m *shardMsg) decode(d *wire.Decoder) {
	m.ID, m.Parallelism, m.Seeds, m.Config = d.Word(), d.Int(), wire.Slice(d, 8, d.Word), d.Rest()
	cd := wire.NewDecoder(m.Config)
	m.cfg = readConfig(&cd)
	d.Fail(cd.Finish())
}

// idMsg is the payload of the one-word frames. A cancel names the shard
// to stop at its next replication boundary (claimed replications run to
// completion, preserving the prefix guarantee). A ping is a liveness
// probe carrying a sequence number, which the worker's main loop echoes
// in a pong; pings flow while a sub-shard is outstanding, so a worker
// whose main loop or process wedges misses its liveness deadline even
// though its pipe never closes.
type idMsg struct{ ID uint64 }

func (m *idMsg) appendTo(b wire.Buf) wire.Buf { return b.Word(m.ID) }
func (m *idMsg) decode(d *wire.Decoder)       { m.ID = d.Word() }

// helloMsg opens a network transport: each side announces its magic and
// protocol version before any shard traffic. The stdin/stdout transport
// skips the handshake — the coordinator spawns its workers from its own
// binary, so the versions match by construction.
type helloMsg struct {
	Magic   uint32
	Version uint32
}

// A hello is one word: the magic in the high half, the version in the
// low half.
func (m *helloMsg) appendTo(b wire.Buf) wire.Buf {
	return b.Word(uint64(m.Magic)<<32 | uint64(m.Version))
}

func (m *helloMsg) decode(d *wire.Decoder) {
	w := d.Word()
	m.Magic, m.Version = uint32(w>>32), uint32(w)
}

var ourHello = helloMsg{Magic: ProtocolMagic, Version: ProtocolVersion}

// SendHello writes one handshake frame announcing this binary's
// protocol identity.
func SendHello(w io.Writer) error {
	return newFrameWriter(w).send(msgHello, &ourHello)
}

// ReadHello reads the peer's handshake frame and verifies it. Every
// failure — a short or non-frame stream, a non-hello first frame, a
// foreign magic, a different protocol version — is a *FrameError with
// Op "handshake", so transports reject mismatched binaries before any
// shard state exists on either side. A header that is not a hello's is
// rejected before its payload is read.
func ReadHello(r io.Reader) error {
	kind, payload, err := readFrame(r, msgHello)
	if errors.Is(err, io.EOF) {
		err = io.ErrUnexpectedEOF
	}
	if err == nil {
		err = checkHello(payload)
	}
	if err != nil {
		return &FrameError{Op: "handshake", Kind: kind, Len: uint32(len(payload)), Err: err}
	}
	return nil
}

// checkHello decodes a hello payload and verifies that the peer speaks
// this binary's protocol.
func checkHello(payload []byte) error {
	var m helloMsg
	if err := decodeMsg(msgHello, payload, &m); err != nil {
		return err
	}
	if m != ourHello {
		return fmt.Errorf("peer magic %#08x version %d, this binary speaks %#08x version %d",
			m.Magic, m.Version, ProtocolMagic, ProtocolVersion)
	}
	return nil
}

// resultMsg streams one finished replication: Index is the position
// within the sub-shard's Seeds, and Metrics's codec bytes are the
// payload's tail.
type resultMsg struct {
	ID      uint64
	Index   int
	Metrics *system.Metrics
}

func (m *resultMsg) appendTo(b wire.Buf) wire.Buf {
	b, _ = m.Metrics.AppendBinary(b.Word(m.ID).Int(m.Index)) // never fails
	return b
}

func (m *resultMsg) decode(d *wire.Decoder) {
	m.ID, m.Index, m.Metrics = d.Word(), d.Int(), new(system.Metrics)
	d.Fail(m.Metrics.UnmarshalBinary(d.Rest()))
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

func (m *doneMsg) appendTo(b wire.Buf) wire.Buf {
	b = b.Word(uint64(m.Code)).Word(m.ID).Int(m.Completed).Str(m.Error)
	return b.Word(m.Pool.WarmAcquires).Word(m.Pool.ColdAcquires).Float(m.Pool.BusySeconds)
}

func (m *doneMsg) decode(d *wire.Decoder) {
	if code := d.Word(); code > uint64(CodeError) {
		d.Fail(fmt.Errorf("distrib: unknown outcome code %d", code))
	} else {
		m.Code = Code(code)
	}
	m.ID, m.Completed, m.Error = d.Word(), d.Int(), d.Str()
	m.Pool = obs.PoolStats{WarmAcquires: d.Word(), ColdAcquires: d.Word(), BusySeconds: d.Float()}
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
	buf    []byte
	frames atomic.Uint64 // frames written, for the per-worker wire stats
	bytes  atomic.Uint64 // bytes written (header + payload)
}

func newFrameWriter(w io.Writer) *frameWriter { return &frameWriter{w: w} }

// send encodes msg and writes one frame.
func (fw *frameWriter) send(kind msgKind, msg message) error {
	corrupt, ferr := failpoint.Inject("distrib/frame-write")
	if ferr != nil {
		return ferr
	}
	fw.mu.Lock()
	defer fw.mu.Unlock()
	b := msg.appendTo(append(fw.buf[:0], 0, 0, 0, 0, byte(kind)))
	fw.buf = b
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
	fw.frames.Add(1)
	fw.bytes.Add(uint64(len(b)))
	return nil
}

// counts returns the frames and bytes successfully written so far. It
// never waits on a write in progress.
func (fw *frameWriter) counts() (frames, bytes uint64) {
	return fw.frames.Load(), fw.bytes.Load()
}

// FrameError is the structured rejection of a malformed frame: which
// stage of framing failed (Op), the claimed payload length and frame
// kind where known, and the underlying cause. Every non-EOF framing
// failure is a *FrameError — a corrupt or truncated stream yields a
// typed error the caller can count and recover from, never a panic and
// never an unbounded wait.
type FrameError struct {
	// Op is the stage that rejected the frame: "header" (short read in
	// the 5-byte header), "length" (claimed length is not its kind's
	// fixed size, or exceeds maxFrame), "payload" (stream ended inside
	// the payload), "decode" (the payload is not exactly one encoding
	// of its kind, or names an unknown tag or an invalid scenario),
	// "kind" (no such frame kind, or not the one the reader expects),
	// or "handshake" (the peer is not a compatible distrib binary).
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

// readFrame reads one frame, of kind only unless only is 0. io.EOF
// (clean close between frames) passes through unwrapped; every other
// failure is a *FrameError. A kind other than only, or a length other
// than the kind's fixed size, fails before the payload is read. The
// payload is read a chunk at a time, so a corrupted length prefix costs
// at most twice the bytes actually present, plus one chunk.
func readFrame(r io.Reader, only msgKind) (msgKind, []byte, error) {
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
	if only != 0 && kind != only {
		return 0, nil, &FrameError{Op: "kind", Kind: kind, Len: n, Err: fmt.Errorf("expected frame kind %d", only)}
	}
	if int(kind) < len(fixedSize) && fixedSize[kind] != 0 && n != fixedSize[kind] || n > maxFrame {
		return 0, nil, &FrameError{Op: "length", Kind: kind, Len: n}
	}
	var p []byte
	for len(p) < int(n) {
		start, step := len(p), min(int(n)-len(p), readChunk)
		if cap(p) < start+step { // grow by doubling, as append does
			p = append(make([]byte, 0, max(2*cap(p), start+step)), p...)
		}
		p = p[:start+step]
		if _, err := io.ReadFull(r, p[start:]); err != nil {
			return 0, nil, &FrameError{Op: "payload", Kind: kind, Len: n, Err: err}
		}
	}
	return kind, p, nil
}

// decodeMsg unpacks a frame payload, which must be exactly one encoding
// of into; failures are structured *FrameError values (Op "decode").
func decodeMsg(kind msgKind, p []byte, into message) error {
	_, err := failpoint.Inject("distrib/decode")
	if err == nil {
		d := wire.NewDecoder(p)
		into.decode(&d)
		err = d.Finish()
	}
	if err != nil {
		return &FrameError{Op: "decode", Kind: kind, Len: uint32(len(p)), Err: err}
	}
	return nil
}
