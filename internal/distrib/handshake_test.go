package distrib

import (
	"bytes"
	"encoding/hex"
	"errors"
	"io"
	"testing"
)

// TestHelloRoundTrip: a hello written by this binary is accepted by
// this binary.
func TestHelloRoundTrip(t *testing.T) {
	var buf bytes.Buffer
	if err := SendHello(&buf); err != nil {
		t.Fatal(err)
	}
	if err := ReadHello(&buf); err != nil {
		t.Fatalf("ReadHello rejected our own hello: %v", err)
	}
}

// gobHelloV4 is a protocol-v4 hello frame, written by a binary whose
// frames were gob: its 56-byte payload is no binary hello.
const gobHelloV4 = "00000038072b7f0301010868656c6c6f4d736701ff8000010201054d61676963010600010756657273696f6e01060000000bff8001fc53444131010400"

// TestHelloMismatch: every way a peer can fail the handshake — foreign
// magic, a newer or an older protocol version, a gob-era hello, a
// non-hello first frame, a stream that ends early, raw garbage — yields
// a *FrameError with Op "handshake", never a decode error or a clean
// success.
func TestHelloMismatch(t *testing.T) {
	capture := func(msg helloMsg) []byte {
		var buf bytes.Buffer
		if err := newFrameWriter(&buf).send(msgHello, &msg); err != nil {
			t.Fatal(err)
		}
		return buf.Bytes()
	}
	otherKind := func() []byte {
		var buf bytes.Buffer
		if err := newFrameWriter(&buf).send(msgPing, &idMsg{ID: 1}); err != nil {
			t.Fatal(err)
		}
		return buf.Bytes()
	}()
	gobHello, err := hex.DecodeString(gobHelloV4)
	if err != nil {
		t.Fatal(err)
	}
	cases := map[string][]byte{
		"gob-era hello": gobHello,
		"wrong magic":   capture(helloMsg{Magic: 0xDEADBEEF, Version: ProtocolVersion}),
		"wrong version": capture(helloMsg{Magic: ProtocolMagic, Version: ProtocolVersion + 1}),
		"older version": capture(helloMsg{Magic: ProtocolMagic, Version: ProtocolVersion - 1}),
		"not a hello":   otherKind,
		"empty stream":  nil,
		"garbage":       []byte("GET / HTTP/1.1\r\n\r\n"),
	}
	for name, data := range cases {
		err := ReadHello(bytes.NewReader(data))
		var fe *FrameError
		if !errors.As(err, &fe) {
			t.Fatalf("%s: err = %v (%T), want *FrameError", name, err, err)
		}
		if fe.Op != "handshake" {
			t.Fatalf("%s: Op = %q, want handshake", name, fe.Op)
		}
	}
}

// TestServeWorkerAnswersHello: a worker loop replies to a valid hello
// in kind and rejects a mismatched one with a handshake FrameError.
func TestServeWorkerAnswersHello(t *testing.T) {
	var in, out bytes.Buffer
	if err := SendHello(&in); err != nil {
		t.Fatal(err)
	}
	if err := ServeWorker(&in, &out); err != nil {
		t.Fatalf("ServeWorker: %v", err)
	}
	if err := ReadHello(&out); err != nil {
		t.Fatalf("worker's hello reply invalid: %v", err)
	}

	in.Reset()
	if err := newFrameWriter(&in).send(msgHello, &helloMsg{Magic: ProtocolMagic, Version: ProtocolVersion + 1}); err != nil {
		t.Fatal(err)
	}
	err := ServeWorker(&in, io.Discard)
	var fe *FrameError
	if !errors.As(err, &fe) || fe.Op != "handshake" {
		t.Fatalf("mismatched hello: err = %v, want handshake *FrameError", err)
	}
}

// zeroStream is a peer that sends one frame header and then streams
// zeros; it counts the bytes its reader takes. It gives out after 64 KiB
// so that a reader which does buffer the claimed payload fails the test
// instead of exhausting memory.
type zeroStream struct {
	hdr  []byte
	read int
}

func (z *zeroStream) Read(p []byte) (int, error) {
	if z.read >= len(z.hdr)+64<<10 {
		return 0, io.ErrUnexpectedEOF
	}
	n := min(len(p), len(z.hdr)+64<<10-z.read)
	for i := range p[:n] {
		p[i] = 0
		if at := z.read + i; at < len(z.hdr) {
			p[i] = z.hdr[at]
		}
	}
	z.read += n
	return n, nil
}

// TestFixedSizeFramesBoundedBeforeHandshake: a peer that claims a 1 GiB
// payload is rejected from the 5-byte header alone — by the handshake
// for any kind, by the worker loop for the fixed-size kinds — so an
// unauthenticated peer cannot make a worker server buffer its payload.
func TestFixedSizeFramesBoundedBeforeHandshake(t *testing.T) {
	header := func(kind msgKind) []byte { return []byte{0x40, 0, 0, 0, byte(kind)} } // 1 GiB
	for _, kind := range []msgKind{msgHello, msgShard} {
		z := &zeroStream{hdr: header(kind)}
		var fe *FrameError
		if err := ReadHello(z); !errors.As(err, &fe) || fe.Op != "handshake" {
			t.Fatalf("kind %d: ReadHello err = %v, want handshake *FrameError", kind, err)
		}
		if z.read > frameOverhead {
			t.Errorf("kind %d: ReadHello read %d bytes before rejecting, want <= %d", kind, z.read, frameOverhead)
		}
	}
	// The worker loop reads through a 64 KiB bufio.Reader, so it may
	// take more than the header from its peer; rejecting on "length"
	// shows it never waited for the claimed payload.
	for _, kind := range []msgKind{msgHello, msgPing, msgCancel} {
		var fe *FrameError
		if err := ServeWorker(&zeroStream{hdr: header(kind)}, io.Discard); !errors.As(err, &fe) || fe.Op != "length" {
			t.Fatalf("kind %d: ServeWorker err = %v, want length *FrameError", kind, err)
		}
	}
}
