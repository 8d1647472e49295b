package netdist

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"fmt"
	"io"
	"net"
	"sync"
	"testing"
	"time"

	"repro/internal/scenario"
	"repro/internal/session"
	"repro/internal/system"
)

// startServer runs a worker server on a loopback port for the test's
// lifetime.
func startServer(t testing.TB) *Server {
	t.Helper()
	srv, err := Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	done := make(chan error, 1)
	go func() { done <- srv.Serve() }()
	t.Cleanup(func() {
		srv.Close()
		if err := <-done; err != nil {
			t.Errorf("Serve: %v", err)
		}
	})
	return srv
}

// shortCfg returns a fast baseline configuration.
func shortCfg(horizon float64) system.Config {
	cfg := system.Baseline()
	cfg.Horizon = horizon
	return cfg
}

// metricsSig hashes a run's exact-bit codec encoding: equal signatures
// mean every field is bit-identical.
func metricsSig(m *system.Metrics) string {
	b, err := m.MarshalBinary()
	if err != nil {
		return "unencodable: " + err.Error()
	}
	sum := sha256.Sum256(b)
	return hex.EncodeToString(sum[:])
}

// runJob executes a job on a session over the given backend and
// returns per-replication signatures plus the merged scenario CSV.
func runJob(t *testing.T, b session.Backend, job session.Job) ([]string, []byte) {
	t.Helper()
	sigs, csv, err := jobOutput(b, job, 2)
	if err != nil {
		t.Fatal(err)
	}
	return sigs, csv
}

// jobOutput is runJob at the given parallelism, safe to call off the
// test goroutine; a nil backend runs on the in-process pool.
func jobOutput(b session.Backend, job session.Job, par int) ([]string, []byte, error) {
	var sess *session.Session
	if b == nil {
		sess = session.New(session.WithParallelism(par))
	} else {
		sess = session.NewWithBackend(b, session.WithParallelism(par))
	}
	defer sess.Close()
	res, err := sess.Run(context.Background(), job)
	if err != nil {
		return nil, nil, err
	}
	sigs := make([]string, len(res.Runs))
	for i, m := range res.Runs {
		sigs[i] = metricsSig(m)
	}
	series, err := res.MergedSeries()
	if err != nil {
		return nil, nil, err
	}
	var csv bytes.Buffer
	if series != nil {
		if err := series.WriteCSV(&csv); err != nil {
			return nil, nil, err
		}
	}
	return sigs, csv.Bytes(), nil
}

func testJob(t *testing.T, reps int) session.Job {
	t.Helper()
	cfg := shortCfg(300)
	cfg.Nodes = 4
	sc, err := scenario.Preset("burst", cfg.Horizon)
	if err != nil {
		t.Fatal(err)
	}
	cfg.Scenario = sc
	return session.Job{Config: cfg, Reps: reps}
}

// TestNetBackendMatchesPool is the tentpole determinism claim over
// sockets: a session on TCP workers produces results bit-identical to
// the in-process pool, per replication and in the merged CSV.
func TestNetBackendMatchesPool(t *testing.T) {
	srv1 := startServer(t)
	srv2 := startServer(t)
	nb, err := NewBackend(BackendOptions{Addrs: []string{srv1.Addr(), srv2.Addr()}})
	if err != nil {
		t.Fatal(err)
	}
	defer nb.Close()

	job := testJob(t, 6)
	wantSigs, wantCSV := runJob(t, nil, job)
	gotSigs, gotCSV := runJob(t, nb, job)

	for i := range wantSigs {
		if gotSigs[i] != wantSigs[i] {
			t.Errorf("rep %d:\n net: %s\npool: %s", i, gotSigs[i], wantSigs[i])
		}
	}
	if !bytes.Equal(gotCSV, wantCSV) {
		t.Error("scenario CSV differs between TCP workers and pool")
	}
	ns := nb.NetStats()
	if ns.Connections == 0 {
		t.Error("NetStats.Connections = 0, want > 0")
	}
	if ns.FramesSent == 0 || ns.FramesRecv == 0 || ns.BytesSent == 0 || ns.BytesRecv == 0 {
		t.Errorf("wire counters not all advancing: %+v", ns)
	}
	if ds := nb.DistribStats(); ds == nil || ds.Fallbacks != 0 {
		t.Errorf("healthy run used local fallback: %+v", ds)
	}
}

// killingProxy forwards a TCP connection to a backend server, counting
// whole protocol frames server→client, and severs the first connection
// after maxFrames — a worker death the coordinator must survive.
type killingProxy struct {
	ln        net.Listener
	backend   string
	maxFrames int

	mu     sync.Mutex
	killed bool
}

func startKillingProxy(t *testing.T, backend string, maxFrames int) *killingProxy {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	p := &killingProxy{ln: ln, backend: backend, maxFrames: maxFrames}
	go p.serve()
	t.Cleanup(func() { ln.Close() })
	return p
}

func (p *killingProxy) addr() string { return p.ln.Addr().String() }

func (p *killingProxy) serve() {
	for {
		client, err := p.ln.Accept()
		if err != nil {
			return
		}
		server, err := net.Dial("tcp", p.backend)
		if err != nil {
			client.Close()
			continue
		}
		p.mu.Lock()
		victim := !p.killed
		p.killed = true
		p.mu.Unlock()
		go func() {
			io.Copy(server, client)
			server.Close()
		}()
		go func() {
			defer client.Close()
			defer server.Close()
			if !victim {
				io.Copy(client, server)
				return
			}
			// Forward whole frames ([4-byte len][kind][payload]), then
			// cut the line mid-protocol.
			for i := 0; i < p.maxFrames; i++ {
				var hdr [5]byte
				if _, err := io.ReadFull(server, hdr[:]); err != nil {
					return
				}
				n := binary.BigEndian.Uint32(hdr[:4])
				if _, err := client.Write(hdr[:]); err != nil {
					return
				}
				if _, err := io.CopyN(client, server, int64(n)); err != nil {
					return
				}
			}
		}()
	}
}

// TestNetBackendReconnects: a connection that dies mid-run is treated
// as a worker death — the chunk retries on a fresh dial to the same
// address, results stay identical to the pool, and the reconnect is
// counted.
func TestNetBackendReconnects(t *testing.T) {
	srv := startServer(t)
	// 3 frames = hello reply + two more, so the line drops early in the
	// first shard.
	proxy := startKillingProxy(t, srv.Addr(), 3)
	nb, err := NewBackend(BackendOptions{Addrs: []string{proxy.addr()}})
	if err != nil {
		t.Fatal(err)
	}
	defer nb.Close()

	job := testJob(t, 6)
	wantSigs, wantCSV := runJob(t, nil, job)
	gotSigs, gotCSV := runJob(t, nb, job)

	for i := range wantSigs {
		if gotSigs[i] != wantSigs[i] {
			t.Errorf("rep %d differs after reconnect:\n net: %s\npool: %s", i, gotSigs[i], wantSigs[i])
		}
	}
	if !bytes.Equal(gotCSV, wantCSV) {
		t.Error("scenario CSV differs after mid-run connection loss")
	}
	if ns := nb.NetStats(); ns.Reconnects == 0 {
		t.Errorf("NetStats.Reconnects = 0, want > 0 (%+v)", ns)
	}
}

// TestNetBackendDegradesToLocal: with every worker unreachable the
// backend still serves shards — on the embedded in-process pool — and
// counts the fallback and the dial failures.
func TestNetBackendDegradesToLocal(t *testing.T) {
	// Grab a port that is guaranteed unoccupied.
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	dead := ln.Addr().String()
	ln.Close()

	nb, err := NewBackend(BackendOptions{Addrs: []string{dead}})
	if err != nil {
		t.Fatal(err)
	}
	defer nb.Close()

	job := testJob(t, 3)
	wantSigs, wantCSV := runJob(t, nil, job)
	gotSigs, gotCSV := runJob(t, nb, job)
	for i := range wantSigs {
		if gotSigs[i] != wantSigs[i] {
			t.Errorf("rep %d differs under degradation:\n got: %s\nwant: %s", i, gotSigs[i], wantSigs[i])
		}
	}
	if !bytes.Equal(gotCSV, wantCSV) {
		t.Error("scenario CSV differs under local degradation")
	}
	if ds := nb.DistribStats(); ds == nil || ds.Fallbacks == 0 {
		t.Errorf("Fallbacks = 0, want > 0 (%+v)", ds)
	}
	if ns := nb.NetStats(); ns.DialErrors == 0 {
		t.Errorf("DialErrors = 0, want > 0 (%+v)", ns)
	}
}

// TestServerRejectsGarbage: a client that opens with anything but a
// valid hello is dropped and counted; the server keeps serving.
func TestServerRejectsGarbage(t *testing.T) {
	srv := startServer(t)
	conn, err := net.Dial("tcp", srv.Addr())
	if err != nil {
		t.Fatal(err)
	}
	fmt.Fprintf(conn, "GET /metrics HTTP/1.1\r\nHost: x\r\n\r\n")
	// The server drops the connection without draining it, so the read
	// may end in EOF or a reset — either way it must end.
	_, _ = io.ReadAll(conn)
	conn.Close()
	deadline := time.Now().Add(5 * time.Second)
	for srv.HandshakeRejects() == 0 {
		if time.Now().After(deadline) {
			t.Fatal("handshake rejection never counted")
		}
		time.Sleep(time.Millisecond)
	}
	if got := srv.HandshakeRejects(); got != 1 {
		t.Errorf("HandshakeRejects = %d, want 1", got)
	}

	// The server must still accept a well-behaved coordinator.
	nb, err := NewBackend(BackendOptions{Addrs: []string{srv.Addr()}})
	if err != nil {
		t.Fatal(err)
	}
	defer nb.Close()
	sigs, _ := runJob(t, nb, session.Job{Config: shortCfg(200), Reps: 2})
	if len(sigs) != 2 {
		t.Fatalf("got %d reps, want 2", len(sigs))
	}
	if ds := nb.DistribStats(); ds != nil && ds.Fallbacks != 0 {
		t.Errorf("run after garbage client fell back locally: %+v", ds)
	}
}

// TestNewBackendValidation: an empty address list is a configuration
// error, not a latent dial failure.
func TestNewBackendValidation(t *testing.T) {
	if _, err := NewBackend(BackendOptions{Addrs: []string{" ", ""}}); err == nil {
		t.Fatal("NewBackend with no addresses: err = nil, want error")
	}
}
