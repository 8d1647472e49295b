// Package netdist lifts the distrib shard protocol off the host: the
// same length-prefixed frame codec that runs coordinator↔worker over
// stdin/stdout pipes runs here over TCP, so a fleet of remote machines
// can serve shard workers to one coordinator.
//
// Three layers stack on the existing seams:
//
//   - Server accepts coordinator connections on a TCP listener, enforces
//     the magic/version handshake, and runs distrib.ServeWorker per
//     connection — each connection gets its own warm session.Pool, so a
//     long-lived coordinator reuses workspaces across shards exactly as
//     a worker process would.
//   - NetBackend implements session.Backend by dialing a static list of
//     worker addresses through ProcBackend's WorkerConn transport seam:
//     the full PR-8 supervision machinery — heartbeats, chunk deadlines,
//     retry with backoff, straggler hedging, the respawn budget —
//     operates unchanged over sockets. A lost connection is reaped and
//     re-dialed like a dead process; when no worker is reachable at all
//     the backend degrades to the embedded in-process pool.
//   - Cache and Service build the long-running query layer: a
//     deterministic LRU over (config fingerprint, seed run) → the
//     inner backend's read-only Metrics, and an HTTP front end that keeps run counters per
//     config fingerprint, runs every query on one shared backend (whose
//     pools hold the warm workspaces), and streams per-replication
//     results in seed order to many concurrent clients.
//
// Every layer preserves the repo's core invariant: results are a pure
// function of (config, seed), so output through any topology — pool,
// processes, sockets, cache hit — is byte-identical.
package netdist

import (
	"errors"
	"fmt"
	"net"
	"sync"
	"time"

	"repro/internal/distrib"
)

// handshakeTimeout bounds the hello exchange on a fresh connection: a
// stray client that connects and sends nothing is cut off instead of
// holding a goroutine forever.
const handshakeTimeout = 5 * time.Second

// Server serves shard workers to remote coordinators: every accepted
// connection must open with a valid protocol handshake and then speaks
// the standard worker protocol (distrib.ServeWorker) until it closes.
type Server struct {
	ln net.Listener

	mu               sync.Mutex
	conns            map[net.Conn]struct{}
	closed           bool
	handshakeRejects uint64

	wg sync.WaitGroup
}

// Listen binds a worker server to addr (host:port; ":0" picks a free
// port — read it back with Addr). Serve must be called to start
// accepting.
func Listen(addr string) (*Server, error) {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return nil, fmt.Errorf("netdist: listen %s: %w", addr, err)
	}
	return &Server{ln: ln, conns: make(map[net.Conn]struct{})}, nil
}

// Addr returns the bound listen address.
func (s *Server) Addr() string { return s.ln.Addr().String() }

// Serve accepts coordinator connections until Close. Each connection is
// served on its own goroutine with its own warm worker pool; Serve
// returns nil after Close, or the first accept error otherwise.
func (s *Server) Serve() error {
	for {
		conn, err := s.ln.Accept()
		if err != nil {
			if errors.Is(err, net.ErrClosed) {
				return nil
			}
			s.mu.Lock()
			closed := s.closed
			s.mu.Unlock()
			if closed {
				return nil
			}
			return fmt.Errorf("netdist: accept: %w", err)
		}
		s.mu.Lock()
		if s.closed {
			s.mu.Unlock()
			conn.Close()
			return nil
		}
		s.conns[conn] = struct{}{}
		s.wg.Add(1)
		s.mu.Unlock()
		go s.serveConn(conn)
	}
}

// serveConn handshakes one connection and runs the worker protocol on
// it. Protocol failures just drop the connection: the coordinator owns
// recovery (respawn/redial), the server stays up for the next dial.
func (s *Server) serveConn(conn net.Conn) {
	defer s.wg.Done()
	defer func() {
		s.mu.Lock()
		delete(s.conns, conn)
		s.mu.Unlock()
		conn.Close()
	}()
	_ = conn.SetDeadline(time.Now().Add(handshakeTimeout))
	if err := distrib.ReadHello(conn); err != nil {
		s.mu.Lock()
		s.handshakeRejects++
		s.mu.Unlock()
		return
	}
	if err := distrib.SendHello(conn); err != nil {
		return
	}
	_ = conn.SetDeadline(time.Time{})
	_ = distrib.ServeWorker(conn, conn)
}

// HandshakeRejects counts connections dropped for failing the protocol
// handshake (mismatched binaries, stray clients).
func (s *Server) HandshakeRejects() uint64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.handshakeRejects
}

// Close stops accepting, severs live connections (in-flight shards are
// abandoned; the coordinator's supervision re-runs them elsewhere), and
// waits for connection goroutines to unwind. Idempotent.
func (s *Server) Close() error {
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		s.wg.Wait()
		return nil
	}
	s.closed = true
	conns := make([]net.Conn, 0, len(s.conns))
	for c := range s.conns {
		conns = append(conns, c)
	}
	s.mu.Unlock()
	err := s.ln.Close()
	for _, c := range conns {
		c.Close()
	}
	s.wg.Wait()
	if err != nil && !errors.Is(err, net.ErrClosed) {
		return err
	}
	return nil
}
