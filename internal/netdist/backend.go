package netdist

import (
	"errors"
	"fmt"
	"net"
	"strings"
	"sync"
	"time"

	"repro/internal/distrib"
	"repro/internal/obs"
)

// BackendOptions configures a NetBackend.
type BackendOptions struct {
	// Addrs is the static list of worker server addresses (host:port).
	// One connection is maintained per address; a broken connection is
	// re-dialed by the coordinator's respawn machinery.
	Addrs []string
	// DialTimeout bounds one dial attempt including the handshake;
	// 0 means 5s.
	DialTimeout time.Duration
	// Heartbeat, WorkerTimeout, and HedgeFactor pass through to the
	// coordinator; see distrib.ProcOptions.
	Heartbeat     time.Duration
	WorkerTimeout time.Duration
	HedgeFactor   float64
}

// NetBackend implements session.Backend against remote shard workers
// over TCP. It is distrib's coordinator running on a dialing transport:
// chunks, work-stealing, heartbeats, retries, hedging, and seed-order
// merge behave exactly as with local worker processes, so output is
// byte-identical to the in-process pool. Connection loss is handled
// like worker death — the chunk is retried elsewhere and the address
// re-dialed under the respawn budget — and when not a single worker is
// reachable, shards degrade gracefully to the embedded in-process pool.
type NetBackend struct {
	*distrib.ProcBackend

	dialTimeout time.Duration

	mu        sync.Mutex
	addrs     []string
	next      int
	connected []bool // per address: connected at least once before
	conns     uint64
	reconns   uint64
	dialErrs  uint64
}

// NewBackend returns a backend over the given worker addresses;
// connections are dialed lazily on the first Run.
func NewBackend(opts BackendOptions) (*NetBackend, error) {
	addrs := make([]string, 0, len(opts.Addrs))
	for _, a := range opts.Addrs {
		if a = strings.TrimSpace(a); a != "" {
			addrs = append(addrs, a)
		}
	}
	if len(addrs) == 0 {
		return nil, errors.New("netdist: no worker addresses")
	}
	nb := &NetBackend{
		addrs:       addrs,
		connected:   make([]bool, len(addrs)),
		dialTimeout: opts.DialTimeout,
	}
	if nb.dialTimeout <= 0 {
		nb.dialTimeout = 5 * time.Second
	}
	nb.ProcBackend = distrib.NewProcBackend(distrib.ProcOptions{
		Workers:       len(addrs),
		Heartbeat:     opts.Heartbeat,
		WorkerTimeout: opts.WorkerTimeout,
		HedgeFactor:   opts.HedgeFactor,
		Dial:          nb.dial,
	})
	return nb, nil
}

// dial establishes one worker connection, rotating round-robin through
// the address list so the fleet spreads across workers and a re-dial
// after a death can land on any healthy address. Each address is tried
// at most once per call; the first error is reported if all fail.
func (nb *NetBackend) dial() (distrib.WorkerConn, error) {
	var firstErr error
	for range nb.addrs {
		nb.mu.Lock()
		i := nb.next % len(nb.addrs)
		nb.next++
		nb.mu.Unlock()
		conn, err := nb.dialOne(nb.addrs[i])
		nb.mu.Lock()
		if err != nil {
			nb.dialErrs++
		} else {
			nb.conns++
			if nb.connected[i] {
				nb.reconns++
			}
			nb.connected[i] = true
		}
		nb.mu.Unlock()
		if err == nil {
			return conn, nil
		}
		if firstErr == nil {
			firstErr = err
		}
	}
	return nil, firstErr
}

// dialOne dials and handshakes a single address.
func (nb *NetBackend) dialOne(addr string) (distrib.WorkerConn, error) {
	c, err := net.DialTimeout("tcp", addr, nb.dialTimeout)
	if err != nil {
		return nil, err
	}
	_ = c.SetDeadline(time.Now().Add(nb.dialTimeout))
	if err = distrib.SendHello(c); err == nil {
		err = distrib.ReadHello(c)
	}
	if err != nil {
		c.Close()
		return nil, fmt.Errorf("handshake with %s: %w", addr, err)
	}
	_ = c.SetDeadline(time.Time{})
	return &netConn{conn: c}, nil
}

// NetStats implements the session.NetStatser facet: connection
// lifecycle counters plus wire traffic summed over every connection the
// coordinator has tracked (live and reaped).
func (nb *NetBackend) NetStats() obs.NetStats {
	var ns obs.NetStats
	if ds := nb.DistribStats(); ds != nil {
		for _, w := range ds.Workers {
			ns.FramesSent += w.FramesSent
			ns.FramesRecv += w.FramesRecv
			ns.BytesSent += w.BytesSent
			ns.BytesRecv += w.BytesRecv
		}
	}
	nb.mu.Lock()
	ns.Connections = nb.conns
	ns.Reconnects = nb.reconns
	ns.DialErrors = nb.dialErrs
	nb.mu.Unlock()
	return ns
}

// netConn adapts a TCP connection to the WorkerConn seam. Close
// half-closes the write side so the worker sees EOF (its clean-shutdown
// signal) while its final frames can still drain; Kill severs the
// connection, which unblocks any pending read.
type netConn struct {
	conn net.Conn
}

func (c *netConn) Read(p []byte) (int, error)  { return c.conn.Read(p) }
func (c *netConn) Write(p []byte) (int, error) { return c.conn.Write(p) }

func (c *netConn) Close() error {
	if tc, ok := c.conn.(*net.TCPConn); ok {
		if err := tc.CloseWrite(); err != nil && !errors.Is(err, net.ErrClosed) {
			return err
		}
		return nil
	}
	return c.conn.Close()
}

func (c *netConn) Kill() { _ = c.conn.Close() }
func (c *netConn) Wait() {}
