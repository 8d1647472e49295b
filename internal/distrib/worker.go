package distrib

import (
	"bufio"
	"context"
	"errors"
	"fmt"
	"io"
	"sync"

	"repro/internal/failpoint"
	"repro/internal/session"
	"repro/internal/system"
)

// ServeWorker runs the shard-worker side of the protocol: it reads
// shard, cancel, and ping frames from r until EOF and writes result,
// done, and pong frames to w. Each worker process owns one warm
// session.Pool, so consecutive sub-shards reuse workspaces exactly as
// the in-process backend does. Shards run concurrently, each on its own
// workspace: the coordinator keeps one chunk per run in flight on each
// worker, so concurrent runs overlap here. Cancellation stops a shard
// at its next replication boundary, preserving the seed-prefix
// guarantee. Pings are answered from the main loop even while shards
// execute in their goroutines, so liveness replies flow as long as the
// process itself is healthy.
//
// A clean shutdown — stdin closing between frames — returns nil after
// in-flight shards finish. A malformed frame (truncated, corrupt,
// unknown kind) returns its structured *FrameError: the worker exits
// rather than guess at a desynchronized stream, and the coordinator
// recovers by respawning it and re-dispatching the chunk.
func ServeWorker(r io.Reader, w io.Writer) error {
	br := bufio.NewReaderSize(r, 1<<16)
	fw := newFrameWriter(w)
	pool := session.NewPool()
	defer pool.Close()

	var (
		mu      sync.Mutex
		cancels = make(map[uint64]context.CancelFunc)
		wg      sync.WaitGroup
	)
	defer wg.Wait()
	for {
		kind, payload, err := readFrame(br)
		if err != nil {
			if errors.Is(err, io.EOF) {
				return nil // coordinator closed the pipe
			}
			return err
		}
		// The chaos seam for a wedged worker: a hang here stops frame
		// processing (and so pong replies) without the pipe ever
		// closing — exactly the failure heartbeats exist to catch. A
		// kill here is the abrupt-death case.
		if _, err := failpoint.Inject("distrib/worker-loop"); err != nil {
			return err
		}
		switch kind {
		case msgShard:
			var m shardMsg
			if err := decodeMsg(kind, payload, &m); err != nil {
				return err
			}
			ctx, cancel := context.WithCancel(context.Background())
			mu.Lock()
			cancels[m.ID] = cancel
			mu.Unlock()
			wg.Add(1)
			go func() {
				defer wg.Done()
				defer func() {
					mu.Lock()
					delete(cancels, m.ID)
					mu.Unlock()
					cancel()
				}()
				runWorkerShard(ctx, pool, fw, m)
			}()
		case msgCancel:
			var m cancelMsg
			if err := decodeMsg(kind, payload, &m); err != nil {
				return err
			}
			mu.Lock()
			if cancel := cancels[m.ID]; cancel != nil {
				cancel()
			}
			mu.Unlock()
		case msgPing:
			var m pingMsg
			if err := decodeMsg(kind, payload, &m); err != nil {
				return err
			}
			// Write errors mean the coordinator is gone; the main loop
			// will see the broken pipe on its next read.
			_ = fw.send(msgPong, pongMsg{Seq: m.Seq})
		case msgHello:
			// A coordinator may handshake over any transport (the TCP
			// listener additionally requires it before shard traffic).
			var m helloMsg
			if err := decodeMsg(kind, payload, &m); err != nil {
				return err
			}
			if m.Magic != ProtocolMagic || m.Version != ProtocolVersion {
				return &FrameError{Op: "handshake", Kind: kind, Len: uint32(len(payload)),
					Err: fmt.Errorf("peer magic %#08x version %d, this binary speaks %#08x version %d",
						m.Magic, m.Version, ProtocolMagic, ProtocolVersion)}
			}
			_ = fw.send(msgHello, helloMsg{Magic: ProtocolMagic, Version: ProtocolVersion})
		default:
			return &FrameError{Op: "kind", Kind: kind, Len: uint32(len(payload))}
		}
	}
}

// runWorkerShard executes one sub-shard on the worker's pool, streaming
// per-replication results and closing with a coded done frame. Write
// errors are ignored: they mean the coordinator is gone, and the main
// loop will see the broken pipe on its next frame.
func runWorkerShard(ctx context.Context, pool *session.Pool, fw *frameWriter, m shardMsg) {
	cfg, err := m.Config.Config()
	if err != nil {
		_ = fw.send(msgDone, doneMsg{ID: m.ID, Code: CodeError, Error: err.Error()})
		return
	}
	shard := session.Shard{
		Config:      cfg,
		Seeds:       m.Seeds,
		Parallelism: m.Parallelism,
		OnResult: func(i int, met *system.Metrics) {
			_ = fw.send(msgResult, resultMsg{ID: m.ID, Index: i, Metrics: met})
		},
	}
	res, err := pool.Run(ctx, shard)
	// Every done frame carries the worker's cumulative pool gauges; the
	// coordinator keeps the latest, so fleet stats stay current without
	// extra protocol round-trips.
	ps := pool.PoolStats()
	switch {
	case err == nil:
		_ = fw.send(msgDone, doneMsg{ID: m.ID, Completed: res.Completed, Code: CodeOK, Pool: ps})
	case isCancellation(err):
		_ = fw.send(msgDone, doneMsg{ID: m.ID, Completed: res.Completed, Code: CodeCanceled, Error: err.Error(), Pool: ps})
	default:
		_ = fw.send(msgDone, doneMsg{ID: m.ID, Code: CodeError, Error: err.Error(), Pool: ps})
	}
}
