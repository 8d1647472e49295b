package system

import (
	"fmt"
	"testing"

	"repro/internal/sim"
)

// BenchmarkScalingThroughput measures full-system simulator speed
// across topology sizes on each event queue, pinned by presetting the
// workspace's engine. The per-node load is the Table 1 baseline at every
// size, so the pending-event count (and with it the event queue's share
// of the runtime) grows with the node count; the horizon shrinks
// proportionally so one op is roughly constant simulated work. Results
// are byte-identical across the queue=... sub-benchmarks
// (TestQueueKindsAgree) — only tasks/s may differ.
//
// CI's bench-regression job pins each sub-benchmark against its own
// committed baseline in BENCH_pr9.json within tolerance (benchcheck
// compares absolute numbers per benchmark, not ladder-vs-heap ratios).
// The full-system ratio is Amdahl-bounded — model work (RNG draws,
// ready queues, stage bookkeeping) dominates as the per-node working set
// outgrows the cache — so the event core's isolated scaling advantage is
// measured separately by BenchmarkEventCoreScaling in internal/sim.
func BenchmarkScalingThroughput(b *testing.B) {
	for _, k := range []int{6, 64, 1024, 16384, 65536} {
		for _, q := range []sim.QueueKind{sim.QueueHeap, sim.QueueLadder} {
			ws := NewWorkspace()
			ws.eng = sim.NewWithQueue(q)
			b.Run(fmt.Sprintf("nodes=%d/queue=%s", k, q), func(b *testing.B) {
				b.ReportAllocs()
				cfg := Baseline()
				cfg.Nodes = k
				cfg.Horizon = float64(b.N) * 10 * 6 / float64(k)
				if cfg.Horizon < 10 {
					cfg.Horizon = 10
				}
				cfg.Warmup = cfg.Horizon / 100
				// Steady-state measurement: fault in the topology's
				// arenas (lanes, stream tables — tens of MB at 64k
				// nodes) before the clock starts, so the number reports
				// simulation throughput rather than first-touch page
				// zeroing. The measured run below still pays full
				// per-replication setup.
				warm := cfg
				warm.Horizon, warm.Warmup = 10, 0
				if _, err := RunWith(warm, ws); err != nil {
					b.Fatal(err)
				}
				b.ResetTimer()
				m, err := RunWith(cfg, ws)
				if err != nil {
					b.Fatal(err)
				}
				b.ReportMetric(float64(m.LocalDone+m.GlobalDone)/b.Elapsed().Seconds(), "tasks/s")
			})
		}
	}
}
