package sim

import (
	"fmt"
	"math/rand"
	"testing"
)

// BenchmarkEventCoreScaling isolates the event queue: `pending` resident
// events continuously fire and reschedule themselves a random distance
// into the future (a self-scheduling workload like the simulator's
// arrival and completion streams, with the model costs stripped away).
// On the spread queue (queue=ladder) the amortized O(1) schedule/pop
// stays flat as the pending set outgrows the cache, which is the
// scaling headroom the large-topology path buys. The queue=ladder
// suffix keeps the names of the BENCH_pr9.json baseline rows.
func BenchmarkEventCoreScaling(b *testing.B) {
	for _, pending := range []int{1 << 10, 1 << 15, 1 << 20} {
		b.Run(fmt.Sprintf("pending=%d/queue=ladder", pending), func(b *testing.B) {
			b.ReportAllocs()
			e := NewWithQueue(QueueLadder)
			r := rand.New(rand.NewSource(1))
			var cb Callback
			cb = e.Register(func(any) {
				e.MustScheduleCall(r.Float64()*float64(pending), cb, nil)
			})
			for i := 0; i < pending; i++ {
				e.MustScheduleCall(r.Float64()*float64(pending), cb, nil)
			}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				e.Step()
			}
			b.ReportMetric(float64(b.N)/b.Elapsed().Seconds(), "events/s")
		})
	}
}

// BenchmarkNearTier gives the flat regime its own number: a hold model
// on the RegisterArg path at the pending counts the paper's 6-node runs
// queue (13 at most across the artifact set) up to the spread threshold,
// so every event stays in the near tier. Each firing event reschedules
// itself an exponential distance ahead.
func BenchmarkNearTier(b *testing.B) {
	for _, pending := range []int{8, 13, 24, promoteThreshold} {
		b.Run(fmt.Sprintf("pending=%d", pending), func(b *testing.B) {
			b.ReportAllocs()
			e := New()
			r := rand.New(rand.NewSource(1))
			var cb Callback
			cb = e.RegisterArg(func(arg int32) {
				e.MustScheduleArg(r.ExpFloat64(), cb, arg)
			})
			for i := 0; i < pending; i++ {
				e.MustScheduleArg(r.ExpFloat64(), cb, int32(i))
			}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				e.Step()
			}
			if e.Stats().Promotions != 0 {
				b.Fatal("the queue spread; the benchmark no longer measures the near tier")
			}
		})
	}
}
