package session

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"runtime"
	"strings"
	"testing"
	"time"

	"repro/internal/scenario"
	"repro/internal/stats"
	"repro/internal/system"
	"repro/internal/trace"
)

// shortCfg returns a fast baseline configuration.
func shortCfg(horizon float64) system.Config {
	cfg := system.Baseline()
	cfg.Horizon = horizon
	return cfg
}

// sameBits reports whether a and b agree in every field, compared as
// exact-bit codec bytes.
func sameBits(t *testing.T, a, b *system.Metrics) bool {
	t.Helper()
	ab, err := a.MarshalBinary()
	if err != nil {
		t.Fatal(err)
	}
	bb, err := b.MarshalBinary()
	if err != nil {
		t.Fatal(err)
	}
	return bytes.Equal(ab, bb)
}

// metricsSig fingerprints a run's aggregate counters and ratios: the
// comparison for runs on different event queues, whose QueuePromotions
// may legitimately differ, and a readable summary for failure messages.
func metricsSig(m *system.Metrics) string {
	return fmt.Sprintf("lg=%d ld=%d gg=%d gd=%d mdl=%v mdg=%v lr=%v gr=%v",
		m.LocalGenerated, m.LocalDone, m.GlobalGenerated, m.GlobalDone,
		m.MDLocal(), m.MDGlobal(), m.LocalResponse.Mean(), m.GlobalResponse.Mean())
}

// TestRunMatchesLegacyReplications pins the compatibility contract: a
// session job equals the plain sequential loop — system.RunWith over one
// warm workspace with seeds Seed, Seed+1, ... — run for run and in its
// aggregates, at sequential and parallel settings.
func TestRunMatchesLegacyReplications(t *testing.T) {
	cfg := shortCfg(2500)
	const reps = 4
	ws := system.NewWorkspace()
	want := make([]*system.Metrics, reps)
	local, global := make([]float64, reps), make([]float64, reps)
	for i := range want {
		c := cfg
		c.Seed = cfg.Seed + uint64(i)
		m, err := system.RunWith(c, ws)
		if err != nil {
			t.Fatal(err)
		}
		want[i], local[i], global[i] = m, m.MDLocal(), m.MDGlobal()
	}
	wantLocal, wantGlobal := stats.MeanCI(local), stats.MeanCI(global)
	for _, par := range []int{1, 4} {
		s := New(WithParallelism(par))
		res, err := s.Run(context.Background(), Job{Config: cfg, Reps: reps})
		if err != nil {
			t.Fatalf("parallelism %d: %v", par, err)
		}
		s.Close()
		if res.Partial || len(res.Runs) != reps {
			t.Fatalf("parallelism %d: partial=%t runs=%d", par, res.Partial, len(res.Runs))
		}
		for i := range res.Runs {
			if !sameBits(t, res.Runs[i], want[i]) {
				t.Fatalf("parallelism %d rep %d diverged:\n got %s\nwant %s",
					par, i, metricsSig(res.Runs[i]), metricsSig(want[i]))
			}
		}
		if res.LocalMD != wantLocal || res.GlobalMD != wantGlobal {
			t.Fatalf("parallelism %d: estimates diverged: %+v vs %+v", par, res.LocalMD, wantLocal)
		}
	}
}

// mergedCSV renders res's merged scenario series.
func mergedCSV(t *testing.T, res *Result) string {
	t.Helper()
	series, err := res.MergedSeries()
	if err != nil {
		t.Fatal(err)
	}
	if series == nil {
		t.Fatal("a scenario job has no merged series")
	}
	var b strings.Builder
	if err := series.WriteCSV(&b); err != nil {
		t.Fatal(err)
	}
	return b.String()
}

// TestStreamMatchesBatch pins the streaming contract: items arrive in
// seed order, and their concatenation is bit-identical to the batch
// result. The merged scenario series of Run and of Stream give the same
// CSV bytes at parallelism 1 and 4, and merging, however often, never
// writes into a run.
func TestStreamMatchesBatch(t *testing.T) {
	cfg := shortCfg(6000)
	sc, err := scenario.Preset("burst", cfg.Horizon)
	if err != nil {
		t.Fatal(err)
	}
	scCfg := cfg
	scCfg.Scenario = sc
	job := Job{Config: scCfg, Reps: 5}

	var wantCSV string
	for _, par := range []int{1, 4} {
		s := New(WithParallelism(par))
		t.Cleanup(func() { s.Close() })
		batch, err := s.Run(context.Background(), job)
		if err != nil {
			t.Fatal(err)
		}

		st, err := s.Stream(context.Background(), job)
		if err != nil {
			t.Fatal(err)
		}
		var items []Item
		for it := range st.Items() {
			items = append(items, it)
		}
		streamed, err := st.Result()
		if err != nil {
			t.Fatal(err)
		}

		if len(items) != len(batch.Runs) {
			t.Fatalf("parallelism %d: streamed %d items, batch ran %d", par, len(items), len(batch.Runs))
		}
		for i, it := range items {
			if it.Index != i || it.Seed != cfg.Seed+uint64(i) {
				t.Fatalf("parallelism %d: item %d out of seed order: index=%d seed=%d", par, i, it.Index, it.Seed)
			}
			if !sameBits(t, it.Metrics, batch.Runs[i]) {
				t.Fatalf("parallelism %d: item %d diverged from batch:\n got %s\nwant %s",
					par, i, metricsSig(it.Metrics), metricsSig(batch.Runs[i]))
			}
		}

		before := make([][]byte, len(batch.Runs))
		for i, m := range batch.Runs {
			if before[i], err = m.MarshalBinary(); err != nil {
				t.Fatal(err)
			}
		}
		for _, res := range []*Result{batch, streamed, batch} {
			got := mergedCSV(t, res)
			if wantCSV == "" {
				wantCSV = got
			} else if got != wantCSV {
				t.Fatalf("parallelism %d: merged series CSV differs between Stream, Run and parallelism 1", par)
			}
		}
		for i, m := range batch.Runs {
			if after, _ := m.MarshalBinary(); !bytes.Equal(after, before[i]) {
				t.Fatalf("parallelism %d: merging wrote into run %d", par, i)
			}
		}
	}

	s := New()
	defer s.Close()
	plain, err := s.Run(context.Background(), Job{Config: cfg, Reps: 2})
	if err != nil {
		t.Fatal(err)
	}
	if series, err := plain.MergedSeries(); series != nil || err != nil {
		t.Fatalf("a job without a scenario merged %v, %v; want nil, nil", series, err)
	}
}

// TestCancelMidRunIsSeedPrefixDeterministic is the cancellation
// acceptance test: cancelling mid-job yields a Partial result covering
// an exact seed prefix whose every replication is bit-identical to the
// uncancelled run's, with no goroutine leaks.
func TestCancelMidRunIsSeedPrefixDeterministic(t *testing.T) {
	cfg := shortCfg(4000)
	const reps = 24
	s := New(WithParallelism(4))
	defer s.Close()

	full, err := s.Run(context.Background(), Job{Config: cfg, Reps: reps})
	if err != nil {
		t.Fatal(err)
	}

	before := runtime.NumGoroutine()
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	// Cancel as soon as a few replications have finished. (Progress may
	// fire concurrently; done is delivered under the hook's own lock.)
	res, err := s.Run(ctx, Job{Config: cfg, Reps: reps}, WithProgress(func(done, total int) {
		if done == 3 {
			cancel()
		}
	}))
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	if res == nil || !res.Partial {
		t.Fatalf("cancelled run returned res=%v, want a partial result", res)
	}
	if len(res.Runs) == 0 || len(res.Runs) >= reps {
		t.Fatalf("partial covered %d of %d replications, want a strict prefix", len(res.Runs), reps)
	}
	for i, m := range res.Runs {
		if res.Seeds[i] != cfg.Seed+uint64(i) {
			t.Fatalf("partial seed %d = %d, not the prefix seed %d", i, res.Seeds[i], cfg.Seed+uint64(i))
		}
		if !sameBits(t, m, full.Runs[i]) {
			t.Fatalf("partial rep %d diverged from the full run:\n got %s\nwant %s",
				i, metricsSig(m), metricsSig(full.Runs[i]))
		}
	}

	// No goroutine leaks: the pool's workers exit after wg.Wait.
	deadline := time.Now().Add(2 * time.Second)
	for runtime.NumGoroutine() > before && time.Now().Before(deadline) {
		time.Sleep(10 * time.Millisecond)
	}
	if after := runtime.NumGoroutine(); after > before {
		t.Fatalf("goroutines leaked: %d before, %d after", before, after)
	}
}

// TestStreamCancelDeliversPrefix: a cancelled stream closes its channel
// after delivering the finished prefix, and Result reports the same
// partial aggregate.
//
// The cancel fires from the progress hook at the second completion,
// which runs on the worker before it claims its next replication. A
// consumer that cancels after reading two items could be descheduled
// until every replication had finished, and the run then ends with no
// error at all.
func TestStreamCancelDeliversPrefix(t *testing.T) {
	cfg := shortCfg(3000)
	const reps = 16
	s := New(WithParallelism(2))
	defer s.Close()

	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	st, err := s.Stream(ctx, Job{Config: cfg, Reps: reps}, WithProgress(func(done, _ int) {
		if done == 2 {
			cancel()
		}
	}))
	if err != nil {
		t.Fatal(err)
	}
	var items []Item
	for it := range st.Items() {
		items = append(items, it)
	}
	res, err := st.Result()
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	if res == nil || !res.Partial {
		t.Fatal("cancelled stream lost its partial result")
	}
	if len(items) != len(res.Runs) {
		t.Fatalf("stream delivered %d items, result holds %d runs", len(items), len(res.Runs))
	}
	for i, it := range items {
		if it.Index != i {
			t.Fatalf("item %d carries index %d", i, it.Index)
		}
	}
}

// TestRunOptionOverrides: per-call options override session defaults
// without changing results.
func TestRunOptionOverrides(t *testing.T) {
	cfg := shortCfg(2000)
	s := New(WithParallelism(1))
	defer s.Close()
	base, err := s.Run(context.Background(), Job{Config: cfg, Reps: 2})
	if err != nil {
		t.Fatal(err)
	}
	wide, err := s.Run(context.Background(), Job{Config: cfg, Reps: 2}, WithParallelism(2))
	if err != nil {
		t.Fatal(err)
	}
	for i := range base.Runs {
		if !sameBits(t, base.Runs[i], wide.Runs[i]) {
			t.Fatalf("rep %d: a per-call parallelism override changed the result", i)
		}
	}
}

// TestTraceForcesSequential: a recorder on Config.Trace is shared by
// every replication, so it must serialize the batch (under -race a
// parallel batch would report the shared appends), and the recorder
// sees every replication's events.
func TestTraceForcesSequential(t *testing.T) {
	cfg := shortCfg(600)
	rec := trace.NewRecorder(0)
	cfg.Trace = rec
	s := New(WithParallelism(8))
	defer s.Close()
	if _, err := s.Run(context.Background(), Job{Config: cfg, Reps: 3}); err != nil {
		t.Fatal(err)
	}
	if len(rec.Events()) == 0 {
		t.Fatal("trace recorder captured nothing")
	}
}

// TestJobRepsDefaultsToOne and negative reps rejection.
func TestJobRepsValidation(t *testing.T) {
	s := New()
	defer s.Close()
	res, err := s.Run(context.Background(), Job{Config: shortCfg(500)})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Runs) != 1 {
		t.Fatalf("zero Reps ran %d replications, want 1", len(res.Runs))
	}
	if _, err := s.Run(context.Background(), Job{Config: shortCfg(500), Reps: -1}); err == nil {
		t.Fatal("negative Reps accepted")
	}
}

// TestClosedSessionRejectsRuns.
func TestClosedSessionRejectsRuns(t *testing.T) {
	s := New()
	s.Close()
	if _, err := s.Run(context.Background(), Job{Config: shortCfg(500)}); err == nil {
		t.Fatal("closed session accepted a run")
	}
	if _, err := s.Stream(context.Background(), Job{Config: shortCfg(500)}); err == nil {
		t.Fatal("closed session accepted a stream")
	}
}

// countingBackend wraps the in-process pool, proving the Backend seam
// composes: a session on a custom backend behaves identically.
type countingBackend struct {
	inner  Backend
	shards int
}

func (b *countingBackend) Run(ctx context.Context, shard Shard) (ShardResult, error) {
	b.shards++
	return b.inner.Run(ctx, shard)
}

// TestPoolParallelismBeyondSeedsAllocatesNothing: a shard's requested
// parallelism is only an upper bound, so asking for 1<<20 workers on a
// two-seed shard must cost what two workers cost, not a per-worker
// lease slot for every requested worker (8 MB of them).
func TestPoolParallelismBeyondSeedsAllocatesNothing(t *testing.T) {
	p := NewPool()
	defer p.Close()
	shard := Shard{Config: shortCfg(200), Seeds: []uint64{1, 2}, Parallelism: 2}
	if _, err := p.Run(context.Background(), shard); err != nil {
		t.Fatal(err) // warms two workspaces
	}
	shard.Parallelism = 1 << 20
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	if _, err := p.Run(context.Background(), shard); err != nil {
		t.Fatal(err)
	}
	runtime.ReadMemStats(&after)
	if got := after.TotalAlloc - before.TotalAlloc; got > 2<<20 {
		t.Fatalf("2 seeds at parallelism 1<<20 allocated %.2f MB, want under 2 MB", float64(got)/(1<<20))
	}
}

// TestCustomBackendSeam runs a job through a wrapping backend and
// requires identical results to the in-process pool.
func TestCustomBackendSeam(t *testing.T) {
	cfg := shortCfg(1500)
	ref := New(WithParallelism(1))
	defer ref.Close()
	want, err := ref.Run(context.Background(), Job{Config: cfg, Reps: 3})
	if err != nil {
		t.Fatal(err)
	}

	cb := &countingBackend{inner: NewPool()}
	s := NewWithBackend(cb, WithParallelism(2))
	got, err := s.Run(context.Background(), Job{Config: cfg, Reps: 3})
	if err != nil {
		t.Fatal(err)
	}
	if cb.shards != 1 {
		t.Fatalf("backend saw %d shards, want 1", cb.shards)
	}
	for i := range want.Runs {
		if !sameBits(t, got.Runs[i], want.Runs[i]) {
			t.Fatalf("rep %d diverged through the custom backend", i)
		}
	}
}

// TestRunFailureReturnsError: an invalid config surfaces as an error,
// not a partial result.
func TestRunFailureReturnsError(t *testing.T) {
	cfg := shortCfg(1000)
	cfg.Load = 1.5 // invalid: must be < 1
	s := New()
	defer s.Close()
	if _, err := s.Run(context.Background(), Job{Config: cfg}); err == nil {
		t.Fatal("invalid config accepted")
	}
	st, err := s.Stream(context.Background(), Job{Config: cfg})
	if err != nil {
		t.Fatal(err) // the failure surfaces through Result
	}
	for range st.Items() {
	}
	if _, err := st.Result(); err == nil {
		t.Fatal("stream swallowed the run error")
	}
}

// TestSeedRangeWraparoundRejected: a job whose seed range would wrap
// uint64 is rejected up front instead of silently handing the backend
// colliding seeds; the largest non-wrapping range still runs.
func TestSeedRangeWraparoundRejected(t *testing.T) {
	s := New(WithParallelism(1))
	defer s.Close()

	cfg := shortCfg(500)
	cfg.Seed = ^uint64(0) - 2
	// max-2, max-1, max still fits.
	res, err := s.Run(context.Background(), Job{Config: cfg, Reps: 3})
	if err != nil {
		t.Fatalf("in-range job at the seed maximum rejected: %v", err)
	}
	if len(res.Seeds) != 3 || res.Seeds[0] != ^uint64(0)-2 || res.Seeds[2] != ^uint64(0) {
		t.Fatalf("seeds = %v, want [max-2 max-1 max]", res.Seeds)
	}
	// One more replication wraps.
	if _, err := s.Run(context.Background(), Job{Config: cfg, Reps: 4}); err == nil || !strings.Contains(err.Error(), "wraps") {
		t.Fatalf("wrapping job accepted by Run (err = %v)", err)
	}
	if _, err := s.Stream(context.Background(), Job{Config: cfg, Reps: 4}); err == nil {
		t.Fatal("wrapping job accepted by Stream")
	}
}

// prefixFailBackend runs the first emit seeds through the in-process
// pool (so OnResult fires for them in the usual way), then fails the
// shard with err — modelling a backend that dies partway through.
type prefixFailBackend struct {
	inner Backend
	emit  int
	err   error
}

func (b *prefixFailBackend) Run(ctx context.Context, shard Shard) (ShardResult, error) {
	sub := shard
	sub.Seeds = shard.Seeds[:b.emit]
	if _, err := b.inner.Run(ctx, sub); err != nil {
		return ShardResult{}, err
	}
	return ShardResult{}, b.err
}

// TestStreamFailureSurfacesEmittedPrefix pins the Items/Result contract
// on the failure path: items already emitted when a non-cancellation
// backend error arrives are exactly Result().Runs, returned as a
// Partial result alongside the error.
func TestStreamFailureSurfacesEmittedPrefix(t *testing.T) {
	cfg := shortCfg(1000)
	const emit, reps = 2, 5
	fail := errors.New("backend broke")
	s := NewWithBackend(&prefixFailBackend{inner: NewPool(), emit: emit, err: fail}, WithParallelism(1))
	defer s.Close()

	st, err := s.Stream(context.Background(), Job{Config: cfg, Reps: reps})
	if err != nil {
		t.Fatal(err)
	}
	var items []Item
	for it := range st.Items() {
		items = append(items, it)
	}
	res, rerr := st.Result()
	if !errors.Is(rerr, fail) {
		t.Fatalf("Result error = %v, want %v", rerr, fail)
	}
	if res == nil || !res.Partial {
		t.Fatalf("Result = %+v, want a Partial result of the emitted prefix", res)
	}
	if len(items) != emit || len(res.Runs) != emit || len(res.Seeds) != emit {
		t.Fatalf("emitted %d items, result has %d runs / %d seeds, want %d each",
			len(items), len(res.Runs), len(res.Seeds), emit)
	}
	for i, it := range items {
		if it.Index != i || it.Seed != cfg.Seed+uint64(i) || res.Runs[i] != it.Metrics {
			t.Fatalf("item %d {index %d seed %d} does not match result run %d: the emitted prefix and Runs diverged",
				i, it.Index, it.Seed, i)
		}
	}
}
