package netdist

import (
	"bytes"
	"context"
	"net/http"
	"slices"
	"strings"
	"sync"
	"testing"

	"repro/internal/distrib"
	"repro/internal/experiment"
	"repro/internal/scenario"
	"repro/internal/session"
	"repro/internal/system"
	"repro/internal/trace"
)

// countingBackend wraps the in-process pool and records every seed it
// is actually asked to simulate.
type countingBackend struct {
	inner session.Backend

	mu    sync.Mutex
	calls int
	seeds []uint64
}

func newCountingBackend(t *testing.T) *countingBackend {
	t.Helper()
	pool := session.NewPool()
	t.Cleanup(pool.Close)
	return &countingBackend{inner: pool}
}

func (b *countingBackend) Run(ctx context.Context, shard session.Shard) (session.ShardResult, error) {
	b.mu.Lock()
	b.calls++
	b.seeds = append(b.seeds, shard.Seeds...)
	b.mu.Unlock()
	return b.inner.Run(ctx, shard)
}

func (b *countingBackend) simulated() []uint64 {
	b.mu.Lock()
	defer b.mu.Unlock()
	return append([]uint64(nil), b.seeds...)
}

// runShard pushes one shard through a backend and returns the binary
// encoding of each replication's metrics — the byte-identity currency.
func runShard(t *testing.T, b session.Backend, cfg system.Config, seeds []uint64) [][]byte {
	t.Helper()
	res, err := b.Run(context.Background(), session.Shard{Config: cfg, Seeds: seeds, Parallelism: 2})
	if err != nil {
		t.Fatal(err)
	}
	if res.Completed != len(seeds) {
		t.Fatalf("Completed = %d, want %d", res.Completed, len(seeds))
	}
	out := make([][]byte, len(res.Metrics))
	for i, m := range res.Metrics {
		if m == nil {
			t.Fatalf("metrics[%d] = nil", i)
		}
		data, err := m.MarshalBinary()
		if err != nil {
			t.Fatal(err)
		}
		out[i] = data
	}
	return out
}

func seedRange(lo, hi uint64) []uint64 {
	var out []uint64
	for s := lo; s <= hi; s++ {
		out = append(out, s)
	}
	return out
}

// TestCacheHitByteIdentical: a repeated shard is served entirely from
// the cache, byte-for-byte equal to the fresh computation, without
// touching the simulator again.
func TestCacheHitByteIdentical(t *testing.T) {
	inner := newCountingBackend(t)
	c := NewCache(inner, 0)
	cfg := shortCfg(300)
	seeds := seedRange(1, 8)

	first := runShard(t, c, cfg, seeds)
	before := len(inner.simulated())
	second := runShard(t, c, cfg, seeds)

	for i := range first {
		if !bytes.Equal(first[i], second[i]) {
			t.Errorf("seed %d: cached result differs from fresh result", seeds[i])
		}
	}
	if after := len(inner.simulated()); after != before {
		t.Errorf("second run simulated %d seeds, want 0", after-before)
	}
	st := c.CacheStats()
	if st.Hits != uint64(len(seeds)) || st.Misses != uint64(len(seeds)) {
		t.Errorf("hits/misses = %d/%d, want %d/%d", st.Hits, st.Misses, len(seeds), len(seeds))
	}
	if st.Entries == 0 || st.Bytes == 0 || st.Inserts == 0 {
		t.Errorf("cache looks empty after inserts: %+v", st)
	}
}

// TestCacheOverlappingSweep: an overlapping seed range simulates only
// the uncovered suffix; the overlap is served from the store and stays
// byte-identical.
func TestCacheOverlappingSweep(t *testing.T) {
	inner := newCountingBackend(t)
	c := NewCache(inner, 0)
	cfg := shortCfg(300)

	first := runShard(t, c, cfg, seedRange(1, 8))
	second := runShard(t, c, cfg, seedRange(5, 12))

	for i, s := range seedRange(5, 8) {
		if !bytes.Equal(first[int(s-1)], second[i]) {
			t.Errorf("seed %d: overlap served different bytes", s)
		}
	}
	fresh := inner.simulated()[8:]
	if len(fresh) != 4 {
		t.Fatalf("second run simulated %d seeds (%v), want 4", len(fresh), fresh)
	}
	for i, s := range fresh {
		if want := uint64(9 + i); s != want {
			t.Errorf("simulated seed %d, want %d", s, want)
		}
	}
	st := c.CacheStats()
	if st.Hits != 4 || st.Misses != 12 {
		t.Errorf("hits/misses = %d/%d, want 4/12", st.Hits, st.Misses)
	}
}

// TestCacheEviction: a cache bounded well below the working set evicts
// least-recently-used runs; evicted seeds miss again and recompute to
// the same bytes.
func TestCacheEviction(t *testing.T) {
	inner := newCountingBackend(t)
	cfg := shortCfg(300)

	// Size the budget from a real entry so exactly ~2 runs fit.
	probe := NewCache(newCountingBackend(t), 0)
	runShard(t, probe, cfg, seedRange(1, 4))
	probeBytes := int64(probe.CacheStats().Bytes)
	budget := probeBytes*2 + probeBytes/2 // ~2.5 entries, tolerant of size jitter

	c := NewCache(inner, budget)
	first := runShard(t, c, cfg, seedRange(1, 4))
	runShard(t, c, cfg, seedRange(11, 14))
	runShard(t, c, cfg, seedRange(21, 24)) // evicts seeds 1..4

	st := c.CacheStats()
	if st.Evictions == 0 {
		t.Fatalf("Evictions = 0, want > 0 (%+v)", st)
	}
	if int64(st.Bytes) > budget {
		t.Errorf("Bytes = %d over budget %d", st.Bytes, budget)
	}

	before := st.Misses
	again := runShard(t, c, cfg, seedRange(1, 4))
	if got := c.CacheStats().Misses - before; got != 4 {
		t.Errorf("re-run of evicted seeds missed %d times, want 4", got)
	}
	for i := range first {
		if !bytes.Equal(first[i], again[i]) {
			t.Errorf("seed %d: recomputed result differs after eviction", i+1)
		}
	}
}

// TestCacheConcurrentReaders: many goroutines sweep overlapping ranges
// through one cache; every result must be byte-identical to the
// single-threaded answer. Run under -race this also exercises the
// locking.
func TestCacheConcurrentReaders(t *testing.T) {
	cfg := shortCfg(200)
	want := runShard(t, NewCache(newCountingBackend(t), 0), cfg, seedRange(1, 10))

	c := NewCache(newCountingBackend(t), 0)
	var wg sync.WaitGroup
	errs := make(chan string, 64)
	for g := 0; g < 8; g++ {
		lo := uint64(1 + g%3) // overlapping windows: [1..8], [2..9], [3..10]
		wg.Add(1)
		go func() {
			defer wg.Done()
			seeds := seedRange(lo, lo+7)
			res, err := c.Run(context.Background(), session.Shard{Config: cfg, Seeds: seeds, Parallelism: 2})
			if err != nil {
				errs <- err.Error()
				return
			}
			for i, m := range res.Metrics {
				data, err := m.MarshalBinary()
				if err != nil {
					errs <- err.Error()
					return
				}
				if !bytes.Equal(data, want[seeds[i]-1]) {
					errs <- "concurrent result differs from single-threaded bytes"
					return
				}
			}
		}()
	}
	wg.Wait()
	close(errs)
	for e := range errs {
		t.Error(e)
	}
}

// TestCacheBypassesUnwirable: a configuration that cannot be
// fingerprinted (attached trace recorder) goes straight to the inner
// backend and is counted as a bypass, never stored.
func TestCacheBypassesUnwirable(t *testing.T) {
	inner := newCountingBackend(t)
	c := NewCache(inner, 0)
	cfg := shortCfg(200)
	cfg.Trace = trace.NewRecorder(0)

	runShard(t, c, cfg, seedRange(1, 2))
	runShard(t, c, cfg, seedRange(1, 2))

	st := c.CacheStats()
	if st.Bypasses != 2 {
		t.Errorf("Bypasses = %d, want 2", st.Bypasses)
	}
	if st.Hits != 0 || st.Entries != 0 {
		t.Errorf("unwirable config reached the store: %+v", st)
	}
	if got := len(inner.simulated()); got != 4 {
		t.Errorf("inner simulated %d seeds, want 4 (no caching)", got)
	}
}

// TestCacheCancellationContract: a cancelled sub-shard still yields an
// exact contiguous prefix, with nothing reported past it even when
// later seeds sit in the cache.
func TestCacheCancellationContract(t *testing.T) {
	inner := newCountingBackend(t)
	c := NewCache(inner, 0)
	cfg := shortCfg(200)

	// Warm seeds 3..4 so a later run of 1..4 has cached results beyond
	// the cancelled prefix.
	runShard(t, c, cfg, seedRange(3, 4))

	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	res, err := c.Run(ctx, session.Shard{Config: cfg, Seeds: seedRange(1, 4)})
	if err == nil {
		t.Fatal("cancelled run returned nil error")
	}
	if res.Completed > len(res.Metrics) {
		t.Fatalf("Completed = %d beyond metrics", res.Completed)
	}
	for i, m := range res.Metrics {
		if i < res.Completed && m == nil {
			t.Errorf("metrics[%d] = nil inside completed prefix %d", i, res.Completed)
		}
		if i >= res.Completed && m != nil {
			t.Errorf("metrics[%d] != nil beyond completed prefix %d", i, res.Completed)
		}
	}
}

// TestCacheBytesAccounting: the budget counts each stored replication's
// encoded length plus 24 bytes per seed and 160 per entry, sized from
// Metrics.EncodedLen without encoding. The literal total was recorded
// when the cache stored codec bytes, so the budget's meaning is pinned
// across the change of representation.
func TestCacheBytesAccounting(t *testing.T) {
	c := NewCache(newCountingBackend(t), 0)
	scen := shortCfg(300)
	sc, err := scenario.Preset("burst", scen.Horizon)
	if err != nil {
		t.Fatal(err)
	}
	scen.Scenario = sc
	var want int64
	for _, f := range []struct {
		cfg          system.Config
		seeds, fresh []uint64
	}{
		{shortCfg(300), seedRange(1, 4), seedRange(1, 4)},
		{shortCfg(300), seedRange(3, 6), seedRange(5, 6)}, // 3..4 hit
		{scen, seedRange(1, 2), seedRange(1, 2)},
	} {
		runs := runShard(t, c, f.cfg, f.seeds)
		want += 160
		for i, s := range f.seeds {
			if slices.Contains(f.fresh, s) {
				want += int64(len(runs[i])) + 24
			}
		}
	}
	st := c.CacheStats()
	if st.Entries != 3 || int64(st.Bytes) != want {
		t.Fatalf("entries/bytes = %d/%d, want 3/%d", st.Entries, st.Bytes, want)
	}
	const pinned = 17232
	if want != pinned {
		t.Errorf("encoded total %d, recorded %d", want, pinned)
	}
}

// configRecorder wraps a backend and remembers the configuration behind
// every fingerprint it is asked to simulate.
type configRecorder struct {
	inner session.Backend

	mu   sync.Mutex
	byFP map[string]system.Config
}

func (r *configRecorder) Run(ctx context.Context, shard session.Shard) (session.ShardResult, error) {
	if fp, err := distrib.ConfigFingerprint(shard.Config); err == nil {
		r.mu.Lock()
		r.byFP[fp] = shard.Config
		r.mu.Unlock()
	}
	return r.inner.Run(ctx, shard)
}

// TestCachedResultsStayIntact: a hit hands every caller the stored
// *Metrics itself, so a consumer that wrote into a result would corrupt
// the cache for the next query. Drive the real consumers through one
// Cache, each over cold and warm seeds — service NDJSON and CSV
// responses, session Run and Stream at parallelism 1 and 4 with their
// merged series (which must give the same CSV bytes cold and all-hit)
// and OnResult hooks, the diag-stages experiment's per-stage merges,
// and fresh misses on the same warm pool — then check that every stored
// run still encodes to the bytes of a fresh simulation.
func TestCachedResultsStayIntact(t *testing.T) {
	pool := session.NewPool()
	t.Cleanup(pool.Close)
	rec := &configRecorder{inner: pool, byFP: make(map[string]system.Config)}
	svc, ts := startService(t, ServiceOptions{Backend: rec})
	c := svc.cache
	ctx := context.Background()

	for _, url := range []string{"/run", "/run?format=csv", "/run", "/run?format=csv"} {
		if code, body := postRun(t, ts.URL+url, burstSpec); code != http.StatusOK {
			t.Fatalf("%s: status %d: %s", url, code, body)
		}
	}

	sess := session.NewWithBackend(c)
	t.Cleanup(func() { sess.Close() })
	cfg := shortCfg(300)
	cfg.Nodes = 4
	sc, err := scenario.Preset("burst", cfg.Horizon)
	if err != nil {
		t.Fatal(err)
	}
	cfg.Scenario = sc
	progress := session.WithProgress(func(done, total int) {})
	wantCSV := make(map[uint64]string)
	for _, seed := range []uint64{7, 9, 7} { // 7..10 overlaps the service's seeds; the second 7 is all hits
		job := session.Job{Config: cfg, Reps: 4}
		job.Config.Seed = seed
		for _, par := range []int{1, 4} {
			opts := []session.Option{progress, session.WithParallelism(par)}
			res, err := sess.Run(ctx, job, opts...)
			if err != nil {
				t.Fatal(err)
			}
			st, err := sess.Stream(ctx, job, opts...)
			if err != nil {
				t.Fatal(err)
			}
			for range st.Items() {
			}
			streamed, err := st.Result()
			if err != nil {
				t.Fatal(err)
			}
			for _, r := range []*session.Result{res, streamed} {
				series, err := r.MergedSeries()
				if err != nil {
					t.Fatal(err)
				}
				var csv strings.Builder
				if err := series.WriteCSV(&csv); err != nil {
					t.Fatal(err)
				}
				if want, ok := wantCSV[seed]; !ok {
					wantCSV[seed] = csv.String()
				} else if csv.String() != want {
					t.Fatalf("seed %d parallelism %d: merged series CSV differs across Run, Stream and cache state", seed, par)
				}
			}
		}
	}

	diag, err := experiment.ByID("diag-stages")
	if err != nil {
		t.Fatal(err)
	}
	for range 2 {
		if _, err := diag.Run(ctx, sess, experiment.Options{Horizon: 400, Reps: 2, Seed: 3}); err != nil {
			t.Fatal(err)
		}
	}

	more := strings.Replace(burstSpec, `"seed":7`, `"seed":30`, 1)
	if code, body := postRun(t, ts.URL+"/run", more); code != http.StatusOK {
		t.Fatalf("fresh seeds: status %d: %s", code, body)
	}

	if st := c.CacheStats(); st.Hits == 0 || st.Misses == 0 {
		t.Fatalf("hits/misses = %d/%d: the consumers did not share cached results", st.Hits, st.Misses)
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	checked := 0
	for el := c.lru.Front(); el != nil; el = el.Next() {
		e := el.Value.(*entry)
		base, ok := rec.byFP[e.fp]
		if !ok {
			t.Fatalf("entry %s has no recorded configuration", e.fp)
		}
		for i, seed := range e.seeds {
			run := base
			run.Seed = seed
			fresh, err := system.RunWith(run, nil)
			if err != nil {
				t.Fatal(err)
			}
			if metricsSig(e.runs[i]) != metricsSig(fresh) {
				t.Errorf("fingerprint %s seed %d: cached result no longer matches a fresh simulation", e.fp, seed)
			}
			checked++
		}
	}
	if checked == 0 {
		t.Fatal("cache holds no results")
	}
}
