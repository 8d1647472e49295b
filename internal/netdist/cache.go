package netdist

import (
	"container/list"
	"context"
	"errors"
	"slices"
	"sync"

	"repro/internal/distrib"
	"repro/internal/obs"
	"repro/internal/session"
	"repro/internal/system"
)

// defaultCacheBytes is the cache budget when none is configured.
const defaultCacheBytes = 256 << 20

// Cache is a deterministic shard-result cache implementing
// session.Backend as middleware around another backend. Entries are
// contiguous seed runs keyed by the configuration's fingerprint
// (distrib.ConfigFingerprint), holding the *system.Metrics values the
// inner backend returned for them. A hit hands back the stored value
// itself — no copy, no decode — so it is the very result a fresh
// simulation of the same (config, seed) produced, and caching can never
// change results, only skip work. Sharing is safe because a Backend's
// results are read-only (see session.Backend): no caller mutates a
// returned Metrics.
//
// A shard is served per seed: cached seeds come from the store,
// uncovered seeds run on the inner backend as one sub-shard, and the
// fresh results are stored as new contiguous runs. Overlapping sweeps
// therefore touch the simulator only for seed ranges nobody has asked
// for yet. Eviction is LRU over whole entries, bounded by the bytes the
// entries' results would take in the system.Metrics codec
// (Metrics.EncodedLen; nothing is encoded). Configurations without a
// fingerprint (attached trace recorder, unregistered shapes) bypass the
// cache entirely.
//
// Cache is safe for concurrent use; concurrent fills of the same seeds
// are allowed (both compute, both results are identical by
// determinism, the duplicate insert is dropped).
type Cache struct {
	inner    session.Backend
	maxBytes int64

	mu        sync.Mutex
	lru       *list.List                    // *entry, front = most recently used
	index     map[string]map[uint64]seedRef // fingerprint → seed → location
	bytes     int64
	hits      uint64
	misses    uint64
	inserts   uint64
	evictions uint64
	bypasses  uint64
}

// entry is one cached contiguous seed run.
type entry struct {
	fp    string
	seeds []uint64
	runs  []*system.Metrics // runs[i] is seeds[i]'s result, shared read-only
	elem  *list.Element
}

// size is the entry's accounting footprint: its results' encoded length
// plus index and bookkeeping overhead.
func (e *entry) size() int64 {
	n := 24*int64(len(e.seeds)) + 160
	for _, m := range e.runs {
		n += int64(m.EncodedLen())
	}
	return n
}

// seedRef locates one seed inside an entry.
type seedRef struct {
	e   *entry
	idx int
}

// NewCache wraps inner with a shard-result cache bounded at maxBytes,
// counted as the results' Metrics codec length (<= 0 picks 256 MiB).
func NewCache(inner session.Backend, maxBytes int64) *Cache {
	if maxBytes <= 0 {
		maxBytes = defaultCacheBytes
	}
	return &Cache{
		inner:    inner,
		maxBytes: maxBytes,
		lru:      list.New(),
		index:    make(map[string]map[uint64]seedRef),
	}
}

// Unwrap exposes the inner backend so Snapshot facet collection sees
// through the cache.
func (c *Cache) Unwrap() session.Backend { return c.inner }

// Run implements session.Backend: serve what the cache holds, simulate
// the rest, store what was fresh.
func (c *Cache) Run(ctx context.Context, shard session.Shard) (session.ShardResult, error) {
	fp, err := distrib.ConfigFingerprint(shard.Config)
	if err != nil {
		if !errors.Is(err, distrib.ErrNotWirable) {
			return session.ShardResult{}, err
		}
		c.mu.Lock()
		c.bypasses++
		c.mu.Unlock()
		return c.inner.Run(ctx, shard)
	}
	n := len(shard.Seeds)
	metrics := make([]*system.Metrics, n)
	var missIdx []int
	c.mu.Lock()
	bySeed := c.index[fp]
	for i, seed := range shard.Seeds {
		if ref, ok := bySeed[seed]; ok {
			c.lru.MoveToFront(ref.e.elem)
			metrics[i] = ref.e.runs[ref.idx]
		} else {
			missIdx = append(missIdx, i)
		}
	}
	c.hits += uint64(n - len(missIdx))
	c.misses += uint64(len(missIdx))
	c.mu.Unlock()

	if shard.OnResult != nil {
		for i, m := range metrics {
			if m != nil {
				shard.OnResult(i, m)
			}
		}
	}

	var runErr error
	if len(missIdx) > 0 {
		seeds := make([]uint64, len(missIdx))
		for j, i := range missIdx {
			seeds[j] = shard.Seeds[i]
		}
		sub := session.Shard{
			Config:      shard.Config,
			Seeds:       seeds,
			Parallelism: shard.Parallelism,
		}
		if onResult := shard.OnResult; onResult != nil {
			sub.OnResult = func(j int, m *system.Metrics) { onResult(missIdx[j], m) }
		}
		res, err := c.inner.Run(ctx, sub)
		if err != nil && !isCancellation(err) {
			return session.ShardResult{}, err
		}
		runErr = err
		for j, m := range res.Metrics {
			if m != nil && j < len(missIdx) {
				metrics[missIdx[j]] = m
			}
		}
		c.store(fp, seeds, res.Metrics)
	}

	completed := 0
	for completed < n && metrics[completed] != nil {
		completed++
	}
	if runErr != nil {
		// The cancellation contract: results form an exact contiguous
		// seed prefix. Cached results beyond the prefix are real, but
		// callers are promised nil there — they stay in the cache for
		// the retry instead.
		for i := completed; i < n; i++ {
			metrics[i] = nil
		}
	}
	return session.ShardResult{Metrics: metrics, Completed: completed}, runErr
}

// store splits freshly computed results into maximal contiguous seed
// runs and inserts each.
func (c *Cache) store(fp string, seeds []uint64, runs []*system.Metrics) {
	if len(runs) > len(seeds) {
		runs = runs[:len(seeds)]
	}
	for start := 0; start < len(runs); {
		if runs[start] == nil {
			start++
			continue
		}
		end := start + 1
		for end < len(runs) && runs[end] != nil && seeds[end] == seeds[end-1]+1 {
			end++
		}
		c.insert(fp, seeds[start:end], runs[start:end])
		start = end
	}
}

// insert stores one contiguous run and evicts LRU entries while over
// budget. The entry being inserted is never evicted by its own insert.
func (c *Cache) insert(fp string, seeds []uint64, runs []*system.Metrics) {
	c.mu.Lock()
	defer c.mu.Unlock()
	bySeed := c.index[fp]
	if bySeed == nil {
		bySeed = make(map[uint64]seedRef)
		c.index[fp] = bySeed
	} else {
		fresh := false
		for _, s := range seeds {
			if _, ok := bySeed[s]; !ok {
				fresh = true
				break
			}
		}
		if !fresh {
			return // a concurrent fill already covers every seed
		}
	}
	// Clone runs too: the inner backend's slice may hold other entries'
	// results, which an eviction must be able to release.
	e := &entry{fp: fp, seeds: slices.Clone(seeds), runs: slices.Clone(runs)}
	e.elem = c.lru.PushFront(e)
	for i, s := range e.seeds {
		bySeed[s] = seedRef{e: e, idx: i}
	}
	c.bytes += e.size()
	c.inserts++
	for c.bytes > c.maxBytes {
		last := c.lru.Back()
		if last == nil || last == e.elem {
			break
		}
		c.removeLocked(last.Value.(*entry))
		c.evictions++
	}
}

// removeLocked drops an entry from the LRU list, the index, and the
// byte accounting. Caller holds c.mu.
func (c *Cache) removeLocked(e *entry) {
	c.lru.Remove(e.elem)
	if bySeed := c.index[e.fp]; bySeed != nil {
		for _, s := range e.seeds {
			if ref, ok := bySeed[s]; ok && ref.e == e {
				delete(bySeed, s)
			}
		}
		if len(bySeed) == 0 {
			delete(c.index, e.fp)
		}
	}
	c.bytes -= e.size()
}

// CacheStats implements the session.CacheStatser facet.
func (c *Cache) CacheStats() obs.CacheStats {
	c.mu.Lock()
	defer c.mu.Unlock()
	return obs.CacheStats{
		Hits:      c.hits,
		Misses:    c.misses,
		Inserts:   c.inserts,
		Evictions: c.evictions,
		Bypasses:  c.bypasses,
		Entries:   uint64(c.lru.Len()),
		Bytes:     uint64(c.bytes),
	}
}

// isCancellation mirrors the session package's test.
func isCancellation(err error) bool {
	return errors.Is(err, context.Canceled) || errors.Is(err, context.DeadlineExceeded)
}
