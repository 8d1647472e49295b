package main

import (
	"bytes"
	"context"
	"encoding/gob"
	"encoding/json"
	"fmt"
	"io"
	"math/rand/v2"
	"net"
	"net/http"
	"net/http/httptest"
	"runtime"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"repro"
	"repro/internal/netdist"
	"repro/internal/obs"
	"repro/internal/scenario"
	"repro/internal/session"
	"repro/internal/system"
)

// meteredBackend wraps a backend: it counts the simulated tasks
// (LocalDone+GlobalDone) of every replication the backend returns, times
// every shard when timeShards is set, and records a span per shard in
// the traced mode. Unwrap keeps the wrapped backend's stats facets
// visible to snapshots.
type meteredBackend struct {
	inner      session.Backend
	name       string
	spans      *spanLog
	timeShards bool
	tasks      atomic.Uint64
	mu         sync.Mutex
	runMs      []float64
}

func (b *meteredBackend) Run(ctx context.Context, sh session.Shard) (session.ShardResult, error) {
	parent, req := spanFrom(ctx)
	id := b.spans.begin(b.name, parent, req)
	start := time.Now()
	res, err := b.inner.Run(ctx, sh)
	ms := msSince(start)
	b.spans.end(id)
	for _, m := range res.Metrics[:res.Completed] {
		b.tasks.Add(uint64(m.LocalDone + m.GlobalDone))
	}
	if b.timeShards {
		b.mu.Lock()
		b.runMs = append(b.runMs, ms)
		b.mu.Unlock()
	}
	return res, err
}

func (b *meteredBackend) Unwrap() session.Backend { return b.inner }

// takeRunMs returns the shard times recorded since the last call.
func (b *meteredBackend) takeRunMs() []float64 {
	b.mu.Lock()
	defer b.mu.Unlock()
	out := b.runMs
	b.runMs = nil
	return out
}

func poolStats(b session.Backend) obs.PoolStats {
	var snap obs.Snapshot
	session.CollectBackendStats(b, &snap)
	return snap.Session.Pool
}

// sameMetrics compares two replications by their gob encoding, which
// carries every float as its exact bits (NaN included, where == fails).
func sameMetrics(a, b *system.Metrics) bool {
	if a == nil || b == nil {
		return false
	}
	var x, y bytes.Buffer
	if gob.NewEncoder(&x).Encode(a) != nil || gob.NewEncoder(&y).Encode(b) != nil {
		return false
	}
	return bytes.Equal(x.Bytes(), y.Bytes())
}

// ---- paper-sweep ---------------------------------------------------------

// sweepArtifacts is the paper's artifact set. table1 renders parameters
// only, in tens of microseconds; it comes last so that it does not run
// on the caches the GC before each pass has just swept.
var sweepArtifacts = []string{"fig2a", "fig2b", "fig3", "fig4", "combined", "table1"}

const (
	// sweepHorizon is the reduced per-replication horizon: short enough
	// that a window holds about eighty passes, so the medians rest on
	// hundreds of samples.
	sweepHorizon = 4000
	// The timed passes run one worker. On a shared 2-vCPU machine a
	// second worker's speed depended on the host: pass times switched
	// between two levels 25% apart for seconds at a time, while one
	// worker held within 3%. The traced mode measures the two-worker
	// balance on its own (sweepBalance).
	sweepParallelism = 1
	// refParallelism is the parallelism of the reference pass, whose
	// bytes every timed pass must match.
	refParallelism = 2
)

func sweepOptions(seed uint64, parallelism int) repro.ExperimentOptions {
	return repro.ExperimentOptions{Horizon: sweepHorizon, Reps: 1, Seed: 1 + seed, Parallelism: parallelism}
}

// sweepCapture is the replication the traced mode records for the layer
// replays: the Table 1 baseline under EQF, long enough to give the
// replays a few tens of thousands of tasks.
func sweepCapture(seed uint64) system.Config {
	cfg := system.Baseline()
	cfg.SSP = "EQF"
	cfg.Horizon = 10 * sweepHorizon
	cfg.Seed = 1 + seed
	return cfg
}

// sweepPass regenerates the artifact set once. out[i] is artifact i's
// rendered output (table1's notes, each figure's CSV); lat, when non-nil,
// receives each experiment call's latency.
func sweepPass(sess *repro.Session, o repro.ExperimentOptions, spans *spanLog, req uint64,
	lat func(i int, ms float64)) ([]string, error) {
	out := make([]string, len(sweepArtifacts))
	pass := spans.begin("sweep.pass", 0, req)
	defer spans.end(pass)
	for i, id := range sweepArtifacts {
		sp := spans.begin("experiment", pass, req)
		start := time.Now()
		res, err := sess.Experiment(withSpan(context.Background(), sp, req), id, o)
		ms := msSince(start)
		spans.end(sp)
		if err != nil {
			return nil, fmt.Errorf("%s: %w", id, err)
		}
		if lat != nil {
			lat(i, ms)
		}
		out[i] = res.Notes + repro.RenderCSV(res.Figure)
	}
	return out, nil
}

// runSweep regenerates the paper's artifact set again and again through
// one warm session over the in-process pool. Every pass must render the
// bytes of the warm-up pass, and so must a reference pass at another
// parallelism after the window.
func runSweep(p params) (*famResult, error) {
	r := newFamResult(len(sweepArtifacts), minMissSamples, sweepCapture(p.seed))
	opts := sweepOptions(p.seed, sweepParallelism)
	var (
		sess    *repro.Session
		backend *meteredBackend
		want    []string
	)
	for i := 0; i < p.setups; i++ {
		if sess != nil {
			sess.Close()
		}
		runtime.GC()
		start := time.Now()
		backend = &meteredBackend{inner: session.NewPool(), name: "session.pool", spans: p.spans}
		sess = repro.NewSessionWithBackend(backend)
		out, err := sweepPass(sess, opts, nil, 0, nil)
		if err != nil {
			sess.Close()
			return nil, fmt.Errorf("warm-up pass: %w", err)
		}
		r.setup = append(r.setup, time.Since(start).Seconds())
		want = out
	}
	defer sess.Close()
	r.tasksPerPass = backend.tasks.Swap(0)
	// The sweep's heap creeps up by about 45 KB a pass (see README.md), so
	// it is read once the warm-up pass is done, not after a timed pass.
	r.heapBytes = heapLive()

	pool0 := poolStats(backend)
	start := time.Now()
	for pass := 0; r.more(start, p.window, pass); pass++ {
		var (
			out []string
			err error
		)
		r.timedPass(func() {
			out, err = sweepPass(sess, opts, p.spans, uint64(pass+1), func(i int, ms float64) {
				if sweepArtifacts[i] == "table1" {
					r.hitMs = append(r.hitMs, ms)
				} else {
					r.missMs = append(r.missMs, ms)
				}
			})
		})
		tasks := backend.tasks.Swap(0)
		if !r.check(err == nil, "pass %d: %v", pass, err) {
			continue
		}
		for i := range out {
			r.check(out[i] == want[i], "pass %d: %s differs from the warm-up pass", pass, sweepArtifacts[i])
		}
		r.check(tasks == r.tasksPerPass, "pass %d: simulated %d tasks, the warm-up pass %d", pass, tasks, r.tasksPerPass)
	}
	pool1 := poolStats(backend)

	warm, cold := pool1.WarmAcquires-pool0.WarmAcquires, pool1.ColdAcquires-pool0.ColdAcquires
	r.layers["session.warm_ratio"] = metric{float64(warm) / float64(max(warm+cold, 1)), "ratio"}

	ref := repro.NewSession()
	defer ref.Close()
	out, err := sweepPass(ref, sweepOptions(p.seed, refParallelism), nil, 0, nil)
	if r.check(err == nil, "reference pass: %v", err) {
		for i := range out {
			r.check(out[i] == want[i], "%s at parallelism %d differs from parallelism %d", sweepArtifacts[i], refParallelism, sweepParallelism)
		}
	}
	return r, nil
}

// ---- scale-64k -----------------------------------------------------------

const (
	scaleNodes = 65536
	// scaleHorizon makes one replication about half a million tasks.
	scaleHorizon = 20
)

// scaleConfig is the Table 1 baseline at 65536 nodes; the default auto
// queue promotes to the ladder as the 64k arrival streams fill it.
func scaleConfig(seed uint64) system.Config {
	cfg := system.Baseline()
	cfg.Nodes, cfg.Horizon, cfg.Seed = scaleNodes, scaleHorizon, 1+seed
	return cfg
}

// runScale repeats one 65536-node replication on one warm workspace: the
// in-process pool at parallelism 1 leases the same workspace every time,
// so one ~100 MB working set is live. Each pass asks a fresh result
// cache for the replication twice: the first ask simulates (a miss), the
// second is answered from the cache (a hit). Both must equal the warm-up
// replication.
func runScale(p params) (*famResult, error) {
	cfg := scaleConfig(p.seed)
	r := newFamResult(2, 0, cfg)
	shard := session.Shard{Config: cfg, Seeds: []uint64{cfg.Seed}, Parallelism: 1}
	var (
		pool  *session.Pool
		first *system.Metrics
	)
	for i := 0; i < p.setups; i++ {
		if pool != nil {
			pool.Close()
			pool, first = nil, nil
		}
		runtime.GC()
		start := time.Now()
		pool = session.NewPool()
		res, err := pool.Run(context.Background(), shard)
		if err != nil {
			return nil, fmt.Errorf("warm-up replication: %w", err)
		}
		r.setup = append(r.setup, time.Since(start).Seconds())
		first = res.Metrics[0]
	}
	defer pool.Close()
	r.tasksPerPass = uint64(first.LocalDone + first.GlobalDone)
	backend := &meteredBackend{inner: pool, name: "session.pool", spans: p.spans}

	start := time.Now()
	for pass := 0; r.more(start, p.window, pass); pass++ {
		cache := netdist.NewCache(backend, 0)
		req := uint64(pass + 1)
		var (
			miss, hit       *system.Metrics
			missErr, hitErr error
		)
		r.timedPass(func() {
			t0 := time.Now()
			miss, missErr = ask(cache, shard, p.spans, req)
			t1 := time.Now()
			hit, hitErr = ask(cache, shard, p.spans, req)
			r.missMs = append(r.missMs, float64(t1.Sub(t0).Nanoseconds())/1e6)
			r.hitMs = append(r.hitMs, msSince(t1))
		})
		if pass == 0 {
			r.heapBytes = heapLive() // the warm workspace and one cached replication
		}
		r.check(missErr == nil && sameMetrics(miss, first), "pass %d: simulated replication differs from the warm-up run (%v)", pass, missErr)
		r.check(hitErr == nil && sameMetrics(hit, first), "pass %d: cached replication differs from the warm-up run (%v)", pass, hitErr)
		cs := cache.CacheStats()
		tasks := backend.tasks.Swap(0)
		r.check(cs.Hits == 1 && cs.Misses == 1 && tasks == r.tasksPerPass,
			"pass %d: cache %d hits, %d misses, %d tasks; want 1, 1, %d", pass, cs.Hits, cs.Misses, tasks, r.tasksPerPass)
	}
	return r, nil
}

// ask requests one single-seed shard through the cache, inside a span.
func ask(c *netdist.Cache, sh session.Shard, spans *spanLog, req uint64) (*system.Metrics, error) {
	id := spans.begin("netdist.cache", 0, req)
	defer spans.end(id)
	res, err := c.Run(withSpan(context.Background(), id, req), sh)
	if err != nil {
		return nil, err
	}
	if res.Completed != 1 {
		return nil, fmt.Errorf("cache returned %d of 1 replications", res.Completed)
	}
	return res.Metrics[0], nil
}

// ---- service -------------------------------------------------------------

const (
	// Every request is a 1024-node burst-preset job at a short horizon,
	// pinned to parallelism 1: one worker connection serves all remote
	// work, so two cores hold the clients, the service and the worker
	// without oversubscription.
	serviceNodes    = 1024
	serviceHorizon  = 40
	serviceRequests = 100 // per client and pass
)

// minMissSamples leaves 10 samples beyond miss_p90_ms on the workloads
// with several misses per pass. scale-64k has one per pass and reports
// its p90 over what its window holds; the output states the count.
const minMissSamples = 100

// reqKind says what the result cache must do with a generated request.
type reqKind int

const (
	kindHit    reqKind = iota // every seed already answered: no simulation
	kindExtend                // a known configuration with new seeds
	kindCold                  // a configuration nobody asked for yet
)

// request is one generated POST /run body and the seeds the cache must
// hit and miss when it serves it.
type request struct {
	kind         reqKind
	body         []byte
	hits, misses uint64
}

// genConfig is one client configuration and the seed run answered for
// it so far.
type genConfig struct {
	ssp  string
	load float64
	base uint64
	n    int
}

// clientSSPs gives each client its own pair of serial strategies, so the
// clients' configurations (and cache fingerprints) are disjoint and the
// hit/miss split is exact however their requests interleave.
var clientSSPs = [2][2]string{{"UD", "ED"}, {"EQS", "EQF"}}

// Per client and pass: coldRequests new configurations (the first
// request is one), extendRequests extensions of a known configuration by
// extendSeeds new seeds, and hit requests for the rest. The composition
// is fixed and only the order, the configurations picked and the seeds
// depend on the workload seed, so every seed asks for the same amount of
// work.
const (
	coldRequests   = 4
	coldSeeds      = 3
	extendRequests = 20
	extendSeeds    = 2
)

// genRequests generates a client's request list from seed: mostly
// repeats of answered seed runs (cache hits), some extensions of a known
// configuration by new seeds, and a few new configurations, each of
// which builds a cold session in the service.
func genRequests(seed uint64, client, count int) []request {
	r := rand.New(rand.NewPCG(seed, uint64(client)+1))
	kinds := make([]reqKind, count)
	for i := range kinds {
		switch {
		case i < coldRequests:
			kinds[i] = kindCold
		case i < coldRequests+extendRequests:
			kinds[i] = kindExtend
		default:
			kinds[i] = kindHit
		}
	}
	r.Shuffle(count-1, func(i, j int) { kinds[i+1], kinds[j+1] = kinds[j+1], kinds[i+1] })
	var cfgs []*genConfig
	out := make([]request, count)
	for i, kind := range kinds {
		var (
			c     *genConfig
			start uint64
			reps  int
		)
		switch kind {
		case kindCold:
			j := len(cfgs)
			c = &genConfig{ssp: clientSSPs[client][j%2], load: 0.30 + 0.05*float64(j/2), base: 1 + r.Uint64N(1<<32), n: coldSeeds}
			cfgs = append(cfgs, c)
			start, reps = c.base, coldSeeds
			out[i] = request{kind: kind, misses: coldSeeds}
		case kindExtend:
			c = cfgs[r.IntN(len(cfgs))]
			start, reps = c.base+uint64(c.n-1), extendSeeds+1
			c.n += extendSeeds
			out[i] = request{kind: kind, hits: 1, misses: extendSeeds}
		default:
			c = cfgs[r.IntN(len(cfgs))]
			reps = 1 + i%3
			start = c.base + uint64(r.IntN(c.n-reps+1))
			out[i] = request{kind: kind, hits: uint64(reps)}
		}
		// Marshalling a struct of strings and numbers cannot fail.
		out[i].body, _ = json.Marshal(netdist.JobSpec{
			Preset: "burst", Horizon: serviceHorizon, Nodes: serviceNodes,
			Load: c.load, SSP: c.ssp, Seed: start, Reps: reps, Parallelism: 1,
		})
	}
	return out
}

// serviceCapture is the replication the traced mode records: the first
// configuration of client 0, as the service builds it from a job spec.
func serviceCapture(seed uint64) (system.Config, error) {
	cfg := system.Baseline()
	cfg.Nodes, cfg.Horizon, cfg.Load, cfg.Seed = serviceNodes, serviceHorizon, 0.30, 1+seed
	sc, err := scenario.Preset("burst", cfg.Horizon)
	cfg.Scenario = sc
	return cfg, err
}

// rig is the service deployment under test: an in-process shard-worker
// server on a loopback TCP port, a NetBackend dialing it (the sdaserve
// -connect deployment), and the HTTP query service on a second loopback
// listener, reached through a keep-alive client.
type rig struct {
	workers     *netdist.Server
	workersDone chan error
	net         *netdist.NetBackend
	remote      *meteredBackend
	front       *front
	http        *http.Server
	httpDone    chan error
	client      *http.Client
	url         string
}

func startRig(spans *spanLog) (*rig, error) {
	srv, err := netdist.Listen("127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	g := &rig{workers: srv, workersDone: make(chan error, 1), front: &front{spans: spans}}
	go func() { g.workersDone <- srv.Serve() }()
	// Hedging is off: a speculative duplicate would make the work done
	// per pass depend on timing.
	if g.net, err = netdist.NewBackend(netdist.BackendOptions{Addrs: []string{srv.Addr()}, HedgeFactor: -1}); err != nil {
		g.close()
		return nil, err
	}
	g.remote = &meteredBackend{inner: g.net, name: "netdist.remote", spans: spans, timeShards: true}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		g.close()
		return nil, err
	}
	g.http = &http.Server{Handler: g.front}
	g.httpDone = make(chan error, 1)
	go func() { g.httpDone <- g.http.Serve(ln) }()
	g.client = &http.Client{Transport: &http.Transport{MaxIdleConnsPerHost: 4, DisableCompression: true}}
	g.url = "http://" + ln.Addr().String() + "/run"
	return g, nil
}

// newService puts a fresh service (empty cache, no warm sessions) behind
// the listener and closes the one it replaces.
func (g *rig) newService() *netdist.Service {
	svc := netdist.NewService(netdist.ServiceOptions{Backend: g.remote, CacheBytes: 256 << 20, MaxSessions: 4 * coldRequests})
	if old := g.front.swap(svc); old != nil {
		old.Close()
	}
	return svc
}

// close stops everything the rig started and waits for its goroutines.
func (g *rig) close() {
	if g.http != nil {
		_ = g.http.Close()
		<-g.httpDone
	}
	if old := g.front.swap(nil); old != nil {
		old.Close()
	}
	if g.client != nil {
		g.client.CloseIdleConnections()
	}
	if g.net != nil {
		_ = g.net.Close()
	}
	_ = g.workers.Close()
	<-g.workersDone
}

// front routes requests to the current pass's service and opens the
// server-side span, parented to the client's span by request headers.
type front struct {
	spans *spanLog
	cur   atomic.Pointer[frontSvc]
}

type frontSvc struct {
	svc *netdist.Service
	h   http.Handler
}

func (f *front) swap(svc *netdist.Service) *netdist.Service {
	var next *frontSvc
	if svc != nil {
		next = &frontSvc{svc: svc, h: svc.Handler()}
	}
	if old := f.cur.Swap(next); old != nil {
		return old.svc
	}
	return nil
}

func (f *front) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	cur := f.cur.Load()
	if cur == nil {
		http.Error(w, "no service", http.StatusServiceUnavailable)
		return
	}
	// The span headers are optional: untraced requests carry none.
	parent, _ := strconv.ParseUint(r.Header.Get("X-Perfbench-Span"), 10, 64)
	req, _ := strconv.ParseUint(r.Header.Get("X-Perfbench-Req"), 10, 64)
	id := f.spans.begin("netdist.service", parent, req)
	cur.h.ServeHTTP(w, r.WithContext(withSpan(r.Context(), id, req)))
	f.spans.end(id)
}

// sample is one request's outcome.
type sample struct {
	ms     float64
	status int
	body   []byte
	err    error
}

// post sends one request and reads the whole response.
func (g *rig) post(body []byte, spans *spanLog, req uint64) sample {
	id := spans.begin("client.request", 0, req)
	defer spans.end(id)
	start := time.Now()
	hr, err := http.NewRequest(http.MethodPost, g.url, bytes.NewReader(body))
	if err != nil {
		return sample{err: err}
	}
	hr.Header.Set("Content-Type", "application/json")
	if id != 0 {
		hr.Header.Set("X-Perfbench-Span", strconv.FormatUint(id, 10))
		hr.Header.Set("X-Perfbench-Req", strconv.FormatUint(req, 10))
	}
	resp, err := g.client.Do(hr)
	if err != nil {
		return sample{err: err}
	}
	data, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	return sample{ms: msSince(start), status: resp.StatusCode, body: data, err: err}
}

// replay runs both clients' lists concurrently, each as a closed loop: a
// client sends its next request only after reading the last response.
func (g *rig) replay(lists [2][]request, spans *spanLog, pass int) [2][]sample {
	var out [2][]sample
	var wg sync.WaitGroup
	for c := range lists {
		out[c] = make([]sample, len(lists[c]))
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			for i, rq := range lists[c] {
				out[c][i] = g.post(rq.body, spans, uint64(pass)<<20|uint64(c)<<16|uint64(i))
			}
		}(c)
	}
	wg.Wait()
	return out
}

// runService replays two clients' seeded request lists against the
// cached query service over one TCP worker. Each pass starts a fresh
// service, so every pass serves exactly the same hits and misses; every
// response body must match the first pass's, and the first pass's must
// match the same request served by the in-process pool after the window.
func runService(p params) (*famResult, error) {
	lists := [2][]request{genRequests(p.seed, 0, serviceRequests), genRequests(p.seed, 1, serviceRequests)}
	var wantHits, wantMisses uint64
	var hitSeeds, hitReqs float64
	for _, l := range lists {
		for _, rq := range l {
			wantHits += rq.hits
			wantMisses += rq.misses
			if rq.kind == kindHit {
				hitSeeds += float64(rq.hits)
				hitReqs++
			}
		}
	}
	capture, err := serviceCapture(p.seed)
	if err != nil {
		return nil, err
	}
	r := newFamResult(2*serviceRequests, minMissSamples, capture)

	// The warm-up request names a configuration no client uses (load
	// 0.55), so it leaves the passes' hit/miss split untouched. Its four
	// replications make set-up mostly simulation, not fixed costs.
	warm, err := json.Marshal(netdist.JobSpec{Preset: "burst", Horizon: serviceHorizon, Nodes: serviceNodes,
		Load: 0.55, Seed: 1 + p.seed, Reps: 4, Parallelism: 1})
	if err != nil {
		return nil, err
	}
	var g *rig
	for i := 0; i < p.setups; i++ {
		if g != nil {
			g.close()
		}
		runtime.GC()
		start := time.Now()
		if g, err = startRig(p.spans); err != nil {
			return nil, err
		}
		g.newService()
		if s := g.post(warm, nil, 0); s.err != nil || s.status != http.StatusOK {
			g.close()
			return nil, fmt.Errorf("warm-up request: status %d: %v", s.status, s.err)
		}
		r.setup = append(r.setup, time.Since(start).Seconds())
	}
	defer g.close()
	g.remote.tasks.Store(0)
	g.remote.takeRunMs()

	var (
		first   [2][]sample
		frames0 uint64
		svc     *netdist.Service
	)
	start := time.Now()
	for pass := 0; r.more(start, p.window, pass); pass++ {
		svc = g.newService()
		n0 := g.net.NetStats()
		var res [2][]sample
		r.timedPass(func() { res = g.replay(lists, p.spans, pass+1) })
		n1 := g.net.NetStats()
		cs := svc.Snapshot().Cache
		frames := n1.FramesSent + n1.FramesRecv - n0.FramesSent - n0.FramesRecv
		tasks := g.remote.tasks.Swap(0)
		if pass == 0 {
			first = res
			frames0, r.tasksPerPass = frames, tasks
			r.heapBytes = heapLive() // every pass fills a fresh service's cache alike
		}
		for c := range res {
			for i, s := range res[c] {
				if !r.check(s.err == nil && s.status == http.StatusOK, "pass %d client %d request %d: status %d: %v", pass, c, i, s.status, s.err) {
					continue
				}
				r.check(bytes.Equal(s.body, first[c][i].body), "pass %d client %d request %d: body differs from the first pass", pass, c, i)
				if lists[c][i].kind == kindHit {
					r.hitMs = append(r.hitMs, s.ms)
				} else {
					r.missMs = append(r.missMs, s.ms)
				}
			}
		}
		r.check(cs.Hits == wantHits && cs.Misses == wantMisses,
			"pass %d: cache served %d hits and %d misses, the generator predicts %d and %d", pass, cs.Hits, cs.Misses, wantHits, wantMisses)
		// Wire bytes are reported, not checked: done frames carry the
		// worker pool's busy seconds, a wall-clock float.
		r.check(frames == frames0 && tasks == r.tasksPerPass,
			"pass %d: %d frames, %d tasks; the first pass %d, %d", pass, frames, tasks, frames0, r.tasksPerPass)
	}
	r.layers["netdist.cache_hit_ratio"] = metric{float64(wantHits) / float64(wantHits+wantMisses), "ratio"}
	r.layers["netdist.cache_bytes"] = metric{float64(svc.Snapshot().Cache.Bytes), "B"}
	r.layers["netdist.backend_run_ms"] = metric{median(g.remote.takeRunMs()), "ms"}
	if p.spans != nil {
		if err := serviceLayers(g, r, hitSeeds/hitReqs); err != nil {
			return nil, err
		}
	}

	// NetBackend falls back to its embedded pool silently; the run only
	// measured the remote path if it never did.
	ds := g.net.DistribStats()
	r.check(ds.Fallbacks+ds.Retries+ds.HedgesWon+ds.HedgesLost+ds.Deaths+ds.Respawns == 0,
		"NetBackend left the remote path: %d fallbacks, %d retries, %d hedges, %d worker deaths",
		ds.Fallbacks, ds.Retries, ds.HedgesWon+ds.HedgesLost, ds.Deaths)

	// Reference: the same requests served on an in-process pool (its
	// cache only spares recomputing a seed already answered).
	ref := netdist.NewService(netdist.ServiceOptions{})
	defer ref.Close()
	h := ref.Handler()
	for c := range lists {
		for i, rq := range lists[c] {
			rec := httptest.NewRecorder()
			h.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/run", bytes.NewReader(rq.body)))
			r.check(rec.Code == http.StatusOK && bytes.Equal(rec.Body.Bytes(), first[c][i].body),
				"client %d request %d: body differs from the in-process reference", c, i)
		}
	}
	return r, nil
}
