package netdist

import (
	"container/list"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"sync"

	"repro/internal/distrib"
	"repro/internal/obs"
	"repro/internal/scenario"
	"repro/internal/session"
	"repro/internal/system"
)

// ServiceOptions configures a Service.
type ServiceOptions struct {
	// Backend is the execution transport every session runs on — a
	// NetBackend for remote workers, a ProcBackend for local processes,
	// nil for a shared in-process pool. The service does not close a
	// caller-provided backend.
	Backend session.Backend
	// CacheBytes is the shard-result cache budget: 0 picks 256 MiB,
	// negative disables caching.
	CacheBytes int64
	// MaxSessions bounds the per-fingerprint session table, which holds
	// run counters only; least-recently-used sessions are retired beyond
	// it. 0 means 32.
	MaxSessions int
}

func (o ServiceOptions) maxSessions() int {
	if o.MaxSessions <= 0 {
		return 32
	}
	return o.MaxSessions
}

// Service is the long-running query front end: it accepts JSON job
// specs over HTTP, keys a session.Session per configuration fingerprint,
// fronts every session with one shared deterministic shard-result
// cache, and streams per-replication results to each client in seed
// order as they finish. Every session runs on the one shared backend,
// so a session holds only run counters: warm workspaces live in the
// backend's pool (or its workers' pools) and serve every query,
// whatever its fingerprint.
//
// Determinism carries through: the response body for a given job spec
// is byte-identical whether results came from fresh simulation, the
// cache, remote workers, or any mix — so clients may cache, diff, and
// replay responses freely.
type Service struct {
	opts    ServiceOptions
	backend session.Backend // what sessions run on (cache-wrapped unless disabled)
	ownPool *session.Pool   // set when no backend was provided

	mu       sync.Mutex
	sessions map[string]*list.Element
	order    *list.List // *sessEntry, front = most recently used
	closed   bool
	// retired accumulates the engine/session counters of sessions
	// dropped from the table, so service-level totals never move
	// backwards when a session retires.
	retiredEngine  obs.EngineStats
	retiredSession obs.SessionStats
}

// sessEntry is one session keyed by config fingerprint.
type sessEntry struct {
	fp   string
	sess *session.Session
}

// NewService builds a service over the given transport.
func NewService(opts ServiceOptions) *Service {
	s := &Service{
		opts:     opts,
		sessions: make(map[string]*list.Element),
		order:    list.New(),
	}
	inner := opts.Backend
	if inner == nil {
		s.ownPool = session.NewPool()
		inner = s.ownPool
	}
	s.backend = inner
	if opts.CacheBytes >= 0 {
		s.backend = NewCache(inner, opts.CacheBytes)
	}
	return s
}

// Close retires every session and the service's own pool (a
// caller-provided backend stays open). In-flight requests on retired
// sessions fail; Close is meant for shutdown, not rotation.
func (s *Service) Close() error {
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return nil
	}
	s.closed = true
	var sessions []*session.Session
	for el := s.order.Front(); el != nil; el = el.Next() {
		sessions = append(sessions, el.Value.(*sessEntry).sess)
	}
	s.sessions = make(map[string]*list.Element)
	s.order = list.New()
	s.mu.Unlock()
	for _, sess := range sessions {
		_ = sess.Close()
	}
	if s.ownPool != nil {
		s.ownPool.Close()
	}
	return nil
}

// sessionFor returns the session for a fingerprint, creating it on
// first use and retiring the least-recently-used session beyond the
// table bound. A session holds only run counters, not workspaces, which
// live in the shared backend: a retired session's counters fold into
// the service totals, and its in-flight requests finish on the shared
// backend.
func (s *Service) sessionFor(fp string) (*session.Session, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return nil, errors.New("netdist: service closed")
	}
	if el, ok := s.sessions[fp]; ok {
		s.order.MoveToFront(el)
		return el.Value.(*sessEntry).sess, nil
	}
	sess := session.NewWithBackend(s.backend)
	s.sessions[fp] = s.order.PushFront(&sessEntry{fp: fp, sess: sess})
	for len(s.sessions) > s.opts.maxSessions() {
		last := s.order.Back()
		se := last.Value.(*sessEntry)
		s.order.Remove(last)
		delete(s.sessions, se.fp)
		sub := se.sess.Snapshot()
		s.retiredEngine.Merge(sub.Engine)
		s.retiredSession.JobsStarted += sub.Session.JobsStarted
		s.retiredSession.JobsFinished += sub.Session.JobsFinished
		s.retiredSession.ReplicationsCompleted += sub.Session.ReplicationsCompleted
	}
	return sess, nil
}

// Snapshot aggregates runtime metrics across every session (plus
// retired ones), with the shared backend's pool/distrib/net/cache
// facets counted exactly once.
func (s *Service) Snapshot() obs.Snapshot {
	var snap obs.Snapshot
	s.mu.Lock()
	var sessions []*session.Session
	for el := s.order.Front(); el != nil; el = el.Next() {
		sessions = append(sessions, el.Value.(*sessEntry).sess)
	}
	snap.Engine = s.retiredEngine
	retired := s.retiredSession
	s.mu.Unlock()
	snap.Session.JobsStarted = retired.JobsStarted
	snap.Session.JobsFinished = retired.JobsFinished
	snap.Session.ReplicationsCompleted = retired.ReplicationsCompleted
	for _, sess := range sessions {
		sub := sess.Snapshot()
		snap.Engine.Merge(sub.Engine)
		snap.Session.JobsStarted += sub.Session.JobsStarted
		snap.Session.JobsFinished += sub.Session.JobsFinished
		snap.Session.ReplicationsCompleted += sub.Session.ReplicationsCompleted
		snap.Session.ReplicationsInFlight += sub.Session.ReplicationsInFlight
	}
	session.CollectBackendStats(s.backend, &snap)
	return snap
}

// JobSpec is the JSON body of a /run request. Zero fields take the
// paper's baseline and negative numbers are rejected; exactly one of
// Preset and Spec may name a scenario (both empty runs the stationary
// workload, which has no CSV series).
type JobSpec struct {
	// Preset names a built-in scenario; Spec embeds a declarative one.
	Preset string         `json:"preset,omitempty"`
	Spec   *scenario.Spec `json:"spec,omitempty"`
	// Horizon is simulated time units per replication.
	Horizon float64 `json:"horizon,omitempty"`
	Nodes   int     `json:"nodes,omitempty"`
	Load    float64 `json:"load,omitempty"`
	SSP     string  `json:"ssp,omitempty"`
	PSP     string  `json:"psp,omitempty"`
	// Seed is the base seed (replication i uses Seed+i); Reps the
	// replication count.
	Seed uint64 `json:"seed,omitempty"`
	Reps int    `json:"reps,omitempty"`
	// Parallelism bounds workers per job; 0 uses every core.
	Parallelism int `json:"parallelism,omitempty"`
}

// MaxJobReps bounds a /run request's replication count. A job lists its
// seeds up front, so an unbounded count would let one small request
// allocate without limit; ten thousand is far above any study here.
const MaxJobReps = 10000

// buildJob translates a spec into a runnable job.
func buildJob(spec JobSpec) (session.Job, error) {
	for _, f := range []struct {
		name string
		v    float64
	}{
		{"horizon", spec.Horizon},
		{"nodes", float64(spec.Nodes)},
		{"load", spec.Load},
		{"reps", float64(spec.Reps)},
		{"parallelism", float64(spec.Parallelism)},
	} {
		if f.v < 0 {
			return session.Job{}, fmt.Errorf("%s = %v, want >= 0 (0 takes the default)", f.name, f.v)
		}
	}
	if spec.Reps > MaxJobReps {
		return session.Job{}, fmt.Errorf("reps = %d, limit %d", spec.Reps, MaxJobReps)
	}
	cfg := system.Baseline()
	if spec.Horizon > 0 {
		cfg.Horizon = spec.Horizon
	}
	if spec.Nodes > 0 {
		cfg.Nodes = spec.Nodes
	}
	if spec.Load > 0 {
		cfg.Load = spec.Load
	}
	if spec.SSP != "" {
		cfg.SSP = spec.SSP
	}
	if spec.PSP != "" {
		cfg.PSP = spec.PSP
	}
	if spec.Seed != 0 {
		cfg.Seed = spec.Seed
	}
	if spec.Preset != "" && spec.Spec != nil {
		return session.Job{}, errors.New("use preset or spec, not both")
	}
	var sc *scenario.Scenario
	var err error
	switch {
	case spec.Preset != "":
		sc, err = scenario.Preset(spec.Preset, cfg.Horizon)
	case spec.Spec != nil:
		sc, err = scenario.New(*spec.Spec)
	}
	if err != nil {
		return session.Job{}, err
	}
	cfg.Scenario = sc
	// Reject what no replication could run before the request reaches a
	// session: an invalid spec costs one error line, not a job.
	if err := cfg.Validate(); err != nil {
		return session.Job{}, err
	}
	return session.Job{Config: cfg, Reps: spec.Reps}, nil
}

// Handler returns the service's HTTP mux:
//
//	POST /run      — run a JobSpec; NDJSON stream by default,
//	                 ?format=csv for the merged scenario time series
//	GET  /healthz  — liveness
//	GET  /metrics  — the aggregated Snapshot in Prometheus format
func (s *Service) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("/run", s.handleRun)
	mux.HandleFunc("/healthz", func(w http.ResponseWriter, r *http.Request) {
		io.WriteString(w, "ok\n")
	})
	mux.HandleFunc("/metrics", func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
		if err := s.Snapshot().WritePrometheus(w); err != nil {
			return
		}
		_ = obs.ReadRuntime().WritePrometheus(w)
	})
	return mux
}

// runItem is one streamed replication line.
type runItem struct {
	Index         int     `json:"index"`
	Seed          uint64  `json:"seed"`
	LocalMissPct  float64 `json:"localMissPct"`
	GlobalMissPct float64 `json:"globalMissPct"`
}

// runEstimate is a JSON view of a stats.Estimate.
type runEstimate struct {
	Mean   float64 `json:"mean"`
	HalfCI float64 `json:"halfCI"`
}

// runFinal is the closing aggregate line of an NDJSON response.
type runFinal struct {
	Final    bool        `json:"final"`
	Reps     int         `json:"reps"`
	Partial  bool        `json:"partial,omitempty"`
	LocalMD  runEstimate `json:"localMD"`
	GlobalMD runEstimate `json:"globalMD"`
}

// runError is the terminal line of a failed run (headers are long gone
// by then, so errors travel in-band).
type runError struct {
	Error string `json:"error"`
}

func (s *Service) handleRun(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodPost {
		http.Error(w, "POST a job spec", http.StatusMethodNotAllowed)
		return
	}
	dec := json.NewDecoder(http.MaxBytesReader(w, r.Body, 1<<20))
	dec.DisallowUnknownFields()
	var spec JobSpec
	if err := dec.Decode(&spec); err != nil {
		http.Error(w, "bad job spec: "+err.Error(), http.StatusBadRequest)
		return
	}
	job, err := buildJob(spec)
	if err != nil {
		http.Error(w, "bad job spec: "+err.Error(), http.StatusBadRequest)
		return
	}
	fp, err := distrib.ConfigFingerprint(job.Config)
	if err != nil {
		http.Error(w, "bad job spec: "+err.Error(), http.StatusBadRequest)
		return
	}
	sess, err := s.sessionFor(fp)
	if err != nil {
		http.Error(w, err.Error(), http.StatusServiceUnavailable)
		return
	}
	var opts []session.Option
	if spec.Parallelism > 0 {
		opts = append(opts, session.WithParallelism(spec.Parallelism))
	}
	switch format := r.URL.Query().Get("format"); format {
	case "", "ndjson":
		s.streamRun(w, r, sess, job, opts)
	case "csv":
		s.csvRun(w, r, sess, job, opts)
	default:
		http.Error(w, fmt.Sprintf("unknown format %q (want ndjson or csv)", format), http.StatusBadRequest)
	}
}

// streamRun streams one replication line per seed, in seed order, as
// results arrive, then the final aggregate. The request context cancels
// the run when the client disconnects; claimed replications finish and
// land in the cache for the next query.
func (s *Service) streamRun(w http.ResponseWriter, r *http.Request, sess *session.Session, job session.Job, opts []session.Option) {
	st, err := sess.Stream(r.Context(), job, opts...)
	if err != nil {
		http.Error(w, err.Error(), http.StatusBadRequest)
		return
	}
	w.Header().Set("Content-Type", "application/x-ndjson")
	flusher, _ := w.(http.Flusher)
	enc := json.NewEncoder(w)
	for item := range st.Items() {
		if err := enc.Encode(runItem{
			Index:         item.Index,
			Seed:          item.Seed,
			LocalMissPct:  item.Metrics.MDLocal(),
			GlobalMissPct: item.Metrics.MDGlobal(),
		}); err != nil {
			// The client is gone; keep draining so Result() settles.
			for range st.Items() {
			}
			break
		}
		if flusher != nil {
			flusher.Flush()
		}
	}
	res, err := st.Result()
	if err != nil {
		_ = enc.Encode(runError{Error: err.Error()})
		return
	}
	_ = enc.Encode(runFinal{
		Final:    true,
		Reps:     len(res.Runs),
		Partial:  res.Partial,
		LocalMD:  runEstimate{Mean: res.LocalMD.Mean, HalfCI: res.LocalMD.HalfCI},
		GlobalMD: runEstimate{Mean: res.GlobalMD.Mean, HalfCI: res.GlobalMD.HalfCI},
	})
}

// csvRun responds with the merged scenario time series — the same
// bytes sdascn writes, byte-identical across backends and cache state.
func (s *Service) csvRun(w http.ResponseWriter, r *http.Request, sess *session.Session, job session.Job, opts []session.Option) {
	res, err := sess.Run(r.Context(), job, opts...)
	if err != nil {
		http.Error(w, err.Error(), http.StatusInternalServerError)
		return
	}
	series, err := res.MergedSeries()
	if err != nil {
		http.Error(w, err.Error(), http.StatusInternalServerError)
		return
	}
	if series == nil {
		http.Error(w, "csv format needs a scenario (preset or spec)", http.StatusBadRequest)
		return
	}
	w.Header().Set("Content-Type", "text/csv")
	_ = series.WriteCSV(w)
}
