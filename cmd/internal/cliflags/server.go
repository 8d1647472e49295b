package cliflags

import (
	"expvar"
	"fmt"
	"net"
	"net/http"
	"net/http/pprof"
	"sync"

	"repro/internal/obs"
)

// server bundles a run's live observability endpoints on one mux:
//
//	/metrics      — the snapshot in Prometheus text format
//	/debug/pprof/ — the standard runtime profiles (net/http/pprof)
//	/debug/vars   — expvar, including the snapshot as "repro"
//
// The snapshot function is called per scrape; it must be safe for
// concurrent use (Session.Snapshot is).
type server struct {
	ln  net.Listener
	srv *http.Server
}

// newServer listens on addr (host:port; ":0" picks a free port —
// read it back with Addr) and serves until Close. The listener is bound
// synchronously so a returned *server is already scrapeable.
func newServer(addr string, snapshot func() obs.Snapshot) (*server, error) {
	if snapshot == nil {
		return nil, fmt.Errorf("metrics server: nil snapshot")
	}
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return nil, fmt.Errorf("metrics server: listen %s: %w", addr, err)
	}
	publishExpvar(snapshot)

	mux := http.NewServeMux()
	mux.HandleFunc("/metrics", func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
		if err := snapshot().WritePrometheus(w); err != nil {
			return
		}
		// Process-level heap/GC gauges ride every scrape: they are
		// environmental (not part of the deterministic Snapshot), and at
		// 64k+ nodes they show live whether the working set holds steady
		// across replications.
		_ = obs.ReadRuntime().WritePrometheus(w)
	})
	mux.HandleFunc("/debug/pprof/", pprof.Index)
	mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
	mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
	mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
	mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
	mux.Handle("/debug/vars", expvar.Handler())

	s := &server{ln: ln, srv: &http.Server{Handler: mux}}
	go func() { _ = s.srv.Serve(ln) }()
	return s, nil
}

// Addr returns the bound listen address (useful with ":0").
func (s *server) Addr() string { return s.ln.Addr().String() }

// Close stops serving. In-flight scrapes are cut off; a run's final
// counters remain available through the Snapshot API, not the server.
func (s *server) Close() error { return s.srv.Close() }

// expvar registration: the process publishes one "repro" var whose
// value is the latest server's snapshot. expvar.Publish panics on
// duplicate names, so the var is registered once per process and
// re-pointed at the newest snapshot function.
var (
	expvarMu   sync.Mutex
	expvarSnap func() obs.Snapshot
	expvarOnce sync.Once
)

func publishExpvar(snapshot func() obs.Snapshot) {
	expvarMu.Lock()
	expvarSnap = snapshot
	expvarMu.Unlock()
	expvarOnce.Do(func() {
		expvar.Publish("repro", expvar.Func(func() any {
			expvarMu.Lock()
			snap := expvarSnap
			expvarMu.Unlock()
			return snap()
		}))
	})
}
