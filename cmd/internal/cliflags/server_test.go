package cliflags

import (
	"io"
	"net/http"
	"strings"
	"testing"

	"repro/internal/obs"
)

func sampleSnapshot() obs.Snapshot {
	return obs.Snapshot{Engine: obs.EngineStats{EventsScheduled: 1000, EventsFired: 990}}
}

func TestServerEndpoints(t *testing.T) {
	srv, err := newServer("127.0.0.1:0", sampleSnapshot)
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()

	get := func(path string) string {
		t.Helper()
		resp, err := http.Get("http://" + srv.Addr() + path)
		if err != nil {
			t.Fatalf("GET %s: %v", path, err)
		}
		defer resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("GET %s: status %d", path, resp.StatusCode)
		}
		body, err := io.ReadAll(resp.Body)
		if err != nil {
			t.Fatalf("GET %s: %v", path, err)
		}
		return string(body)
	}

	if body := get("/metrics"); !strings.Contains(body, "repro_engine_events_fired_total 990") {
		t.Errorf("/metrics missing engine series:\n%s", body)
	} else {
		for _, series := range []string{
			"repro_runtime_heap_inuse_bytes",
			"repro_runtime_heap_alloc_bytes",
			"repro_runtime_gc_cycles_total",
			"repro_runtime_gc_pause_seconds_total",
		} {
			if !strings.Contains(body, series+" ") {
				t.Errorf("/metrics missing runtime series %s", series)
			}
		}
	}
	if body := get("/debug/pprof/"); !strings.Contains(body, "goroutine") {
		t.Errorf("/debug/pprof/ index looks wrong:\n%.200s", body)
	}
	if body := get("/debug/vars"); !strings.Contains(body, `"repro"`) ||
		!strings.Contains(body, `"EventsScheduled":1000`) {
		t.Errorf("/debug/vars missing the repro snapshot:\n%.400s", body)
	}
}

func TestServerBadAddr(t *testing.T) {
	if _, err := newServer("definitely-not-an-addr:nope", sampleSnapshot); err == nil {
		t.Fatal("want error for an unbindable address")
	}
	if _, err := newServer("127.0.0.1:0", nil); err == nil {
		t.Fatal("want error for a nil snapshot function")
	}
}
