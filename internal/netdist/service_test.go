package netdist

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strconv"
	"strings"
	"sync"
	"testing"

	"repro/internal/system"
)

func startService(t *testing.T, opts ServiceOptions) (*Service, *httptest.Server) {
	t.Helper()
	svc := NewService(opts)
	ts := httptest.NewServer(svc.Handler())
	t.Cleanup(func() {
		ts.Close()
		svc.Close()
	})
	return svc, ts
}

func postRun(t *testing.T, url, body string) (int, string) {
	t.Helper()
	resp, err := http.Post(url, "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return resp.StatusCode, string(data)
}

const burstSpec = `{"preset":"burst","horizon":300,"nodes":4,"seed":7,"reps":4}`

// TestServiceStreamDeterministic: the same job spec posted twice
// returns byte-identical NDJSON — the second pass served from the
// shard-result cache with the session kept warm.
func TestServiceStreamDeterministic(t *testing.T) {
	svc, ts := startService(t, ServiceOptions{})

	code, first := postRun(t, ts.URL+"/run", burstSpec)
	if code != http.StatusOK {
		t.Fatalf("first run: status %d: %s", code, first)
	}
	code, second := postRun(t, ts.URL+"/run", burstSpec)
	if code != http.StatusOK {
		t.Fatalf("second run: status %d: %s", code, second)
	}
	if first != second {
		t.Errorf("bodies differ:\n--- first ---\n%s--- second ---\n%s", first, second)
	}

	lines := strings.Split(strings.TrimRight(first, "\n"), "\n")
	if len(lines) != 5 { // 4 replications + final aggregate
		t.Fatalf("got %d NDJSON lines, want 5:\n%s", len(lines), first)
	}
	var prevSeed uint64
	for i, line := range lines[:4] {
		var item runItem
		if err := json.Unmarshal([]byte(line), &item); err != nil {
			t.Fatalf("line %d: %v", i, err)
		}
		if item.Index != i {
			t.Errorf("line %d: index = %d, want %d (seed order)", i, item.Index, i)
		}
		if i > 0 && item.Seed != prevSeed+1 {
			t.Errorf("line %d: seed = %d, want %d", i, item.Seed, prevSeed+1)
		}
		prevSeed = item.Seed
	}
	var final runFinal
	if err := json.Unmarshal([]byte(lines[4]), &final); err != nil {
		t.Fatal(err)
	}
	if !final.Final || final.Reps != 4 || final.Partial {
		t.Errorf("final line = %+v, want final, 4 reps, not partial", final)
	}

	snap := svc.Snapshot()
	if snap.Cache == nil || snap.Cache.Hits == 0 {
		t.Errorf("Snapshot.Cache = %+v, want hits > 0 after repeat run", snap.Cache)
	}
	if snap.Session.JobsFinished != 2 {
		t.Errorf("JobsFinished = %d, want 2", snap.Session.JobsFinished)
	}
}

// TestServiceCSVDeterministic: the CSV format returns the merged
// scenario series, byte-identical across fresh and cached runs.
func TestServiceCSVDeterministic(t *testing.T) {
	_, ts := startService(t, ServiceOptions{})

	code, first := postRun(t, ts.URL+"/run?format=csv", burstSpec)
	if code != http.StatusOK {
		t.Fatalf("csv run: status %d: %s", code, first)
	}
	if !strings.HasPrefix(first, "t_start,") {
		t.Errorf("csv body does not open with a header: %q", first[:min(len(first), 40)])
	}
	code, second := postRun(t, ts.URL+"/run?format=csv", burstSpec)
	if code != http.StatusOK {
		t.Fatalf("second csv run: status %d", code)
	}
	if first != second {
		t.Error("CSV differs between fresh and cached runs")
	}
}

// TestServiceConcurrentClients: many clients posting overlapping specs
// stream concurrently from shared warm sessions; each must read the
// same bytes a lone client would.
func TestServiceConcurrentClients(t *testing.T) {
	_, ts := startService(t, ServiceOptions{})

	_, want := postRun(t, ts.URL+"/run", burstSpec)
	var wg sync.WaitGroup
	errs := make(chan string, 8)
	for g := 0; g < 6; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			resp, err := http.Post(ts.URL+"/run", "application/json", strings.NewReader(burstSpec))
			if err != nil {
				errs <- err.Error()
				return
			}
			defer resp.Body.Close()
			body, err := io.ReadAll(resp.Body)
			if err != nil {
				errs <- err.Error()
				return
			}
			if string(body) != want {
				errs <- "concurrent client read different bytes"
			}
		}()
	}
	wg.Wait()
	close(errs)
	for e := range errs {
		t.Error(e)
	}
}

// TestServiceBadRequests: malformed specs and methods fail fast with
// 4xx, not a stream.
func TestServiceBadRequests(t *testing.T) {
	_, ts := startService(t, ServiceOptions{})

	cases := []struct {
		name, body, format string
		wantCode           int
	}{
		{"bad json", `{"preset":`, "", http.StatusBadRequest},
		{"unknown field", `{"presett":"burst"}`, "", http.StatusBadRequest},
		{"unknown preset", `{"preset":"nope","horizon":100}`, "", http.StatusBadRequest},
		{"preset and spec", `{"preset":"burst","spec":{"name":"x"},"horizon":100}`, "", http.StatusBadRequest},
		{"negative reps", `{"preset":"burst","horizon":100,"reps":-1}`, "", http.StatusBadRequest},
		{"bad format", `{"preset":"burst","horizon":100}`, "wat", http.StatusBadRequest},
		{"csv without scenario", `{"horizon":100,"reps":1}`, "csv", http.StatusBadRequest},
	}
	for _, tc := range cases {
		url := ts.URL + "/run"
		if tc.format != "" {
			url += "?format=" + tc.format
		}
		if code, body := postRun(t, url, tc.body); code != tc.wantCode {
			t.Errorf("%s: status = %d, want %d (%s)", tc.name, code, tc.wantCode, body)
		}
	}

	// The event queue is the engine's own choice: a spec naming one is
	// an unknown field, rejected by name.
	if code, msg := postRun(t, ts.URL+"/run", `{"preset":"burst","queue":"ladder"}`); code != http.StatusBadRequest || !strings.Contains(msg, `"queue"`) {
		t.Errorf("queue field: status %d, body %q; want 400 naming the unknown field", code, msg)
	}

	// A negative number is rejected by name, never replaced by the
	// baseline; zero still takes the baseline.
	for _, field := range []string{"horizon", "nodes", "load", "reps", "parallelism"} {
		code, msg := postRun(t, ts.URL+"/run", fmt.Sprintf(`{"preset":"burst",%q:-3}`, field))
		if code != http.StatusBadRequest || !strings.Contains(msg, field) {
			t.Errorf("negative %s: status %d, body %q; want 400 naming the field", field, code, msg)
		}
	}
	zeros := `{"preset":"burst","horizon":100,"nodes":0,"load":0,"reps":1,"parallelism":0}`
	if code, body := postRun(t, ts.URL+"/run", zeros); code != http.StatusOK {
		t.Errorf("zero-valued fields: status %d, want 200 (%s)", code, body)
	}

	resp, err := http.Get(ts.URL + "/run")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusMethodNotAllowed {
		t.Errorf("GET /run: status = %d, want 405", resp.StatusCode)
	}
}

// TestServiceRejectsOversizedTopology: a job whose node count could
// exhaust the engine's pending-event capacity is refused with the
// limit named in the error, and the service keeps serving — before the
// limit was validated such a job panicked inside the engine and took
// the whole process down.
func TestServiceRejectsOversizedTopology(t *testing.T) {
	_, ts := startService(t, ServiceOptions{})
	body := fmt.Sprintf(`{"horizon":10,"nodes":%d,"reps":1}`, system.MaxNodes+1)
	code, msg := postRun(t, ts.URL+"/run", body)
	if code != http.StatusBadRequest || !strings.Contains(msg, strconv.Itoa(system.MaxNodes)) {
		t.Fatalf("oversized topology: status %d, body %q; want 400 naming the limit %d", code, msg, system.MaxNodes)
	}
	if code, msg := postRun(t, ts.URL+"/run", burstSpec); code != http.StatusOK || strings.Contains(msg, `"error"`) {
		t.Fatalf("service stopped serving after the rejected job: status %d, body %q", code, msg)
	}
}

// TestServiceEndpoints: liveness and metrics surface, including the
// cache series.
func TestServiceEndpoints(t *testing.T) {
	_, ts := startService(t, ServiceOptions{})

	resp, err := http.Get(ts.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Errorf("/healthz: status %d", resp.StatusCode)
	}

	postRun(t, ts.URL+"/run", burstSpec)
	postRun(t, ts.URL+"/run", burstSpec)

	resp, err = http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	for _, want := range []string{
		"repro_cache_hits_total", "repro_cache_misses_total",
		"repro_cache_entries", "repro_engine_events_fired_total",
		"repro_session_jobs_finished_total",
	} {
		if !bytes.Contains(body, []byte(want)) {
			t.Errorf("/metrics missing %s", want)
		}
	}
}

// TestServiceSessionRotation: the warm-session table is bounded;
// rotated-out sessions fold their counters into the service totals so
// JobsFinished never regresses.
func TestServiceSessionRotation(t *testing.T) {
	svc, ts := startService(t, ServiceOptions{MaxSessions: 1})

	specs := []string{
		burstSpec,
		`{"preset":"burst","horizon":300,"nodes":5,"seed":7,"reps":2}`,
		`{"preset":"burst","horizon":300,"nodes":6,"seed":7,"reps":2}`,
	}
	for _, spec := range specs {
		if code, body := postRun(t, ts.URL+"/run", spec); code != http.StatusOK {
			t.Fatalf("status %d: %s", code, body)
		}
	}
	snap := svc.Snapshot()
	if snap.Session.JobsFinished != uint64(len(specs)) {
		t.Errorf("JobsFinished = %d after rotation, want %d", snap.Session.JobsFinished, len(specs))
	}

	// The original spec must still replay byte-identically on a fresh
	// session (results come from the shared cache).
	_, first := postRun(t, ts.URL+"/run", specs[0])
	_, second := postRun(t, ts.URL+"/run", specs[0])
	if first != second {
		t.Error("replay after session rotation differs")
	}
	if hits := svc.Snapshot().Cache.Hits; hits == 0 {
		t.Error("no cache hits across rotated sessions")
	}
}
