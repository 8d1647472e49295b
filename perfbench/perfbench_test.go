package main

import (
	"context"
	"encoding/json"
	"math"
	"reflect"
	"testing"
	"time"

	"repro/internal/netdist"
)

func TestPercentileNearestRank(t *testing.T) {
	xs := []float64{5, 1, 4, 2, 3, 10, 9, 8, 7, 6}
	for _, c := range []struct{ p, want float64 }{
		{0, 1}, {10, 1}, {11, 2}, {50, 5}, {90, 9}, {91, 10}, {100, 10},
	} {
		if got := percentile(xs, c.p); got != c.want {
			t.Errorf("percentile(p=%v) = %v, want %v", c.p, got, c.want)
		}
	}
	if xs[0] != 5 {
		t.Error("percentile reordered its input")
	}
	if !math.IsNaN(percentile(nil, 50)) {
		t.Error("percentile of no samples is not NaN")
	}
}

// TestBeyondCountsTheTail pins the sample-count rule for reported
// percentiles: 100 samples leave exactly 10 beyond the 90th.
func TestBeyondCountsTheTail(t *testing.T) {
	for _, c := range []struct {
		n    int
		p    float64
		want int
	}{
		{100, 90, 10}, {99, 90, 9}, {110, 90, 11}, {10, 50, 5}, {1, 90, 0}, {0, 90, 0},
	} {
		if got := beyond(c.n, c.p); got != c.want {
			t.Errorf("beyond(%d, %v) = %d, want %d", c.n, c.p, got, c.want)
		}
	}
	if minMissSamples != 100 || beyond(minMissSamples, 90) < 10 {
		t.Errorf("minMissSamples = %d leaves %d samples beyond p90, want >= 10", minMissSamples, beyond(minMissSamples, 90))
	}
}

func TestSelfTimesSubtractsCoveredChildTime(t *testing.T) {
	spans := []span{
		{ID: 1, Name: "pass", Start: 0, End: 100},
		{ID: 2, Parent: 1, Name: "exp", Start: 10, End: 50},
		{ID: 3, Parent: 1, Name: "exp", Start: 40, End: 70},  // overlaps span 2: the union is 10..70
		{ID: 4, Parent: 2, Name: "pool", Start: 20, End: 30}, // grandchild: only span 2 loses it
		{ID: 5, Parent: 1, Name: "exp", Start: 90, End: 120}, // outlives its parent: clipped to 90..100
		{ID: 6, Parent: 1, Name: "open", Start: 95, End: -1}, // never closed: skipped
	}
	got := selfTimes(spans)
	want := map[string]layerTime{
		"pass": {Count: 1, Total: 100, Self: 30},
		"exp":  {Count: 3, Total: 100, Self: 90},
		"pool": {Count: 1, Total: 10, Self: 10},
	}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("selfTimes = %+v, want %+v", got, want)
	}
}

func TestSpanLogParentsAndNilLog(t *testing.T) {
	var off *spanLog
	if id := off.begin("x", 0, 1); id != 0 {
		t.Errorf("nil log returned span id %d", id)
	}
	off.end(0)
	if off.all() != nil {
		t.Error("nil log returned spans")
	}

	l := newSpanLog()
	a := l.begin("a", 0, 7)
	b := l.begin("b", a, 7)
	time.Sleep(time.Millisecond)
	l.end(b)
	l.end(a)
	s := l.all()
	if len(s) != 2 || s[1].Parent != a || s[1].Req != 7 || s[0].End < s[1].End || s[1].End <= s[1].Start {
		t.Errorf("spans = %+v", s)
	}
	id, req := spanFrom(withSpan(context.Background(), a, 7))
	if id != a || req != 7 {
		t.Errorf("span through context = (%d, %d), want (%d, 7)", id, req, a)
	}
	if id, _ := spanFrom(withSpan(context.Background(), 0, 7)); id != 0 {
		t.Error("untraced context carries a span")
	}
}

func TestGenRequestsDeterministic(t *testing.T) {
	for _, seed := range []uint64{1, 2, 99} {
		for c := 0; c < 2; c++ {
			if !reflect.DeepEqual(genRequests(seed, c, serviceRequests), genRequests(seed, c, serviceRequests)) {
				t.Fatalf("seed %d client %d: two generations differ", seed, c)
			}
		}
	}
	if reflect.DeepEqual(genRequests(1, 0, serviceRequests), genRequests(2, 0, serviceRequests)) {
		t.Error("seeds 1 and 2 generate the same requests")
	}
}

// TestGenRequestsHitMissSplit serves every list against a model of the
// result cache (the answered seeds of each configuration) and checks the
// generator's labels: exact hit and miss seed counts per request, the
// request kinds, and configurations disjoint between the clients.
func TestGenRequestsHitMissSplit(t *testing.T) {
	type key struct {
		ssp  string
		load float64
	}
	owner := map[key]int{}
	for _, seed := range []uint64{1, 2} {
		for c := 0; c < 2; c++ {
			answered := map[key]map[uint64]bool{}
			kinds := map[reqKind]int{}
			for i, rq := range genRequests(seed, c, serviceRequests) {
				var spec netdist.JobSpec
				if err := json.Unmarshal(rq.body, &spec); err != nil {
					t.Fatal(err)
				}
				if spec.Nodes != serviceNodes || spec.Parallelism != 1 || spec.Preset != "burst" || spec.Reps < 1 {
					t.Fatalf("seed %d client %d request %d: spec %+v", seed, c, i, spec)
				}
				k := key{spec.SSP, spec.Load}
				if o, ok := owner[k]; ok && o != c {
					t.Fatalf("client %d reuses client %d's configuration %v", c, o, k)
				}
				owner[k] = c
				seen := answered[k]
				if (seen == nil) != (rq.kind == kindCold) {
					t.Fatalf("seed %d client %d request %d: kind %d for a configuration answered=%v", seed, c, i, rq.kind, seen != nil)
				}
				if seen == nil {
					seen = map[uint64]bool{}
					answered[k] = seen
				}
				var hits, misses uint64
				for s := spec.Seed; s < spec.Seed+uint64(spec.Reps); s++ {
					if seen[s] {
						hits++
					} else {
						misses++
						seen[s] = true
					}
				}
				if hits != rq.hits || misses != rq.misses || (rq.kind == kindHit) != (misses == 0) {
					t.Fatalf("seed %d client %d request %d: cache model %d hits / %d misses, labels %d / %d, kind %d",
						seed, c, i, hits, misses, rq.hits, rq.misses, rq.kind)
				}
				kinds[rq.kind]++
			}
			want := map[reqKind]int{kindCold: coldRequests, kindExtend: extendRequests, kindHit: serviceRequests - coldRequests - extendRequests}
			if !reflect.DeepEqual(kinds, want) {
				t.Errorf("seed %d client %d: kinds %v, want %v", seed, c, kinds, want)
			}
		}
	}
}
