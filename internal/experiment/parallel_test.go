package experiment

import (
	"strings"
	"sync"
	"testing"
)

// TestSweepDeterministicAcrossParallelism renders a small fig2b run
// through RenderCSV at several parallelism levels and requires the bytes
// to be identical: the parallel sweep must be indistinguishable from the
// sequential one in everything but wall-clock time.
func TestSweepDeterministicAcrossParallelism(t *testing.T) {
	e, err := ByID("fig2b")
	if err != nil {
		t.Fatal(err)
	}
	render := func(parallelism int) string {
		t.Helper()
		res, err := runExp(t, e, Options{Horizon: 900, Reps: 2, Seed: 13, Parallelism: parallelism})
		if err != nil {
			t.Fatal(err)
		}
		return RenderCSV(res.Figure)
	}
	want := render(1)
	if !strings.Contains(want, "\n") || len(strings.Split(want, "\n")) < 3 {
		t.Fatalf("sequential run produced no data:\n%s", want)
	}
	for _, p := range []int{0, 2, 8} {
		if got := render(p); got != want {
			t.Errorf("parallelism %d: CSV diverges from sequential run\nseq:\n%s\npar:\n%s", p, want, got)
		}
	}
}

// TestSweepAdaptiveDeterministicAcrossParallelism covers the adaptive
// TargetCI loop: each cell decides its own replication count, so the
// decision (and the rendered output) must not depend on worker count.
func TestSweepAdaptiveDeterministicAcrossParallelism(t *testing.T) {
	if testing.Short() {
		t.Skip("adaptive determinism sweep is not short-mode sized")
	}
	e, err := ByID("abl-m")
	if err != nil {
		t.Fatal(err)
	}
	render := func(parallelism int) string {
		t.Helper()
		res, err := runExp(t, e, Options{
			Horizon: 700, Reps: 2, Seed: 3,
			TargetCI: 0.5, MaxReps: 4, Parallelism: parallelism,
		})
		if err != nil {
			t.Fatal(err)
		}
		return RenderCSV(res.Figure)
	}
	want := render(1)
	if got := render(8); got != want {
		t.Errorf("adaptive sweep diverges across parallelism\nseq:\n%s\npar:\n%s", want, got)
	}
}

// TestSweepProgressReportsEveryCell checks that the progress hook fires
// once per (x, variant) cell and ends at done == total.
func TestSweepProgressReportsEveryCell(t *testing.T) {
	e, err := ByID("fig2b")
	if err != nil {
		t.Fatal(err)
	}
	var (
		mu        sync.Mutex
		calls     int
		lastDone  int
		lastTotal int
	)
	_, err = runExp(t, e, Options{
		Horizon: 500, Reps: 1, Seed: 2, Parallelism: 4,
		Progress: func(done, total int) {
			mu.Lock()
			defer mu.Unlock()
			calls++
			if done > lastDone {
				lastDone = done
			}
			lastTotal = total
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	if calls == 0 || lastTotal == 0 {
		t.Fatalf("progress hook never fired (calls %d, total %d)", calls, lastTotal)
	}
	if calls != lastTotal || lastDone != lastTotal {
		t.Errorf("progress: %d calls, max done %d, total %d; want one call per cell ending at total",
			calls, lastDone, lastTotal)
	}
}
