package runner

import (
	"context"
	"errors"
	"fmt"
	"runtime"
	"sync/atomic"
	"testing"
	"time"
)

// run is RunWorkersContext without a context or worker index.
func run(r *Runner, n int, fn func(i int) error) error {
	_, err := r.RunWorkersContext(context.Background(), n, func(_, i int) error { return fn(i) })
	return err
}

func TestNewResolvesParallelism(t *testing.T) {
	if got := New(0).Workers(); got != runtime.GOMAXPROCS(0) {
		t.Errorf("New(0).Workers() = %d, want GOMAXPROCS %d", got, runtime.GOMAXPROCS(0))
	}
	if got := New(-3).Workers(); got != runtime.GOMAXPROCS(0) {
		t.Errorf("New(-3).Workers() = %d, want GOMAXPROCS %d", got, runtime.GOMAXPROCS(0))
	}
	for _, p := range []int{1, 2, 7} {
		if got := New(p).Workers(); got != p {
			t.Errorf("New(%d).Workers() = %d", p, got)
		}
	}
}

func TestRunExecutesEveryIndexOnce(t *testing.T) {
	for _, p := range []int{1, 2, 8} {
		t.Run(fmt.Sprintf("parallel=%d", p), func(t *testing.T) {
			const n = 100
			counts := make([]atomic.Int32, n)
			if err := run(New(p), n, func(i int) error {
				counts[i].Add(1)
				return nil
			}); err != nil {
				t.Fatal(err)
			}
			for i := range counts {
				if c := counts[i].Load(); c != 1 {
					t.Errorf("unit %d executed %d times, want 1", i, c)
				}
			}
		})
	}
}

func TestRunZeroAndNegativeUnits(t *testing.T) {
	called := false
	for _, n := range []int{0, -5} {
		if err := run(New(4), n, func(int) error { called = true; return nil }); err != nil {
			t.Errorf("Run(%d) = %v, want nil", n, err)
		}
	}
	if called {
		t.Error("Run with n <= 0 invoked fn")
	}
}

func TestRunSequentialStopsAtFirstError(t *testing.T) {
	boom := errors.New("boom")
	var ran []int
	err := run(New(1), 10, func(i int) error {
		ran = append(ran, i)
		if i == 3 {
			return boom
		}
		return nil
	})
	if !errors.Is(err, boom) {
		t.Fatalf("Run = %v, want boom", err)
	}
	if len(ran) != 4 {
		t.Errorf("sequential run executed %v, want to stop after index 3", ran)
	}
}

func TestRunParallelReportsLowestIndexError(t *testing.T) {
	// Make several units fail; the reported error must be the failing
	// unit with the lowest index among those that ran, no matter how the
	// goroutines interleave.
	for trial := 0; trial < 20; trial++ {
		err := run(New(8), 32, func(i int) error {
			if i%2 == 1 {
				return fmt.Errorf("unit %d", i)
			}
			return nil
		})
		if err == nil {
			t.Fatal("Run = nil, want an error")
		}
		if got := err.Error(); got != "unit 1" {
			t.Fatalf("trial %d: Run = %q, want the lowest-index error \"unit 1\"", trial, got)
		}
	}
}

func TestRunStopsDispatchingAfterFailure(t *testing.T) {
	// The bail is best-effort (in-flight units finish; the failure flag
	// is checked per dispatch), so the assertion needs slack: each
	// healthy unit sleeps briefly, making it overwhelmingly likely the
	// failure is recorded long before the other worker could drain the
	// batch, even on a loaded machine.
	const units = 10000
	var executed atomic.Int32
	err := run(New(2), units, func(i int) error {
		executed.Add(1)
		if i == 0 {
			return errors.New("early failure")
		}
		time.Sleep(50 * time.Microsecond)
		return nil
	})
	if err == nil {
		t.Fatal("Run = nil, want error")
	}
	if n := executed.Load(); n > units/2 {
		t.Errorf("executed %d of %d units after an immediate failure, expected early bail", n, units)
	}
}

// TestRunHammer drives many tiny units through pools of several sizes so
// `go test -race` can spot sharing bugs in the dispatch path.
func TestRunHammer(t *testing.T) {
	units, rounds := 5000, 20
	if testing.Short() {
		units, rounds = 500, 5
	}
	for round := 0; round < rounds; round++ {
		results := make([]int, units)
		if err := run(New(16), units, func(i int) error {
			results[i] = i * i
			return nil
		}); err != nil {
			t.Fatal(err)
		}
		for i, r := range results {
			if r != i*i {
				t.Fatalf("round %d: results[%d] = %d, want %d", round, i, r, i*i)
			}
		}
	}
}

// TestRunWorkersContextCancelPrefix pins the cancellation contract:
// completed units form the exact prefix [0, completed) — no holes, no
// unit past the prefix — because indices are claimed in order and
// claimed units run to completion.
func TestRunWorkersContextCancelPrefix(t *testing.T) {
	const n = 200
	ctx, cancel := context.WithCancel(context.Background())
	var ran [n]atomic.Bool
	var fired atomic.Int64
	completed, err := New(4).RunWorkersContext(ctx, n, func(_, i int) error {
		if fired.Add(1) == 20 {
			cancel() // cancel mid-batch, from inside a unit
		}
		time.Sleep(50 * time.Microsecond)
		ran[i].Store(true)
		return nil
	})
	if err != context.Canceled {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	if completed <= 0 || completed >= n {
		t.Fatalf("completed = %d, want a strict mid-batch prefix", completed)
	}
	for i := 0; i < completed; i++ {
		if !ran[i].Load() {
			t.Fatalf("unit %d inside the prefix did not run (completed = %d)", i, completed)
		}
	}
	for i := completed; i < n; i++ {
		if ran[i].Load() {
			t.Fatalf("unit %d beyond the prefix ran (completed = %d)", i, completed)
		}
	}
}

// TestRunWorkersContextCancelSequential covers the workers == 1 path.
func TestRunWorkersContextCancelSequential(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	var ran int
	completed, err := New(1).RunWorkersContext(ctx, 100, func(_, i int) error {
		ran++
		if i == 6 {
			cancel()
		}
		return nil
	})
	if err != context.Canceled {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	if completed != 7 || ran != 7 {
		t.Fatalf("completed = %d, ran = %d, want 7 (units 0..6)", completed, ran)
	}
}

// TestRunWorkersContextPreCancelled runs nothing at all.
func TestRunWorkersContextPreCancelled(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	for _, workers := range []int{1, 4} {
		completed, err := New(workers).RunWorkersContext(ctx, 50, func(_, i int) error {
			t.Fatalf("workers=%d: unit %d ran under a pre-cancelled context", workers, i)
			return nil
		})
		if completed != 0 || err != context.Canceled {
			t.Fatalf("workers=%d: (%d, %v), want (0, context.Canceled)", workers, completed, err)
		}
	}
}

// TestRunWorkersContextLateCancelIsComplete: cancellation observed only
// after every unit was claimed yields the full batch and a nil error.
func TestRunWorkersContextLateCancelIsComplete(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	completed, err := New(8).RunWorkersContext(ctx, 64, func(_, i int) error { return nil })
	if completed != 64 || err != nil {
		t.Fatalf("(%d, %v), want (64, nil)", completed, err)
	}
}

// TestRunWorkersContextUnitErrorWins: a unit failure reports the
// lowest-index error exactly as without a context, even when the context is
// also cancelled.
func TestRunWorkersContextUnitErrorWins(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	boom := errors.New("boom")
	completed, err := New(4).RunWorkersContext(ctx, 100, func(_, i int) error {
		if i == 3 {
			cancel()
			return boom
		}
		return nil
	})
	if err != boom {
		t.Fatalf("err = %v, want the unit error", err)
	}
	if completed != 0 {
		t.Fatalf("completed = %d, want 0 on unit failure", completed)
	}
}
