// Package runner provides a small worker pool for fanning independent,
// index-addressed simulation work units out across cores.
//
// The pool is built for deterministic batch work: callers hand
// RunWorkersContext a unit count and a function of the unit index, and
// write each unit's result into a preallocated slot for that index.
// Because every unit owns its inputs (in this repository, a
// per-replication RNG substream derived in internal/rng) and its output
// slot, results are bit-identical to the sequential path regardless of
// worker count or scheduling order — only wall-clock time changes.
package runner

import (
	"context"
	"runtime"
	"sync"
	"sync/atomic"
)

// Runner executes batches of independent work units on a bounded number
// of goroutines. The zero value is not useful; construct with New. A
// Runner is stateless between calls and safe for concurrent use.
type Runner struct {
	workers int
}

// New returns a Runner with the given parallelism. Non-positive values
// default to runtime.GOMAXPROCS(0); 1 yields the plain sequential path
// with no goroutines.
func New(parallelism int) *Runner {
	if parallelism <= 0 {
		parallelism = runtime.GOMAXPROCS(0)
	}
	return &Runner{workers: parallelism}
}

// Workers returns the resolved worker count.
func (r *Runner) Workers() int { return r.workers }

// RunWorkersContext executes fn(worker, 0), ..., fn(worker, n-1), each
// unit exactly once, on up to Workers goroutines, and blocks until every
// started unit finishes. fn must be safe for concurrent invocation with
// distinct units and must not share mutable state across units. The
// executing worker's index (0 <= worker < Workers) is passed alongside
// each unit: a worker processes its units strictly sequentially, so
// per-worker state — a reusable simulation workspace, a scratch buffer —
// handed out by worker index needs no locking. Unit results must still
// not depend on which worker ran them.
//
// On failure it reports the recorded error with the lowest unit index,
// so a given (config, seed) batch yields the same error no matter how
// the units interleaved. Remaining undispatched units are skipped once
// any unit fails, exactly as the sequential loop would stop at its
// first error; units already in flight still run to completion.
//
// Workers claim unit indices in ascending order and stop claiming once
// ctx is done; units already claimed run to completion (a unit is never
// interrupted mid-flight, so its result stays a pure function of its
// inputs). The
// completed units therefore always form the exact prefix [0, completed),
// which is what makes cancellation deterministic-safe for seed-ordered
// batches: every finished unit's result is identical to the uncancelled
// run's, and the only thing timing decides is how many there are.
//
// When ctx ends the run early, RunWorkersContext returns the prefix
// length alongside ctx's error; if every unit finished before the
// cancellation was observed it returns (n, nil). A unit error takes
// precedence over cancellation — the recorded error with the lowest unit
// index is returned and completed is 0, because an errored batch has no
// usable prefix.
func (r *Runner) RunWorkersContext(ctx context.Context, n int, fn func(worker, unit int) error) (completed int, err error) {
	if n <= 0 {
		return 0, nil
	}
	done := ctx.Done()
	workers := r.workers
	if workers > n {
		workers = n
	}
	if workers == 1 {
		for i := 0; i < n; i++ {
			if done != nil {
				select {
				case <-done:
					return i, ctx.Err()
				default:
				}
			}
			if err := fn(0, i); err != nil {
				return 0, err
			}
		}
		return n, nil
	}

	var (
		next      atomic.Int64
		failed    atomic.Bool
		cancelled atomic.Bool
		wg        sync.WaitGroup

		mu       sync.Mutex
		firstIdx = -1
		firstErr error
	)
	record := func(i int, err error) {
		mu.Lock()
		if firstIdx == -1 || i < firstIdx {
			firstIdx, firstErr = i, err
		}
		mu.Unlock()
		failed.Store(true)
	}
	wg.Add(workers)
	for w := 0; w < workers; w++ {
		go func(worker int) {
			defer wg.Done()
			for !failed.Load() {
				if done != nil {
					select {
					case <-done:
						cancelled.Store(true)
						return
					default:
					}
				}
				i := int(next.Add(1)) - 1
				if i >= n {
					return
				}
				if err := fn(worker, i); err != nil {
					record(i, err)
					return
				}
			}
		}(w)
	}
	wg.Wait()
	if firstErr != nil {
		return 0, firstErr
	}
	claimed := int(next.Load())
	if claimed >= n {
		// Every unit was claimed (and, with no error, completed): the
		// cancellation, if any, arrived too late to matter.
		return n, nil
	}
	if cancelled.Load() {
		return claimed, ctx.Err()
	}
	return claimed, nil
}
