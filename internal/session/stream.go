package session

import (
	"context"

	"repro/internal/system"
)

// Item is one streamed replication result: the replication's index
// within the job (0-based), its seed, and its metrics — including the
// per-window scenario series chunk when the job has a scenario (each
// replication's Metrics.Series is its own unmerged time series).
type Item struct {
	Index   int
	Seed    uint64
	Metrics *system.Metrics
}

// Stream is an in-flight streaming run: consume Items for
// per-replication results in seed order, then Result for the final
// aggregate.
type Stream struct {
	items chan Item
	done  chan struct{}
	res   *Result
	err   error
}

// Items returns the result channel. Items arrive in seed order as
// workers finish — replication i is delivered as soon as replications
// 0..i have all completed — and the channel closes when the run ends
// (normally, by error, or by cancellation). On every ending —
// success, cancellation, or backend failure — concatenating the items'
// metrics reproduces Result().Runs exactly; streaming never changes
// what is computed, only when it becomes visible.
func (st *Stream) Items() <-chan Item { return st.items }

// Result blocks until the run finishes. On success it returns the same
// aggregate Run would have; on cancellation, a Partial result of the
// finished seed prefix alongside ctx's error. On any other backend
// failure it returns the error together with a Partial result covering
// exactly the items already delivered through Items (possibly zero) —
// unlike Run, which surfaced nothing and therefore returns a nil
// result — so consuming both channels never observes runs the result
// disavows. Building the result merges no series: a consumer that
// wants the merged scenario series calls MergedSeries, which gives
// Run's bytes.
func (st *Stream) Result() (*Result, error) {
	<-st.done
	return st.res, st.err
}

// Stream starts the job and returns immediately with a Stream yielding
// per-replication results in seed order as workers finish. The job,
// options, cancellation semantics and final aggregate are exactly
// Run's; Stream only adds incremental delivery. The stream owns no
// goroutine-visible state after its channel closes, so abandoning a
// cancelled stream leaks nothing.
func (s *Session) Stream(ctx context.Context, job Job, opts ...Option) (*Stream, error) {
	o, err := s.resolve(opts)
	if err != nil {
		return nil, err
	}
	seeds, err := job.seeds()
	if err != nil {
		return nil, err
	}
	reps := len(seeds)
	st := &Stream{
		items: make(chan Item, reps),
		done:  make(chan struct{}),
	}
	shard := Shard{
		Config:      job.Config,
		Seeds:       seeds,
		Parallelism: o.parallelism,
	}

	// Workers report completions (out of order) through arrived; the
	// emitter below reorders into seed order. Both channels are buffered
	// to the full replication count, so neither the workers nor the
	// emitter can block on a slow or departed consumer: a stream that is
	// never drained still terminates and frees its goroutines.
	type arrival struct {
		i int
		m *system.Metrics
	}
	arrived := make(chan arrival, reps)
	progress := o.progress
	var progressCount func(int, *system.Metrics)
	if progress != nil {
		progressCount = progressHook(progress, reps)
	}
	shard.OnResult = func(i int, m *system.Metrics) {
		if progressCount != nil {
			progressCount(i, m)
		}
		arrived <- arrival{i: i, m: m}
	}
	finish := s.instrument(&shard)

	// The emitter reorders completions into seed order concurrently with
	// the run, so items become visible as soon as their seed prefix is
	// complete. st.items is buffered to the full replication count, so
	// the emitter never blocks on the consumer.
	emitDone := make(chan struct{})
	var emitted []*system.Metrics // seed-order prefix; emitter-owned until emitDone
	go func() {
		defer close(emitDone)
		defer close(st.items)
		pending := make(map[int]*system.Metrics)
		next := 0
		for a := range arrived {
			pending[a.i] = a.m
			for m, ok := pending[next]; ok; m, ok = pending[next] {
				delete(pending, next)
				emitted = append(emitted, m)
				st.items <- Item{Index: next, Seed: shard.Seeds[next], Metrics: m}
				next++
			}
		}
	}()
	go func() {
		res, rerr := s.backend.Run(ctx, shard)
		finish()
		close(arrived)
		<-emitDone // every emitted item precedes done

		if rerr != nil && !IsCancellation(rerr) {
			// A replication failed. The backend disavows the shard, but
			// items already emitted are irrevocably visible to the
			// consumer, so the Items contract — concatenating item metrics
			// reproduces Result().Runs — is honoured by surfacing exactly
			// the emitted seed prefix as a Partial result alongside the
			// error. (Run, which never surfaced anything, returns nil.)
			st.res = aggregate(shard, ShardResult{Metrics: emitted, Completed: len(emitted)})
			st.res.Partial = true
		} else {
			st.res = aggregate(shard, res)
		}
		st.err = rerr
		close(st.done)
	}()
	return st, nil
}
