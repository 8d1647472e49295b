package core

import (
	"fmt"

	"repro/internal/task"
)

// Assigner decomposes an end-to-end deadline over a serial-parallel task
// graph (paper section 6): serial groups use the SSP strategy, parallel
// groups the PSP strategy, and the virtual deadline handed to a complex
// subtask becomes the end-to-end deadline of its own decomposition.
//
// Assignment is *dynamic*: a serial stage's deadline is computed when the
// stage is released (its predecessor finished), so leftover slack is
// inherited by later stages and lateness eats their budget — the two
// phenomena section 4.2.2 calls "the rich get richer and the poor get
// poorer". The process manager drives this by calling SerialStageBuf and
// ParallelBranchBuf as the simulation unfolds; Plan computes a static
// assignment in one pass for inspection.
type Assigner struct {
	// Serial is the SSP strategy; must be non-nil.
	Serial SerialStrategy
	// Parallel is the PSP strategy; must be non-nil.
	Parallel ParallelStrategy
}

// NewAssigner returns an assigner with the given strategies. Nil
// strategies default to Ultimate Deadline, the paper's baseline.
func NewAssigner(s SerialStrategy, p ParallelStrategy) Assigner {
	if s == nil {
		s = UltimateDeadline{}
	}
	if p == nil {
		p = ParallelUltimate{}
	}
	return Assigner{Serial: s, Parallel: p}
}

// Name returns "SSP-PSP" composite name, e.g. "EQF-DIV1".
func (a Assigner) Name() string {
	return a.Serial.Name() + "-" + a.Parallel.Name()
}

// SerialStageBuf returns the virtual deadline of the stage released at
// time now inside a serial group with the given deadline. remaining
// holds the graph nodes of the current stage and all following stages;
// their aggregate pex values, collected into buf (grown as needed), feed
// the SSP formulas. It returns the deadline and the possibly regrown
// buffer for the caller to reuse. Strategies receive the buffer only for
// the duration of the call and must not retain it. This is the process
// manager's hot path: one call per serial stage release for the whole
// run.
func (a Assigner) SerialStageBuf(buf []float64, now, groupDeadline float64, remaining []*task.Graph) (float64, []float64) {
	buf = buf[:0]
	for _, g := range remaining {
		buf = append(buf, g.AggregatePex())
	}
	return a.Serial.StageDeadline(now, groupDeadline, buf), buf
}

// ParallelBranchBuf returns the virtual deadline of branch i of a
// parallel group arriving at time arrival with the given group deadline,
// using buf as SerialStageBuf does.
func (a Assigner) ParallelBranchBuf(buf []float64, arrival, groupDeadline float64, branches []*task.Graph, i int) (float64, []float64) {
	buf = buf[:0]
	for _, g := range branches {
		buf = append(buf, g.AggregatePex())
	}
	return a.Parallel.BranchDeadline(arrival, groupDeadline, buf, i), buf
}

// Assignment is one leaf's planned virtual deadline, produced by Plan.
type Assignment struct {
	// Leaf is the simple subtask the deadline applies to.
	Leaf *task.Graph
	// Release is the planned release time assuming every predecessor
	// takes exactly its predicted execution time.
	Release float64
	// Deadline is the planned virtual deadline.
	Deadline float64
}

// Plan statically decomposes the deadline over the whole graph in one
// pass, assuming every subtask takes exactly its predicted execution
// time (so serial stage i is released at the planned finish of stage
// i−1). It returns one assignment per leaf in left-to-right order.
//
// The dynamic per-stage path (SerialStageBuf/ParallelBranchBuf) supersedes
// these values during simulation; Plan exists for the public API and the
// sdadl CLI.
func (a Assigner) Plan(g *task.Graph, arrival, deadline float64) ([]Assignment, error) {
	if err := g.Validate(); err != nil {
		return nil, fmt.Errorf("core: plan: %w", err)
	}
	var (
		out []Assignment
		buf []float64
	)
	a.plan(g, arrival, deadline, &out, &buf)
	return out, nil
}

// plan recursively plans node g released at time release with deadline
// dl, appending leaf assignments to out, and returns the planned finish
// time of g (release + aggregate pex, deadline-independent). buf is the
// pex scratch buffer every level shares: a deadline is computed before
// the recursion that could reuse it.
func (a Assigner) plan(g *task.Graph, release, dl float64, out *[]Assignment, buf *[]float64) float64 {
	switch g.Kind {
	case task.KindSimple:
		*out = append(*out, Assignment{Leaf: g, Release: release, Deadline: dl})
		return release + g.Pex

	case task.KindSerial:
		now := release
		for i := range g.Children {
			var stageDL float64
			stageDL, *buf = a.SerialStageBuf(*buf, now, dl, g.Children[i:])
			now = a.plan(g.Children[i], now, stageDL, out, buf)
		}
		return now

	case task.KindParallel:
		finish := release
		for i, child := range g.Children {
			var branchDL float64
			branchDL, *buf = a.ParallelBranchBuf(*buf, release, dl, g.Children, i)
			f := a.plan(child, release, branchDL, out, buf)
			if f > finish {
				finish = f
			}
		}
		return finish

	default:
		// Validate rejects unknown kinds before we get here.
		return release
	}
}
