package workload

import (
	"fmt"

	"repro/internal/rng"
	"repro/internal/task"
)

// Shape builds the serial-parallel structure of one global-task instance:
// graph topology, per-leaf execution demand, prediction, and node
// placement. Implementations must be deterministic functions of the
// passed Source.
type Shape interface {
	// Build samples one instance graph for a system of k nodes.
	Build(r *rng.Source, k int) (*task.Graph, error)
	// SlackScale returns the factor by which global slack exceeds the
	// local slack draw so that rel_flex keeps its Table-1 meaning: the
	// expected critical-path execution time over the mean local
	// execution time for serial and mixed shapes, and exactly 1 for the
	// parallel shape (the paper's section 5.2 deadline formula draws
	// slack from the raw distribution).
	SlackScale(meanLocalExec float64) float64
	// Name identifies the shape in reports.
	Name() string
}

// MaxSubtasks bounds the simple subtasks of one global-task instance.
// The paper's runs use at most 8. The bound keeps every per-instance
// count and leaf index within the int32 fields of task.Task, task.Graph
// and the process manager's records, and it stops a configuration
// (possibly from a shard frame or a job spec) from asking each global
// arrival for an arbitrarily large graph.
const MaxSubtasks = 4096

// CheckSubtasks reports an error when an instance of a built-in shape
// can have more than MaxSubtasks simple subtasks: SerialShape.M,
// ParallelShape.M, HeteroSerialShape.MaxM, or the sum of
// MixedShape.Stages. It checks the parameters only, building nothing,
// so it is safe on hostile values. Other shapes pass; GlobalSource
// bounds them by the probe instance it builds.
func CheckSubtasks(sh Shape) error {
	var m int
	switch s := sh.(type) {
	case SerialShape:
		m = s.M
	case ParallelShape:
		m = s.M
	case HeteroSerialShape:
		m = s.MaxM
	case MixedShape:
		// Build rejects widths below 1. Each term is capped and the
		// loop stops past the bound, so the sum cannot overflow.
		for _, w := range s.Stages {
			if m += min(max(w, 0), MaxSubtasks+1); m > MaxSubtasks {
				break
			}
		}
	}
	if m > MaxSubtasks {
		return fmt.Errorf("workload: %T: an instance can have more than %d subtasks (MaxSubtasks)", sh, MaxSubtasks)
	}
	return nil
}

// buildPooled is sh.Build drawing graph nodes from pool (nil falls
// back to fresh allocation; the sampled values are identical either
// way). The graph is released back to the pool by the process manager
// once the instance retires. The shapes of this package recycle through
// their BuildPooled; any other Shape falls back to Build, which only
// costs it the recycling. The cases name concrete types on purpose: an
// assertion to an interface type calls into the runtime, which grows
// that call site's type-assertion cache at a randomly chosen call — a
// one-off allocation in whichever warm replication draws it.
func buildPooled(sh Shape, r *rng.Source, k int, pool *task.GraphPool) (*task.Graph, error) {
	switch s := sh.(type) {
	case SerialShape:
		return s.BuildPooled(r, k, pool)
	case ParallelShape:
		return s.BuildPooled(r, k, pool)
	case MixedShape:
		return s.BuildPooled(r, k, pool)
	case HeteroSerialShape:
		return s.BuildPooled(r, k, pool)
	default:
		return sh.Build(r, k)
	}
}

// SerialShape is the SSP workload: T = [T1 T2 ... Tm], every subtask
// exponential with mean MeanExec, each placed uniformly at random
// (independently) over the k nodes.
type SerialShape struct {
	// M is the number of subtasks (Table 1: m = 4).
	M int
	// MeanExec is 1/µ_subtask (Table 1: 1.0).
	MeanExec float64
	// Pex is the prediction model.
	Pex PexModel
	// Demand overrides the per-subtask execution-time distribution; nil
	// draws the paper's exponential demands.
	Demand Demand
}

// Build implements Shape.
func (s SerialShape) Build(r *rng.Source, k int) (*task.Graph, error) {
	return s.BuildPooled(r, k, nil)
}

// BuildPooled is Build drawing graph nodes from pool.
func (s SerialShape) BuildPooled(r *rng.Source, k int, pool *task.GraphPool) (*task.Graph, error) {
	if s.M <= 0 || s.MeanExec <= 0 || k <= 0 {
		return nil, fmt.Errorf("workload: serial shape: bad params m=%d mean=%v k=%d", s.M, s.MeanExec, k)
	}
	if err := ValidateDemand(s.Demand); err != nil {
		return nil, fmt.Errorf("workload: serial shape: %w", err)
	}
	g := pool.Group(task.KindSerial)
	pool.EnsureKids(g, s.M)
	for i := 0; i < s.M; i++ {
		g.Children = append(g.Children, sampleLeaf(pool, r, s.MeanExec, s.Pex, s.Demand, r.IntN(k)))
	}
	g.Index()
	return g, nil
}

// SlackScale implements Shape.
func (s SerialShape) SlackScale(meanLocalExec float64) float64 {
	return float64(s.M) * s.MeanExec / meanLocalExec
}

// Name implements Shape.
func (s SerialShape) Name() string { return fmt.Sprintf("serial-%d", s.M) }

// ParallelShape is the PSP workload: T = [T1 || ... || Tm] with the m
// subtasks placed at m distinct nodes (paper section 5.2).
type ParallelShape struct {
	// M is the number of parallel subtasks; must not exceed the node
	// count.
	M int
	// MeanExec is 1/µ_subtask.
	MeanExec float64
	// Pex is the prediction model.
	Pex PexModel
	// Demand overrides the per-subtask execution-time distribution; nil
	// draws the paper's exponential demands.
	Demand Demand
}

// Build implements Shape.
func (s ParallelShape) Build(r *rng.Source, k int) (*task.Graph, error) {
	return s.BuildPooled(r, k, nil)
}

// BuildPooled is Build drawing graph nodes from pool.
func (s ParallelShape) BuildPooled(r *rng.Source, k int, pool *task.GraphPool) (*task.Graph, error) {
	if s.M <= 0 || s.MeanExec <= 0 {
		return nil, fmt.Errorf("workload: parallel shape: bad params m=%d mean=%v", s.M, s.MeanExec)
	}
	if err := ValidateDemand(s.Demand); err != nil {
		return nil, fmt.Errorf("workload: parallel shape: %w", err)
	}
	if s.M > k {
		return nil, fmt.Errorf("workload: parallel shape: m=%d exceeds k=%d distinct nodes", s.M, k)
	}
	nodes := r.SampleDistinct(s.M, k)
	g := pool.Group(task.KindParallel)
	pool.EnsureKids(g, s.M)
	for i := 0; i < s.M; i++ {
		g.Children = append(g.Children, sampleLeaf(pool, r, s.MeanExec, s.Pex, s.Demand, nodes[i]))
	}
	g.Index()
	return g, nil
}

// SlackScale implements Shape. The paper's PSP deadline formula (2) adds
// the raw slack draw to max_i ex(Ti), so the scale is 1.
func (s ParallelShape) SlackScale(float64) float64 { return 1 }

// Name implements Shape.
func (s ParallelShape) Name() string { return fmt.Sprintf("parallel-%d", s.M) }

// MixedShape is the section-6 workload: a serial chain whose stages may
// be parallel groups. Stages lists the width of each stage: width 1 is a
// simple subtask placed uniformly at random; width w > 1 is a parallel
// group of w subtasks at distinct nodes. The "combined" experiment uses
// {1, 3, 1}: [S1 [P1 || P2 || P3] S2].
type MixedShape struct {
	// Stages holds per-stage widths; all must be >= 1.
	Stages []int
	// MeanExec is 1/µ_subtask.
	MeanExec float64
	// Pex is the prediction model.
	Pex PexModel
	// Demand overrides the per-subtask execution-time distribution; nil
	// draws the paper's exponential demands.
	Demand Demand
}

// Build implements Shape.
func (s MixedShape) Build(r *rng.Source, k int) (*task.Graph, error) {
	return s.BuildPooled(r, k, nil)
}

// BuildPooled is Build drawing graph nodes from pool.
func (s MixedShape) BuildPooled(r *rng.Source, k int, pool *task.GraphPool) (*task.Graph, error) {
	if len(s.Stages) == 0 || s.MeanExec <= 0 {
		return nil, fmt.Errorf("workload: mixed shape: bad params %+v", s)
	}
	if err := ValidateDemand(s.Demand); err != nil {
		return nil, fmt.Errorf("workload: mixed shape: %w", err)
	}
	g := pool.Group(task.KindSerial)
	pool.EnsureKids(g, len(s.Stages))
	for i, width := range s.Stages {
		switch {
		case width < 1:
			return nil, fmt.Errorf("workload: mixed shape: stage %d width %d", i, width)
		case width == 1:
			g.Children = append(g.Children, sampleLeaf(pool, r, s.MeanExec, s.Pex, s.Demand, r.IntN(k)))
		default:
			if width > k {
				return nil, fmt.Errorf("workload: mixed shape: stage %d width %d exceeds k=%d", i, width, k)
			}
			nodes := r.SampleDistinct(width, k)
			group := pool.Group(task.KindParallel)
			pool.EnsureKids(group, width)
			for j := 0; j < width; j++ {
				group.Children = append(group.Children, sampleLeaf(pool, r, s.MeanExec, s.Pex, s.Demand, nodes[j]))
			}
			g.Children = append(g.Children, group)
		}
	}
	g.Index()
	return g, nil
}

// SlackScale implements Shape: the expected critical path of the chain —
// a width-w stage of i.i.d. exponentials contributes MeanExec·H_w, where
// H_w is the w-th harmonic number (the mean of the maximum of w
// exponentials) — divided by the mean local execution time.
func (s MixedShape) SlackScale(meanLocalExec float64) float64 {
	cp := 0.0
	for _, width := range s.Stages {
		cp += s.MeanExec * harmonic(width)
	}
	return cp / meanLocalExec
}

// Name implements Shape.
func (s MixedShape) Name() string { return fmt.Sprintf("mixed-%v", s.Stages) }

// HeteroSerialShape is the section-4.3 variation in which global tasks
// have a random number of serial subtasks, uniform on [MinM, MaxM].
type HeteroSerialShape struct {
	// MinM and MaxM bound the per-instance subtask count.
	MinM, MaxM int
	// MeanExec is 1/µ_subtask.
	MeanExec float64
	// Pex is the prediction model.
	Pex PexModel
	// Demand overrides the per-subtask execution-time distribution; nil
	// draws the paper's exponential demands.
	Demand Demand
}

// Build implements Shape.
func (s HeteroSerialShape) Build(r *rng.Source, k int) (*task.Graph, error) {
	return s.BuildPooled(r, k, nil)
}

// BuildPooled is Build drawing graph nodes from pool.
func (s HeteroSerialShape) BuildPooled(r *rng.Source, k int, pool *task.GraphPool) (*task.Graph, error) {
	if s.MinM <= 0 || s.MaxM < s.MinM || s.MeanExec <= 0 {
		return nil, fmt.Errorf("workload: hetero shape: bad params %+v", s)
	}
	m := s.MinM + r.IntN(s.MaxM-s.MinM+1)
	return SerialShape{M: m, MeanExec: s.MeanExec, Pex: s.Pex, Demand: s.Demand}.BuildPooled(r, k, pool)
}

// SlackScale implements Shape using the expected subtask count.
func (s HeteroSerialShape) SlackScale(meanLocalExec float64) float64 {
	meanM := float64(s.MinM+s.MaxM) / 2
	return meanM * s.MeanExec / meanLocalExec
}

// Name implements Shape.
func (s HeteroSerialShape) Name() string {
	return fmt.Sprintf("serial-%d..%d", s.MinM, s.MaxM)
}

// MeanSubtasks returns the expected number of simple subtasks per
// instance for a shape, used by the system package to derive the global
// arrival rate from the target load.
func MeanSubtasks(s Shape) (float64, error) {
	switch sh := s.(type) {
	case SerialShape:
		return float64(sh.M), nil
	case ParallelShape:
		return float64(sh.M), nil
	case MixedShape:
		total := 0
		for _, w := range sh.Stages {
			total += w
		}
		return float64(total), nil
	case HeteroSerialShape:
		return float64(sh.MinM+sh.MaxM) / 2, nil
	default:
		return 0, fmt.Errorf("workload: unknown shape %T", s)
	}
}

// sampleLeaf draws one simple subtask: demand, prediction, placement.
func sampleLeaf(pool *task.GraphPool, r *rng.Source, meanExec float64, pm PexModel, d Demand, nodeID int) *task.Graph {
	leaf := pool.Simple("t", 1)
	leaf.Exec = sampleDemand(d, r, meanExec)
	leaf.Pex = pm.Sample(r, leaf.Exec)
	leaf.NodeID = int32(nodeID)
	return leaf
}

// harmonic returns H_n = 1 + 1/2 + ... + 1/n (H_0 = 0).
func harmonic(n int) float64 {
	h := 0.0
	for i := 1; i <= n; i++ {
		h += 1 / float64(i)
	}
	return h
}
