package workload

import (
	"fmt"

	"repro/internal/rng"
	"repro/internal/sim"
	"repro/internal/task"
)

// GlobalParams describes the single global-task stream.
type GlobalParams struct {
	// Rate is the Poisson arrival rate λ_global of whole global tasks.
	Rate float64
	// Shape builds each instance's structure.
	Shape Shape
	// SlackMin, SlackMax bound the uniform slack draw (shared with
	// locals per Table 1; the PSP baseline widens it to [1.25, 5.0]).
	SlackMin, SlackMax float64
	// RelFlex is the relative flexibility of global tasks with respect
	// to local tasks (Table 1: 1.0). The end-to-end slack is
	// RelFlex · Shape.SlackScale(meanLocalExec) · U[SlackMin, SlackMax].
	RelFlex float64
	// MeanLocalExec is 1/µ_local, the normalizer for SlackScale.
	MeanLocalExec float64
	// Mod optionally modulates the arrival rate over time (scenario
	// bursts and ramps); nil keeps the stream stationary.
	Mod RateModulator
	// Horizon is the end of the run; a modulated stream thins no
	// candidate past it (see pacer), so it must be positive and
	// finite when Mod is set. Unmodulated streams ignore it.
	Horizon float64
	// GraphPool optionally recycles instance-graph nodes across
	// arrivals. Nil allocates; sampled graphs are identical either way.
	GraphPool *task.GraphPool
}

// Spec is one sampled global task handed to the start callback: the
// instance graph plus its end-to-end attributes. The system package
// wraps it into a procmgr.Instance.
type Spec struct {
	Graph    *task.Graph
	Arrival  float64
	Deadline float64
	Slack    float64
}

// GlobalSource generates the global-task stream. The zero value is
// usable after Init + Reconfigure.
type GlobalSource struct {
	pacer
	r        *rng.Source
	peakMean float64 // mean inter-candidate gap at the peak rate; 0 = silent
	params   GlobalParams
	k        int
	start    func(Spec)
	cb       sim.Callback
	fireFn   func(int32) // s.fire, bound once in Init
}

// Init binds the source to its engine, once per source lifetime. It must
// be followed by Reconfigure before Start, and re-issued if the source
// value is moved.
func (s *GlobalSource) Init(eng *sim.Engine) {
	s.eng, s.fireFn = eng, s.fire
}

// Reconfigure rebinds the source for a fresh replication in place — a
// reseeded RNG stream, new parameters and start callback — reusing the
// source object and its pre-bound engine handler, which it registers
// anew (an engine Reset clears registrations). k is the node count
// (needed for placement). It must be called after the engine driving
// the source was Reset and before Start; a reconfigured source samples
// exactly the stream a freshly initialised one would.
func (s *GlobalSource) Reconfigure(r *rng.Source, k int, params GlobalParams, start func(Spec)) error {
	if r == nil || start == nil {
		return fmt.Errorf("workload: global source: nil dependency")
	}
	if params.Rate < 0 || params.Shape == nil || params.SlackMax < params.SlackMin ||
		params.RelFlex < 0 || params.MeanLocalExec <= 0 || k <= 0 {
		return fmt.Errorf("workload: global source: bad params")
	}
	// Bound the built-in shapes before building a probe: a hostile M
	// would make the probe itself huge.
	if err := CheckSubtasks(params.Shape); err != nil {
		return fmt.Errorf("workload: global source: %w", err)
	}
	// Fail fast on impossible shapes (e.g. parallel m > k) rather than
	// mid-run.
	g, err := params.Shape.Build(rng.New(0), k)
	if err != nil {
		return fmt.Errorf("workload: global source: %w", err)
	}
	if n := g.LeafCount(); n > MaxSubtasks {
		return fmt.Errorf("workload: global source: %s shape built %d subtasks, want <= %d (MaxSubtasks)",
			params.Shape.Name(), n, MaxSubtasks)
	}
	p, err := newPacer(s.eng, params.Mod, params.Horizon)
	if err != nil {
		return err
	}
	s.pacer, s.r, s.params, s.k, s.start = p, r, params, k, start
	s.peakMean = 0
	if params.Rate > 0 {
		s.peakMean = 1 / (params.Rate * p.maxFactor)
	}
	s.cb = s.eng.RegisterArg(s.fireFn)
	return nil
}

// Start schedules the first arrival. A zero rate generates nothing.
func (s *GlobalSource) Start() {
	if s.peakMean > 0 {
		s.next(s.r, s.peakMean, s.cb, 0)
	}
}

// fire is the arrival handler: it emits the arrival the pending event
// stands for and schedules the next one. The source's events carry no
// argument.
func (s *GlobalSource) fire(int32) {
	s.arrive()
	s.next(s.r, s.peakMean, s.cb, 0)
}

func (s *GlobalSource) arrive() {
	now := s.eng.Now()
	g, err := buildPooled(s.params.Shape, s.r, s.k, s.params.GraphPool)
	if err != nil {
		// Reconfigure validated the shape; a failure here is a
		// programming error in the shape.
		panic(fmt.Sprintf("workload: shape build failed mid-run: %v", err))
	}
	scale := s.params.RelFlex * s.params.Shape.SlackScale(s.params.MeanLocalExec)
	sl := scale * s.r.Uniform(s.params.SlackMin, s.params.SlackMax)
	// dl(T) = ar + ex + sl with ex the critical-path execution time:
	// the serial sum for serial tasks, max_i ex(Ti) for parallel tasks
	// (the paper's PSP formula 2), and the serial-parallel critical
	// path for mixed shapes.
	dl := now + g.CriticalPathExec() + sl
	s.start(Spec{Graph: g, Arrival: now, Deadline: dl, Slack: sl})
}
