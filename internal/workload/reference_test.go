package workload

import (
	"fmt"
	"math"

	"repro/internal/rng"
	"repro/internal/sim"
	"repro/internal/task"
)

// This file holds the event-per-candidate reference generator: the
// arrival loop as it was before thinning moved inline, where every
// thinning candidate is an engine event that draws its accept uniform
// when it fires. LocalFleet and the production arrivals loop must emit
// exactly its tasks and leave every RNG stream in exactly its state.

// candidateLoop drives one source's arrivals with one engine event per
// candidate. With a modulator, each candidate is kept with probability
// FactorAt(now)/MaxFactor at fire time, and rejected ones simply
// reschedule. onCandidate, if set, sees every candidate's fire time.
type candidateLoop struct {
	eng         *sim.Engine
	r           *rng.Source
	rate        float64
	peakMean    float64
	maxFactor   float64
	mod         RateModulator
	owner       arrivalOwner
	cb          sim.Callback
	onCandidate func(t float64)
}

func candidateHandler(p any) { p.(*candidateLoop).candidate() }

func (a *candidateLoop) init(eng *sim.Engine, owner arrivalOwner) {
	a.eng, a.owner = eng, owner
}

func (a *candidateLoop) reconfigure(r *rng.Source, rate float64, mod RateModulator) error {
	maxFactor := 1.0
	if mod != nil {
		maxFactor = mod.MaxFactor()
		if !(maxFactor > 0) || math.IsInf(maxFactor, 1) {
			return fmt.Errorf("workload: rate modulator MaxFactor = %v, want > 0 and finite", maxFactor)
		}
	}
	a.r, a.rate, a.maxFactor, a.mod = r, rate, maxFactor, mod
	a.peakMean = 0
	if rate > 0 {
		a.peakMean = 1 / (rate * maxFactor)
	}
	a.cb = a.eng.Register(candidateHandler)
	return nil
}

func (a *candidateLoop) start() {
	if a.rate == 0 {
		return
	}
	a.eng.MustScheduleCall(a.r.Exponential(a.peakMean), a.cb, a)
}

// candidate fires one candidate arrival, thins it, and self-schedules.
func (a *candidateLoop) candidate() {
	if a.onCandidate != nil {
		a.onCandidate(a.eng.Now())
	}
	if a.accept() {
		a.owner.arrive()
	}
	a.eng.MustScheduleCall(a.r.Exponential(a.peakMean), a.cb, a)
}

// accept applies the thinning test at the current time.
func (a *candidateLoop) accept() bool {
	if a.mod == nil {
		return true
	}
	f := a.mod.FactorAt(a.eng.Now())
	if f < 0 {
		f = 0
	}
	if f > a.maxFactor {
		panic(fmt.Sprintf("workload: modulator factor %v exceeds declared max %v", f, a.maxFactor))
	}
	return a.r.Float64()*a.maxFactor < f
}

// LocalParams describes one node's local-task stream.
type LocalParams struct {
	// Node is the index the stream's tasks execute at; arrivals carry it
	// in Task.NodeID so one shared submit callback can route every
	// node's tasks instead of one closure per node.
	Node int
	// Rate is the Poisson arrival rate λ_local at this node.
	Rate float64
	// MeanExec is 1/µ_local.
	MeanExec float64
	// SlackMin, SlackMax bound the uniform slack distribution.
	SlackMin, SlackMax float64
	// Pex is the prediction model.
	Pex PexModel
	// Demand overrides the execution-time distribution; nil draws the
	// paper's exponential demands.
	Demand Demand
	// Mod optionally modulates the arrival rate over time (scenario
	// bursts and ramps); nil keeps the stream stationary.
	Mod RateModulator
}

// LocalSource generates local tasks at one node, firing every thinning
// candidate as an engine event. It is the reference LocalFleet and the
// inline-thinning arrivals loop are checked against. The zero value is
// usable after Init + Reconfigure.
type LocalSource struct {
	eng    *sim.Engine
	r      *rng.Source
	params LocalParams
	arr    candidateLoop
	submit func(*task.Task)
	nextID func() uint64
	nextSq func() uint64
}

// NewLocalSource returns a generator; call Start to schedule the first
// arrival.
func NewLocalSource(eng *sim.Engine, r *rng.Source, params LocalParams,
	nextID, nextSeq func() uint64, submit func(*task.Task)) (*LocalSource, error) {
	if eng == nil {
		return nil, fmt.Errorf("workload: local source: nil engine")
	}
	s := &LocalSource{}
	s.Init(eng)
	if err := s.Reconfigure(r, params, nextID, nextSeq, submit); err != nil {
		return nil, err
	}
	return s, nil
}

// Init binds the source to its engine, once per source lifetime. It must
// be followed by Reconfigure before Start. Init must be re-issued if the
// source value is moved (it wires the internal arrivals loop back to the
// source's address).
func (s *LocalSource) Init(eng *sim.Engine) {
	s.eng = eng
	s.arr.init(eng, s)
}

// validateLocal checks the per-run inputs shared by construction and
// reconfiguration.
func validateLocal(r *rng.Source, params LocalParams,
	nextID, nextSeq func() uint64, submit func(*task.Task)) error {
	if r == nil || submit == nil || nextID == nil || nextSeq == nil {
		return fmt.Errorf("workload: local source: nil dependency")
	}
	if params.Node < 0 || params.Rate < 0 || params.MeanExec <= 0 ||
		params.SlackMax < params.SlackMin {
		return fmt.Errorf("workload: local source: bad params %+v", params)
	}
	return ValidateDemand(params.Demand)
}

// Reconfigure rebinds the source for a fresh replication in place — a
// reseeded RNG stream, new parameters and callbacks. It must be called
// after the engine driving the source was Reset (the reset clears
// callback registrations) and before Start. A reconfigured source
// generates exactly the stream a freshly constructed one would.
func (s *LocalSource) Reconfigure(r *rng.Source, params LocalParams,
	nextID, nextSeq func() uint64, submit func(*task.Task)) error {
	if err := validateLocal(r, params, nextID, nextSeq, submit); err != nil {
		return err
	}
	s.r, s.params = r, params
	s.submit, s.nextID, s.nextSq = submit, nextID, nextSeq
	return s.arr.reconfigure(r, params.Rate, params.Mod)
}

// Start schedules the first arrival. A zero rate generates nothing.
func (s *LocalSource) Start() { s.arr.start() }

func (s *LocalSource) arrive() {
	now := s.eng.Now()
	ex := sampleDemand(s.params.Demand, s.r, s.params.MeanExec)
	sl := s.r.Uniform(s.params.SlackMin, s.params.SlackMax)
	t := &task.Task{}
	t.ID = s.nextID()
	t.Class = task.Local
	t.Stage = -1
	t.NodeID = int32(s.params.Node)
	t.Arrival = now
	t.Deadline = now + ex + sl // dl = ar + ex + sl
	t.FirmDeadline = now + ex + sl
	t.Exec = ex
	t.Pex = s.params.Pex.Sample(s.r, ex)
	t.Seq = s.nextSq()
	s.submit(t)
}
