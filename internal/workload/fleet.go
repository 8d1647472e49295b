package workload

import (
	"fmt"

	"repro/internal/rng"
	"repro/internal/sim"
	"repro/internal/task"
)

// LocalFleet generates the local-task streams of every node in one
// structure. Everything the nodes share (the Table 1 parameters, the
// demand and prediction models, the modulator, the callbacks) is stored
// once on the fleet, and the per-node residue shrinks to one 64-byte
// localStream record in a contiguous slice. At 64k nodes the per-source
// working set is 4 MB of records touched one cache line per arrival,
// with the shared half staying resident in L1.
//
// An unmodulated stream is a plain Poisson process: each arrival is one
// engine event that emits the task and schedules the next arrival one
// exponential gap later. A modulated stream is thinned inline (see
// arrivals for the method): the loop that follows an arrival draws
// peak-rate candidate gaps and their accept uniforms back to back until
// one candidate is accepted, then schedules only that arrival, so a
// rejected candidate costs two draws instead of an engine event. Every
// stream still consumes exactly the draws, in exactly the order, of the
// event-per-candidate generator; the equivalence is pinned by
// TestFleetMatchesSources.
//
// A LocalFleet is single-threaded, like the engine it feeds.
type LocalFleet struct {
	eng     *sim.Engine
	cb      sim.Callback
	fireFn  func(node int32) // f.fire, bound once in Init
	streams []localStream

	// Shared per-run parameters (see FleetParams).
	meanExec  float64
	slackMin  float64
	slackMax  float64
	maxFactor float64
	horizon   float64 // thinning stops past it (modulated streams only)
	pex       PexModel
	demand    Demand
	mod       RateModulator
	pool      *task.Pool
	submit    func(*task.Task)
	nextID    func() uint64
	nextSq    func() uint64
}

// localStream is one node's arrival-process state: its RNG stream and
// the node's peak-rate mean gap. Padded to one cache line, so no record
// straddles two — this record is all the per-node state an arrival
// touches. The fleet's one engine handler reaches it by the node index
// its events carry.
type localStream struct {
	r        rng.Source
	peakMean float64 // mean inter-candidate gap at the peak rate; 0 = silent
	node     int32
	_        [12]byte
}

// NewLocalFleet returns an empty fleet bound to eng; Configure sizes it.
func NewLocalFleet(eng *sim.Engine) *LocalFleet {
	f := &LocalFleet{}
	f.Init(eng)
	return f
}

// Init binds the fleet to its engine, once per fleet lifetime (or after
// the engine object itself is replaced).
func (f *LocalFleet) Init(eng *sim.Engine) {
	f.eng, f.fireFn = eng, f.fire
}

// FleetParams carries the parameters shared by every node's stream.
// Per-node rate and seeding are set by SeedNode.
type FleetParams struct {
	// MeanExec is 1/µ_local, the mean local-task demand.
	MeanExec float64
	// SlackMin, SlackMax bound the uniform slack distribution.
	SlackMin, SlackMax float64
	// Pex is the execution-time prediction model.
	Pex PexModel
	// Demand overrides the execution-time distribution; nil draws the
	// paper's exponential demands.
	Demand Demand
	// Mod optionally modulates every stream's arrival rate over time
	// (scenario bursts and ramps); nil keeps the streams stationary.
	Mod RateModulator
	// Horizon is the end of the run. A modulated stream thins no
	// candidate past it, so it must be positive and finite when Mod is
	// set; unmodulated streams ignore it.
	Horizon float64
	// Pool recycles retired tasks; required.
	Pool *task.Pool
}

// Configure rebinds the fleet for a fresh run of n nodes, reusing the
// stream tables when the node count matches. It must be called after the
// engine was Reset and be followed by SeedNode for every node, then
// Start.
func (f *LocalFleet) Configure(n int, params FleetParams,
	nextID, nextSeq func() uint64, submit func(*task.Task)) error {
	if f.eng == nil {
		return fmt.Errorf("workload: fleet: nil engine")
	}
	if n <= 0 {
		return fmt.Errorf("workload: fleet: %d nodes, want > 0", n)
	}
	if submit == nil || nextID == nil || nextSeq == nil || params.Pool == nil {
		return fmt.Errorf("workload: fleet: nil dependency")
	}
	if params.MeanExec <= 0 || params.SlackMax < params.SlackMin {
		return fmt.Errorf("workload: fleet: bad params %+v", params)
	}
	if err := ValidateDemand(params.Demand); err != nil {
		return err
	}
	mf, err := peakFactor(params.Mod, params.Horizon)
	if err != nil {
		return err
	}
	f.maxFactor, f.horizon = mf, params.Horizon
	f.meanExec = params.MeanExec
	f.slackMin, f.slackMax = params.SlackMin, params.SlackMax
	f.pex, f.demand, f.mod, f.pool = params.Pex, params.Demand, params.Mod, params.Pool
	f.nextID, f.nextSq, f.submit = nextID, nextSeq, submit
	if len(f.streams) != n {
		f.streams = make([]localStream, n)
		for i := range f.streams {
			f.streams[i].node = int32(i)
		}
	}
	f.cb = f.eng.RegisterArg(f.fireFn)
	return nil
}

// SeedNode sets node i's arrival rate and reseeds its stream for the
// run. A zero rate silences the node.
func (f *LocalFleet) SeedNode(i int, rate float64, seed, hash uint64) error {
	if rate < 0 {
		return fmt.Errorf("workload: fleet: node %d rate %v, want >= 0", i, rate)
	}
	s := &f.streams[i]
	s.r.ReseedStream(seed, hash)
	s.peakMean = 0
	if rate > 0 {
		s.peakMean = 1 / (rate * f.maxFactor)
	}
	return nil
}

// Start schedules every node's first arrival.
func (f *LocalFleet) Start() {
	for i := range f.streams {
		if s := &f.streams[i]; s.peakMean > 0 {
			f.schedule(s)
		}
	}
}

// fire is the arrival handler: it emits the arrival node's pending
// event stands for and schedules the stream's next one.
func (f *LocalFleet) fire(node int32) {
	s := &f.streams[node]
	f.arrive(s)
	f.schedule(s)
}

// schedule queues the stream's next arrival: one gap ahead when
// unmodulated, else the first candidate the thinning loop keeps.
func (f *LocalFleet) schedule(s *localStream) {
	if f.mod == nil {
		f.eng.MustScheduleArg(s.r.Exponential(s.peakMean), f.cb, s.node)
		return
	}
	f.thin(s, f.eng.Now())
}

// thin runs the thinning loop of a modulated stream from time t:
// candidates follow one another by peak-rate gaps, each kept with
// probability FactorAt/MaxFactor, and the first one kept becomes the
// stream's pending event. t accumulates the gaps exactly as the engine
// would sum now+gap, so every arrival lands on the float time an
// event-per-candidate loop would give it. The loop ends at the horizon,
// where no candidate could fire anyway.
func (f *LocalFleet) thin(s *localStream, t float64) {
	for {
		t += s.r.Exponential(s.peakMean)
		if t > f.horizon {
			return
		}
		if thinAccept(f.mod, f.maxFactor, t, &s.r) {
			mustCallAt(f.eng, t, f.cb, s.node)
			return
		}
	}
}

// arrive emits one local task at the current time: demand, slack, then
// the prediction, all on the node's stream.
func (f *LocalFleet) arrive(s *localStream) {
	now := f.eng.Now()
	ex := sampleDemand(f.demand, &s.r, f.meanExec)
	sl := s.r.Uniform(f.slackMin, f.slackMax)
	t := f.pool.Get()
	t.ID = f.nextID()
	t.Class = task.Local
	t.Stage = -1
	t.NodeID = int(s.node)
	t.Arrival = now
	t.Deadline = now + ex + sl // dl = ar + ex + sl
	t.FirmDeadline = now + ex + sl
	t.Exec = ex
	t.Pex = f.pex.Sample(&s.r, ex)
	t.Seq = f.nextSq()
	f.submit(t)
}
