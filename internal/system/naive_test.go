package system

import (
	"cmp"
	"fmt"
	"slices"
	"sort"
	"strconv"
	"strings"

	"repro/internal/rng"
	"repro/internal/scenario"
	"repro/internal/sim"
	"repro/internal/stats"
	"repro/internal/task"
	"repro/internal/workload"
)

// This file is a deliberately naive simulator of the paper's section 3.2
// system, the reference the pooled simulator is checked against. It
// shares no scheduling, deadline or queue code with the system: its
// event list is one sorted slice, each node's ready queue is a plain
// slice scanned for the policy's minimum, and virtual deadlines come
// straight from the SSP/PSP formulas. The only code it borrows is the
// workload's open arrival streams, recorded on a private engine before
// the simulation starts (naiveArrivals); they are pinned draw for draw
// by the workload package's own reference tests.

// naiveLocal is one recorded local arrival.
type naiveLocal struct {
	at, deadline, exec, pex float64
}

// naiveGlobal is one recorded global arrival: its graph (leaves carry
// placement, demand, prediction and leaf index) and end-to-end deadline.
type naiveGlobal struct {
	g            *task.Graph
	at, deadline float64
}

// naiveArrivals runs the system's local fleet and global source alone on
// a private engine up to the horizon, exactly as a run configures them,
// and returns every arrival they emit: locals per node, globals in
// arrival order.
func naiveArrivals(cfg Config) ([][]naiveLocal, []naiveGlobal, error) {
	rates, err := cfg.DeriveRates()
	if err != nil {
		return nil, nil, err
	}
	eng := sim.New()
	pool := &task.Pool{}
	locals := make([][]naiveLocal, cfg.Nodes)
	var id, seq uint64
	fleet := workload.NewLocalFleet(eng)
	err = fleet.Configure(cfg.Nodes, workload.FleetParams{
		MeanExec: 1 / cfg.MuLocal,
		SlackMin: cfg.SlackMin,
		SlackMax: cfg.SlackMax,
		Pex:      workload.PexModel{RelErr: cfg.PexRelErr},
		Demand:   cfg.scenarioDemand(),
		Mod:      cfg.scenarioMod(),
		Horizon:  cfg.Horizon,
		Pool:     pool,
	}, func() uint64 { id++; return id }, func() uint64 { seq++; return seq }, func(t *task.Task) {
		locals[t.NodeID] = append(locals[t.NodeID], naiveLocal{t.Arrival, t.Deadline, t.Exec, t.Pex})
		pool.Put(t)
	})
	if err != nil {
		return nil, nil, err
	}
	var multSum float64
	for _, m := range cfg.LocalRateMultipliers {
		multSum += m
	}
	for i := 0; i < cfg.Nodes; i++ {
		rate := rates.LocalPerNode
		if cfg.LocalRateMultipliers != nil {
			rate = rates.LocalPerNode * cfg.LocalRateMultipliers[i] * float64(cfg.Nodes) / multSum
		}
		if err := fleet.SeedNode(i, rate, cfg.Seed, rng.StreamHashParts("local-", uint64(i), "")); err != nil {
			return nil, nil, err
		}
	}
	fleet.Start()

	var globals []naiveGlobal
	if rates.Global > 0 {
		var r rng.Source
		r.ReseedStream(cfg.Seed, rng.StreamHash("global"))
		var src workload.GlobalSource
		src.Init(eng)
		err := src.Reconfigure(&r, cfg.Nodes, workload.GlobalParams{
			Rate:          rates.Global,
			Shape:         cfg.shape(),
			SlackMin:      cfg.SlackMin,
			SlackMax:      cfg.SlackMax,
			RelFlex:       cfg.RelFlex,
			MeanLocalExec: 1 / cfg.MuLocal,
			Mod:           cfg.scenarioMod(),
			Horizon:       cfg.Horizon,
		}, func(sp workload.Spec) {
			globals = append(globals, naiveGlobal{sp.Graph, sp.Arrival, sp.Deadline})
		})
		if err != nil {
			return nil, nil, err
		}
		src.Start()
	}
	eng.Run(cfg.Horizon)
	return locals, globals, nil
}

// naiveOutcome is how a task's life ended: still queued or running at
// the horizon, served, or discarded by the tardy policy.
type naiveOutcome int

const (
	outInFlight naiveOutcome = iota
	outCompleted
	outAborted
)

// naiveRecord is what the comparison checks for one task, keyed by its
// ID. Start is the first dispatch time, valid when Dispatched.
type naiveRecord struct {
	Class       task.Class
	GlobalID    uint64
	Stage       int
	Node        int
	Arrival     float64
	Deadline    float64
	Dispatched  bool
	Start       float64
	Finish      float64
	Outcome     naiveOutcome
	Preemptions int
}

// naiveRatio counts outcomes of one miss ratio.
type naiveRatio struct{ hits, total int64 }

func (r *naiveRatio) observe(hit bool) {
	r.total++
	if hit {
		r.hits++
	}
}

// naiveCounts are the Metrics the reference reproduces: every integer
// counter, and the response, tardiness and slack accumulators, fed the
// same observations in the same order.
type naiveCounts struct {
	LocalGenerated, LocalDone, LocalAborted, LocalInFlight     int64
	GlobalGenerated, GlobalDone, GlobalAborted, GlobalInFlight int64
	LocalMiss, GlobalMiss, StageMiss                           naiveRatio
	StageMissByIndex                                           []naiveRatio
	LocalResponse, GlobalResponse, GlobalTardiness             stats.Welford
	InheritedSlack                                             stats.Welford
	StageSlackByIndex                                          []stats.Welford
}

// naiveTask is one schedulable unit: a local task or a global subtask.
type naiveTask struct {
	id, seq   uint64
	rec       *naiveRecord
	firm      float64 // end-to-end deadline (locals: their own)
	exec, pex float64
	remaining float64
	inst      *naiveInst
	group     *naiveGroup // enclosing serial/parallel group; nil at the root
}

// naiveInst is one global task. inherited sums the slack its stages
// left unused (deadline − finish of each stage that met its deadline).
type naiveInst struct {
	id                uint64
	arrival, deadline float64
	inherited         float64
	aborted           bool
}

// naiveGroup is a serial group waiting to release its next stage, or a
// parallel group counting its running branches.
type naiveGroup struct {
	g         *task.Graph
	parent    *naiveGroup
	deadline  float64
	next      int
	remaining int
}

// naiveNode is one node's server and ready queue.
type naiveNode struct {
	ready        []*naiveTask
	running      *naiveTask
	speed        float64
	segmentStart float64
	completion   *naiveEvent
}

type naiveEventKind int

const (
	evLocal naiveEventKind = iota
	evGlobal
	evDone
	evSpeed
)

// naiveEvent is one entry of the sorted event list; ties in time fire in
// scheduling order.
type naiveEvent struct {
	at        float64
	seq       uint64
	kind      naiveEventKind
	node, idx int
	speed     float64
	cancelled bool
}

// naiveSim is the reference simulator's whole state.
type naiveSim struct {
	cfg     Config
	ssp     string
	div     float64 // DIV-x divisor; 0 for the deadline-inheriting PSPs
	gf      bool    // globals-first class priority
	warmup  float64
	now     float64
	events  []*naiveEvent // sorted by (at, seq) descending: the next event is last
	evSeq   uint64
	nodes   []naiveNode
	locals  [][]naiveLocal
	globals []naiveGlobal
	cursor  []int // next unscheduled local arrival per node

	taskID, taskSeq uint64
	inflight        int64
	records         map[uint64]*naiveRecord
	counts          naiveCounts
}

// naiveRun simulates cfg and returns every task's record, keyed by task
// ID, and the run's metrics.
func naiveRun(cfg Config) (map[uint64]naiveRecord, naiveCounts, error) {
	s := &naiveSim{cfg: cfg, records: map[uint64]*naiveRecord{}}
	s.ssp = strings.ToUpper(cfg.SSP)
	switch s.ssp {
	case "UD", "ED", "EQS", "EQF":
	default:
		return nil, naiveCounts{}, fmt.Errorf("naive: SSP %q not modelled", cfg.SSP)
	}
	switch psp := strings.ToUpper(cfg.PSP); {
	case psp == "UD":
	case psp == "GF":
		s.gf = true
	case strings.HasPrefix(psp, "DIV"):
		x, err := strconv.ParseFloat(strings.TrimPrefix(strings.TrimPrefix(psp, "DIV"), "-"), 64)
		if err != nil || x <= 0 {
			return nil, naiveCounts{}, fmt.Errorf("naive: PSP %q not modelled", cfg.PSP)
		}
		s.div = x
	default:
		return nil, naiveCounts{}, fmt.Errorf("naive: PSP %q not modelled", cfg.PSP)
	}
	switch string(cfg.Scheduler) {
	case "EDF", "MLF", "FCFS":
	default:
		return nil, naiveCounts{}, fmt.Errorf("naive: scheduler %q not modelled", cfg.Scheduler)
	}
	s.warmup = cfg.Warmup
	if s.warmup <= 0 {
		s.warmup = 0.05 * cfg.Horizon
	}
	var err error
	if s.locals, s.globals, err = naiveArrivals(cfg); err != nil {
		return nil, naiveCounts{}, err
	}
	s.nodes = make([]naiveNode, cfg.Nodes)
	for i := range s.nodes {
		s.nodes[i].speed = 1
	}

	s.cursor = make([]int, cfg.Nodes)
	for i := range s.locals {
		s.nextLocal(i)
	}
	if len(s.globals) > 0 {
		s.schedule(&naiveEvent{at: s.globals[0].at, kind: evGlobal})
	}
	if cfg.Scenario != nil {
		// Speed changes in start-time order; a recovery at t fires
		// before another fault starting at t on the same node.
		evs := slices.Clone(cfg.Scenario.Events())
		slices.SortStableFunc(evs, func(a, b scenario.EventSpec) int { return cmp.Compare(a.At, b.At) })
		for _, ev := range evs {
			if ev.At >= cfg.Horizon {
				continue
			}
			s.schedule(&naiveEvent{at: ev.At, kind: evSpeed, node: ev.Node, speed: ev.Factor})
			if end := ev.At + ev.Duration; end < cfg.Horizon {
				s.schedule(&naiveEvent{at: end, kind: evSpeed, node: ev.Node, speed: 1})
			}
		}
	}

	for len(s.events) > 0 {
		ev := s.events[len(s.events)-1]
		if ev.at > cfg.Horizon {
			break
		}
		s.events = s.events[:len(s.events)-1]
		if ev.cancelled {
			continue
		}
		s.now = ev.at
		switch ev.kind {
		case evLocal:
			s.localArrives(ev.node, ev.idx)
			s.nextLocal(ev.node)
		case evGlobal:
			s.globalArrives(s.globals[ev.idx])
			if next := ev.idx + 1; next < len(s.globals) {
				s.schedule(&naiveEvent{at: s.globals[next].at, kind: evGlobal, idx: next})
			}
		case evDone:
			s.finish(ev.node)
		case evSpeed:
			s.setSpeed(ev.node, ev.speed)
		}
	}

	c := &s.counts
	c.LocalInFlight = c.LocalGenerated - c.LocalDone
	c.GlobalInFlight = s.inflight
	out := make(map[uint64]naiveRecord, len(s.records))
	for id, r := range s.records {
		out[id] = *r
	}
	return out, s.counts, nil
}

// schedule inserts ev into the sorted event list.
func (s *naiveSim) schedule(ev *naiveEvent) {
	s.evSeq++
	ev.seq = s.evSeq
	i := sort.Search(len(s.events), func(i int) bool {
		a := s.events[i]
		return a.at < ev.at || (a.at == ev.at && a.seq < ev.seq)
	})
	s.events = slices.Insert(s.events, i, ev)
}

// nextLocal schedules node i's next recorded local arrival, if any.
func (s *naiveSim) nextLocal(i int) {
	if k := s.cursor[i]; k < len(s.locals[i]) {
		s.cursor[i]++
		s.schedule(&naiveEvent{at: s.locals[i][k].at, kind: evLocal, node: i, idx: k})
	}
}

// newTask creates a task with the next ID and FIFO sequence number.
func (s *naiveSim) newTask(rec naiveRecord) *naiveTask {
	s.taskID++
	s.taskSeq++
	t := &naiveTask{id: s.taskID, seq: s.taskSeq, rec: &rec}
	s.records[t.id] = t.rec
	return t
}

func (s *naiveSim) localArrives(node, k int) {
	l := s.locals[node][k]
	s.counts.LocalGenerated++
	t := s.newTask(naiveRecord{Class: task.Local, Stage: -1, Node: node, Arrival: s.now, Deadline: l.deadline})
	t.firm, t.exec, t.pex = l.deadline, l.exec, l.pex
	s.submit(node, t)
}

func (s *naiveSim) globalArrives(gl naiveGlobal) {
	s.counts.GlobalGenerated++
	s.inflight++
	inst := &naiveInst{id: uint64(s.counts.GlobalGenerated), arrival: gl.at, deadline: gl.deadline}
	s.activate(inst, gl.g, gl.deadline, nil)
}

// naivePex is a graph node's predicted length: the sum of a serial
// group's stages, and for a parallel group the maximum over its
// branches, since whatever follows it waits for the latest one.
func naivePex(g *task.Graph) float64 {
	switch g.Kind {
	case task.KindSimple:
		return g.Pex
	case task.KindSerial:
		sum := 0.0
		for _, c := range g.Children {
			sum += naivePex(c)
		}
		return sum
	default:
		longest := 0.0
		for _, c := range g.Children {
			if p := naivePex(c); p > longest {
				longest = p
			}
		}
		return longest
	}
}

// activate releases graph node g of inst now with virtual deadline dl.
func (s *naiveSim) activate(inst *naiveInst, g *task.Graph, dl float64, parent *naiveGroup) {
	switch g.Kind {
	case task.KindSimple:
		t := s.newTask(naiveRecord{Class: task.Global, GlobalID: inst.id, Stage: g.LeafIndex,
			Node: g.NodeID, Arrival: s.now, Deadline: dl})
		t.firm, t.exec, t.pex = inst.deadline, g.Exec, g.Pex
		t.inst, t.group = inst, parent
		s.submit(g.NodeID, t)
	case task.KindSerial:
		s.releaseStage(inst, &naiveGroup{g: g, parent: parent, deadline: dl})
	case task.KindParallel:
		grp := &naiveGroup{g: g, parent: parent, deadline: dl, remaining: len(g.Children)}
		for _, c := range g.Children {
			bdl := dl // UD and GF: every branch keeps the group deadline
			if s.div > 0 {
				// DIV-x: dl(Ti) = ar(T) + [dl(T) − ar(T)]/(n·x).
				bdl = s.now + (dl-s.now)/(float64(len(g.Children))*s.div)
			}
			s.activate(inst, c, bdl, grp)
		}
	}
}

// releaseStage releases the next stage of a serial group now, its
// deadline set by the SSP formula from the stages still to run, or
// finishes the group.
func (s *naiveSim) releaseStage(inst *naiveInst, grp *naiveGroup) {
	if grp.next == len(grp.g.Children) {
		s.childDone(inst, grp.parent)
		return
	}
	rest := grp.g.Children[grp.next:]
	grp.next++
	p := make([]float64, len(rest))
	sum, after := 0.0, 0.0
	for i, c := range rest {
		p[i] = naivePex(c)
		sum += p[i]
		if i > 0 {
			after += p[i]
		}
	}
	now, D := s.now, grp.deadline
	var dl float64
	switch {
	case s.ssp == "UD": // the group's own deadline
		dl = D
	case s.ssp == "ED": // minus what the later stages need
		dl = D - after
	case s.ssp == "EQS" || sum <= 0: // an equal share of the remaining slack
		dl = now + p[0] + (D-now-sum)/float64(len(p))
	default: // EQF: a share of the remaining slack proportional to pex
		dl = now + p[0] + (D-now-sum)*p[0]/sum
	}
	s.activate(inst, rest[0], dl, grp)
}

// childDone records that one child of grp finished; a nil group means
// the whole global task finished.
func (s *naiveSim) childDone(inst *naiveInst, grp *naiveGroup) {
	switch {
	case grp == nil:
		s.inflight--
		c := &s.counts
		c.GlobalDone++
		if inst.arrival >= s.warmup {
			missed := s.now > inst.deadline
			c.GlobalMiss.observe(missed)
			c.GlobalResponse.Add(s.now - inst.arrival)
			if missed {
				c.GlobalTardiness.Add(s.now - inst.deadline)
			}
			c.InheritedSlack.Add(inst.inherited)
		}
	case grp.g.Kind == task.KindSerial:
		s.releaseStage(inst, grp)
	default:
		grp.remaining--
		if grp.remaining == 0 {
			s.childDone(inst, grp.parent)
		}
	}
}

// less orders two waiting tasks by the node's policy: globals first under
// GF, then EDF by deadline, MLF by laxity (the dispatch instant is common
// to every waiting task, so dl − pex orders as dl − now − pex), FCFS by
// submission; ties go to the earlier submission.
func (s *naiveSim) less(a, b *naiveTask) bool {
	if s.gf && a.rec.Class != b.rec.Class {
		return a.rec.Class == task.Global
	}
	var ka, kb float64
	switch string(s.cfg.Scheduler) {
	case "EDF":
		ka, kb = a.rec.Deadline, b.rec.Deadline
	case "MLF":
		ka, kb = a.rec.Deadline-a.pex, b.rec.Deadline-b.pex
	}
	if ka != kb {
		return ka < kb
	}
	return a.seq < b.seq
}

// submit puts t in node i's ready queue; a preemptive node suspends its
// running task for an earlier deadline.
func (s *naiveSim) submit(i int, t *naiveTask) {
	n := &s.nodes[i]
	n.ready = append(n.ready, t)
	if cur := n.running; s.cfg.Preemptive && cur != nil && t.rec.Deadline < cur.rec.Deadline &&
		cur.remaining-(s.now-n.segmentStart)*n.speed > 0 {
		n.completion.cancelled = true
		cur.remaining -= (s.now - n.segmentStart) * n.speed
		cur.rec.Preemptions++
		n.running = nil
		n.ready = append(n.ready, cur)
	}
	s.dispatch(i)
}

// dispatch starts node i's best waiting task on an idle, running server,
// discarding tardy ones under an abort policy.
func (s *naiveSim) dispatch(i int) {
	n := &s.nodes[i]
	if n.running != nil || n.speed == 0 {
		return
	}
	for len(n.ready) > 0 {
		best := 0
		for j, t := range n.ready {
			if s.less(t, n.ready[best]) {
				best = j
			}
		}
		t := n.ready[best]
		n.ready = slices.Delete(n.ready, best, best+1)
		if (s.cfg.TardyAbort && s.now > t.rec.Deadline) || (s.cfg.FirmAbort && s.now > t.firm) {
			s.abort(t)
			continue
		}
		if !t.rec.Dispatched {
			t.rec.Dispatched, t.rec.Start = true, s.now
			t.remaining = t.exec
		}
		n.running, n.segmentStart = t, s.now
		n.completion = &naiveEvent{at: s.now + t.remaining/n.speed, kind: evDone, node: i}
		s.schedule(n.completion)
		return
	}
}

// finish completes node i's running task.
func (s *naiveSim) finish(i int) {
	n := &s.nodes[i]
	t := n.running
	n.running = nil
	t.rec.Outcome, t.rec.Finish = outCompleted, s.now
	missed := s.now > t.rec.Deadline
	c := &s.counts
	if t.rec.Class == task.Local {
		c.LocalDone++
		if t.rec.Arrival >= s.warmup {
			c.LocalMiss.observe(missed)
			c.LocalResponse.Add(s.now - t.rec.Arrival)
		}
	} else {
		if t.rec.Arrival >= s.warmup {
			c.StageMiss.observe(missed)
			for len(c.StageMissByIndex) <= t.rec.Stage {
				c.StageMissByIndex = append(c.StageMissByIndex, naiveRatio{})
				c.StageSlackByIndex = append(c.StageSlackByIndex, stats.Welford{})
			}
			c.StageMissByIndex[t.rec.Stage].observe(missed)
			// The slack the stage was given at its release.
			c.StageSlackByIndex[t.rec.Stage].Add(t.rec.Deadline - t.rec.Arrival - t.pex)
		}
		// An aborted global task's remaining subtasks still occupy
		// their servers, but release nothing.
		if !t.inst.aborted {
			if !missed {
				t.inst.inherited += t.rec.Deadline - s.now
			}
			s.childDone(t.inst, t.group)
		}
	}
	s.dispatch(i)
}

// abort discards t at dispatch; the first discarded subtask kills its
// global task.
func (s *naiveSim) abort(t *naiveTask) {
	t.rec.Outcome, t.rec.Finish = outAborted, s.now
	c := &s.counts
	if t.rec.Class == task.Local {
		c.LocalAborted++
		c.LocalDone++
		if t.rec.Arrival >= s.warmup {
			c.LocalMiss.observe(true)
		}
		return
	}
	if inst := t.inst; !inst.aborted {
		inst.aborted = true
		s.inflight--
		c.GlobalDone++
		c.GlobalAborted++
		if inst.arrival >= s.warmup {
			c.GlobalMiss.observe(true)
		}
	}
}

// setSpeed changes node i's service speed (0 freezes it), settling the
// running task's progress and rescheduling its completion.
func (s *naiveSim) setSpeed(i int, speed float64) {
	n := &s.nodes[i]
	if speed == n.speed {
		return
	}
	if cur := n.running; cur != nil {
		if n.speed > 0 {
			if cur.remaining -= (s.now - n.segmentStart) * n.speed; cur.remaining < 0 {
				cur.remaining = 0
			}
			n.completion.cancelled = true
		}
		n.segmentStart = s.now
		if speed > 0 {
			n.completion = &naiveEvent{at: s.now + cur.remaining/speed, kind: evDone, node: i}
			s.schedule(n.completion)
		}
	}
	n.speed = speed
	s.dispatch(i)
}
