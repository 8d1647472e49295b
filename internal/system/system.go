package system

import (
	"fmt"

	"repro/internal/core"
	"repro/internal/node"
	"repro/internal/procmgr"
	"repro/internal/rng"
	"repro/internal/scenario"
	"repro/internal/sched"
	"repro/internal/sim"
	"repro/internal/stats"
	"repro/internal/task"
	"repro/internal/trace"
	"repro/internal/workload"
)

// Workspace carries the reusable state of a simulation replication: the
// engine (event queue and slot arrays), the task free list, the node
// group (one contiguous array of per-node server state), the ready-queue
// bank (one arena for every node's queue), the process manager's pending
// tables, and the workload sources themselves — held as contiguous
// slices of values, one local source per node plus the global source,
// with their RNG streams reseeded and the sources reconfigured in place
// each run. Reusing one workspace across the sequential replications of
// a runner worker lets every run after the first start at its working
// capacity instead of re-growing from zero, and pays no per-node setup
// allocations. A Workspace is single-threaded — one per worker — and
// results are bit-identical with or without one.
//
// Every run goes through a workspace and its pools: Run simply uses a
// fresh one, so there is exactly one allocation path to keep
// deterministic. The naive simulator in the package's tests is the
// independent reference it is checked against.
type Workspace struct {
	eng      *sim.Engine
	pool     task.Pool
	graphs   task.GraphPool
	group    *node.Group
	bank     *sched.Bank
	mgr      *procmgr.Manager
	stageCap int // observed stage-index breadth, to pre-size Metrics

	// Warm per-run setup. The stable callbacks below never capture
	// run-local variables: they indirect through env, which RunWith
	// repoints at the current run's state, so one set of closures serves
	// every replication — including the single submit callback shared by
	// all local sources, which routes on the task's own NodeID.
	env        runEnv
	nextID     func() uint64
	nextSeq    func() uint64
	onDone     func(*task.Task)
	onAbort    func(*task.Task)
	onGlobal   func(workload.Spec)
	onInstDone func(*procmgr.Instance)
	submit     func(*task.Task)

	fleet     *workload.LocalFleet
	localHash []uint64 // cached rng.StreamHash("local-<i>")
	global    workload.GlobalSource
	globalRng rng.Source
	srcEng    *sim.Engine // engine the warm sources are registered on

	// Scenario timeline storage, reused across runs: the start-sorted
	// events and the speed changes fault events index.
	scEvents []scenario.EventSpec
	faults   []faultEvent
}

// NewWorkspace returns an empty workspace; the first run populates it.
func NewWorkspace() *Workspace { return &Workspace{} }

// globalStreamHash is the global source's stream hash, hoisted so warm
// runs reseed without re-hashing the label.
var globalStreamHash = rng.StreamHash("global")

// runEnv is the per-run mutable state behind a workspace's stable
// callbacks: the metrics, manager, and node group of the current
// replication, plus the run-scoped counters.
type runEnv struct {
	metrics *Metrics
	mgr     *procmgr.Manager
	group   *node.Group
	pool    *task.Pool
	warmup  float64
	seq     uint64
	taskID  uint64
	instID  uint64
}

func (env *runEnv) nextSeqFn() uint64 { env.seq++; return env.seq }
func (env *runEnv) nextIDFn() uint64  { env.taskID++; return env.taskID }

// taskDone is the node-group completion callback shared by every run
// that uses this env.
func (env *runEnv) taskDone(t *task.Task) {
	if t.Class == task.Global {
		if t.Arrival >= env.warmup {
			// Stage metrics use the subtask's own release time.
			env.metrics.StageMiss.Observe(t.Missed())
			env.metrics.observeStage(int(t.Stage), t.Missed(), t.Deadline-t.Arrival-t.Pex)
		}
		// The manager recycles the subtask; t is dead past this call.
		if err := env.mgr.Complete(t); err != nil {
			panic(fmt.Sprintf("system: %v", err))
		}
		return
	}
	env.metrics.LocalDone++
	if t.Arrival >= env.warmup {
		env.metrics.LocalMiss.Observe(t.Missed())
		env.metrics.LocalResponse.Add(t.Finish - t.Arrival)
	}
	if env.metrics.Series != nil {
		env.metrics.Series.ObserveLocal(t.Finish, t.Missed())
	}
	env.pool.Put(t)
}

// taskAbort is the node-group abort callback shared by every run that
// uses this env.
func (env *runEnv) taskAbort(t *task.Task) {
	if t.Class == task.Global {
		// The manager recycles the subtask; t is dead past this call.
		if err := env.mgr.Abort(t); err != nil {
			panic(fmt.Sprintf("system: %v", err))
		}
		return
	}
	// An aborted local task is a missed deadline by definition.
	env.metrics.LocalAborted++
	env.metrics.LocalDone++
	if t.Arrival >= env.warmup {
		env.metrics.LocalMiss.Observe(true)
	}
	if env.metrics.Series != nil {
		env.metrics.Series.ObserveLocal(t.Finish, true)
	}
	env.pool.Put(t)
}

// globalSpec wraps a sampled global task into a manager instance.
func (env *runEnv) globalSpec(sp workload.Spec) {
	env.instID++
	env.metrics.GlobalGenerated++
	inst := env.mgr.NewInstance()
	inst.ID = env.instID
	inst.Graph = sp.Graph
	inst.Arrival = sp.Arrival
	inst.Deadline = sp.Deadline
	env.mgr.Start(inst)
}

// instanceDone records one finished global instance.
func (env *runEnv) instanceDone(inst *procmgr.Instance) {
	m := env.metrics
	m.GlobalDone++
	if inst.Aborted {
		m.GlobalAborted++
	}
	if m.Series != nil {
		if inst.Aborted {
			// Binned by abort time; a discarded instance has no
			// meaningful lateness.
			m.Series.ObserveGlobalAbort(inst.Finish)
		} else {
			m.Series.ObserveGlobal(inst.Finish, inst.Missed(), inst.Finish-inst.Deadline)
		}
	}
	if inst.Arrival < env.warmup {
		return
	}
	m.GlobalMiss.Observe(inst.Missed())
	if !inst.Aborted {
		m.GlobalResponse.Add(inst.Finish - inst.Arrival)
		if inst.Missed() {
			m.GlobalTardiness.Add(inst.Finish - inst.Deadline)
		}
		m.InheritedSlack.Add(inst.InheritedSlack)
	}
}

// bankQueueDepth is the per-lane heap capacity the bank's arena
// pre-allocates, beyond the lane's cached top entry. It is sized from
// the measured depth distribution: in a 65536-node Table 1 replication
// (horizon 20) 89% of nodes never hold more than three waiting tasks —
// the top plus two in the heap — and 99.5% never more than seven. Lanes
// that burst past the carve grow their own array, which a warm
// workspace keeps, so the rare deep lane costs one allocation in the
// first replication instead of six unused entries on every lane.
const bankQueueDepth = 2

// Run executes one simulation replication and returns its metrics. It is
// deterministic: equal configs (including Seed) produce identical
// metrics.
func Run(cfg Config) (*Metrics, error) {
	return RunWith(cfg, nil)
}

// RunWith is Run reusing the given workspace's buffers and pools (nil
// runs on a fresh single-use workspace).
func RunWith(cfg Config, ws *Workspace) (*Metrics, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	rates, err := cfg.DeriveRates()
	if err != nil {
		return nil, err
	}
	serial, err := core.SerialByName(cfg.SSP)
	if err != nil {
		return nil, err
	}
	parallel, err := core.ParallelByName(cfg.PSP)
	if err != nil {
		return nil, err
	}

	if ws == nil {
		ws = NewWorkspace()
	}
	if ws.eng == nil {
		ws.eng = sim.New()
	} else {
		ws.eng.Reset()
	}
	eng := ws.eng
	pool, graphs := &ws.pool, &ws.graphs
	// Setup resets the last replication's engine, queues and tables, so
	// nothing will reference its tasks or graphs any more: reclaim them
	// all, including those it left in flight at the horizon, so a warm
	// workspace runs in the same slabs every replication.
	pool.Rewind()
	graphs.Rewind()

	metrics := &Metrics{}
	if ws.stageCap == 0 && cfg.M > 0 {
		// Seed the stage-accumulator breadth from the configured subtask
		// count so even the first replication pre-sizes its metrics.
		ws.stageCap = cfg.M
	}
	if ws.stageCap > 0 {
		metrics.StageMissByIndex = make([]stats.Ratio, 0, ws.stageCap)
		metrics.StageSlackByIndex = make([]stats.Welford, 0, ws.stageCap)
	}
	if cfg.Scenario != nil {
		metrics.Series = scenario.NewSeries(cfg.Scenario.Interval(cfg.Horizon), cfg.Horizon)
	}

	// env carries the run's mutable state; the stable callbacks routed
	// through it are created once per workspace and reused every run.
	env := &ws.env
	*env = runEnv{}
	env.metrics, env.pool, env.warmup = metrics, pool, cfg.warmup()

	if ws.nextSeq == nil {
		ws.nextSeq, ws.nextID = env.nextSeqFn, env.nextIDFn
		ws.onDone, ws.onAbort = env.taskDone, env.taskAbort
		ws.onGlobal = env.globalSpec
		ws.onInstDone = env.instanceDone
		// One submit callback serves every local source: the task's own
		// NodeID routes it, so setup allocates no per-node closures.
		ws.submit = func(t *task.Task) {
			env.metrics.LocalGenerated++
			env.group.Submit(int(t.NodeID), t)
		}
	}
	nextSeq, nextID := ws.nextSeq, ws.nextID

	var observer node.Observer
	if cfg.Trace != nil {
		rec := cfg.Trace
		observer = func(ev trace.Kind, now float64, t *task.Task) {
			rec.Record(trace.FromTask(ev, now, t))
		}
	}

	globalsFirst := core.NeedsClassPriority(parallel)
	// Ready queues live in one bank-wide arena; Configure resets it in
	// place when the shape matches the previous run.
	if ws.bank == nil {
		ws.bank = sched.NewBank()
	}
	if err := ws.bank.Configure(cfg.Nodes, cfg.Scheduler, globalsFirst, bankQueueDepth); err != nil {
		return nil, err
	}
	// All per-node server state lives in one contiguous group, reused
	// across a workspace's replications.
	if ws.group == nil {
		ws.group = &node.Group{}
	}
	group := ws.group
	if err := group.Configure(node.GroupConfig{
		Engine:     eng,
		Bank:       ws.bank,
		Policy:     cfg.tardyPolicy(),
		Preemptive: cfg.Preemptive,
		OnDone:     ws.onDone,
		OnAbort:    ws.onAbort,
		Observer:   observer,
	}); err != nil {
		return nil, err
	}
	env.group = group

	mcfg := procmgr.Config{
		Engine:     eng,
		Group:      group,
		Assigner:   core.NewAssigner(serial, parallel),
		OnDone:     ws.onInstDone,
		NextSeq:    nextSeq,
		NextTaskID: nextID,
		Pool:       pool,
		GraphPool:  graphs,
	}
	if ws.mgr == nil {
		ws.mgr, err = procmgr.New(mcfg)
	} else {
		err = ws.mgr.Reconfigure(mcfg)
	}
	if err != nil {
		return nil, err
	}
	mgr := ws.mgr
	env.mgr = mgr

	// The warm path reuses the workspace's local-stream fleet and RNG
	// streams; (re)bind them when the node count or the engine changed
	// (a fresh engine invalidates the sources' callback bindings for
	// good — re-registration per run is handled inside Configure and
	// Reconfigure, which must see the same engine object). All per-node
	// stream state lives in the fleet's contiguous tables: setup touches
	// one allocation per table, not one per node.
	if ws.fleet == nil {
		ws.fleet = workload.NewLocalFleet(eng)
	}
	if ws.srcEng != eng {
		ws.srcEng = eng
		ws.fleet.Init(eng)
		ws.global.Init(eng)
	}
	if len(ws.localHash) != cfg.Nodes {
		ws.localHash = make([]uint64, cfg.Nodes)
		for i := range ws.localHash {
			ws.localHash[i] = rng.StreamHashParts("local-", uint64(i), "")
		}
	}

	// Local streams: one fleet, one substream per node. Rate multipliers
	// skew per-node load while preserving the total.
	if err := ws.fleet.Configure(cfg.Nodes, workload.FleetParams{
		MeanExec: 1 / cfg.MuLocal,
		SlackMin: cfg.SlackMin,
		SlackMax: cfg.SlackMax,
		Pex:      workload.PexModel{RelErr: cfg.PexRelErr},
		Demand:   cfg.scenarioDemand(),
		Mod:      cfg.scenarioMod(),
		Horizon:  cfg.Horizon,
		Pool:     pool,
	}, nextID, nextSeq, ws.submit); err != nil {
		return nil, err
	}
	multipliers := cfg.LocalRateMultipliers
	var multSum float64
	if multipliers != nil {
		for _, m := range multipliers {
			multSum += m
		}
	}
	for i := 0; i < cfg.Nodes; i++ {
		rate := rates.LocalPerNode
		if multipliers != nil {
			rate = rates.LocalPerNode * multipliers[i] * float64(cfg.Nodes) / multSum
		}
		if err := ws.fleet.SeedNode(i, rate, cfg.Seed, ws.localHash[i]); err != nil {
			return nil, err
		}
	}
	ws.fleet.Start()

	// Global stream.
	if rates.Global > 0 {
		params := workload.GlobalParams{
			Rate:          rates.Global,
			Shape:         cfg.shape(),
			SlackMin:      cfg.SlackMin,
			SlackMax:      cfg.SlackMax,
			RelFlex:       cfg.RelFlex,
			MeanLocalExec: 1 / cfg.MuLocal,
			Mod:           cfg.scenarioMod(),
			Horizon:       cfg.Horizon,
			GraphPool:     graphs,
		}
		ws.globalRng.ReseedStream(cfg.Seed, globalStreamHash)
		if err := ws.global.Reconfigure(&ws.globalRng, cfg.Nodes, params, ws.onGlobal); err != nil {
			return nil, err
		}
		ws.global.Start()
	}

	if cfg.Scenario != nil {
		ws.scheduleScenario(eng, cfg, group, metrics.Series)
	}

	eng.Run(cfg.Horizon)

	// Fold the run's engine and per-node counters into the metrics in
	// one pass, off the hot path: the engine and nodes counted on their
	// own plain fields during the run.
	es := eng.Stats()
	me := &metrics.Engine
	me.EventsScheduled = es.Scheduled
	me.EventsFired = es.Fired
	me.EventsCancelled = es.Cancelled
	me.QueuePromotions = es.Promotions
	me.PendingHWM = es.PendingHWM
	nt := group.Totals()
	me.TasksSubmitted = nt.Submitted
	me.TasksCompleted = nt.Served
	me.TasksAborted = nt.Aborted
	me.Preemptions = nt.Preemptions
	me.ReadyHWM = nt.ReadyHWM
	metrics.Utilization = make([]float64, cfg.Nodes)
	for i := range metrics.Utilization {
		metrics.Utilization[i] = group.BusyTime(i) / cfg.Horizon
	}
	metrics.LocalInFlight = metrics.LocalGenerated - metrics.LocalDone
	metrics.GlobalInFlight = int64(mgr.InFlight())
	if len(metrics.StageMissByIndex) > ws.stageCap {
		ws.stageCap = len(metrics.StageMissByIndex)
	}
	return metrics, nil
}
