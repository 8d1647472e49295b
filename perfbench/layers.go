package main

import (
	"bytes"
	"context"
	"encoding/gob"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"time"

	"repro"
	"repro/internal/core"
	"repro/internal/distrib"
	"repro/internal/netdist"
	"repro/internal/node"
	"repro/internal/procmgr"
	"repro/internal/rng"
	"repro/internal/sched"
	"repro/internal/session"
	"repro/internal/sim"
	"repro/internal/system"
	"repro/internal/task"
	"repro/internal/trace"
	"repro/internal/workload"
)

// layerNames lists every per-layer metric the traced mode prints.
var layerNames = []string{
	"sim.events_per_task", "sim.pending_hwm", "sim.queue_promotions", "sim.ns_per_event",
	"sched.ns_per_pushpop", "sched.ready_hwm",
	"node.ns_per_lifecycle",
	"workload.ns_per_draw_6", "workload.ns_per_draw_65536",
	"procmgr.ns_per_release", "core.ns_per_plan",
	"system.workspace_build_s", "system.ns_per_task", "system.residual_ns_per_task",
	"session.warm_ratio", "session.busy_frac",
	"experiment.cell_ms_p50", "experiment.tail_idle_s",
	"distrib.fingerprint_us", "distrib.towire_us", "distrib.encode_us_per_rep", "distrib.decode_us_per_rep",
	"distrib.frames_per_rep", "distrib.bytes_per_rep",
	"netdist.cache_hit_ratio", "netdist.cache_run_us_per_seed", "netdist.handler_us",
	"netdist.backend_run_ms", "netdist.remote_overhead_ms_per_rep", "netdist.cache_bytes",
	"runtime.gc_cycles", "runtime.gc_pause_ms",
	"trace.overhead_pct",
}

// runTraced is the traced mode. It runs the workload untraced and then
// traced for half the window each (the difference in req_per_s is the
// tracing overhead); runs each other workload for minPasses passes,
// traced, for the layers only it exercises (session on paper-sweep,
// distrib and netdist on service); measures the two-worker sweep
// balance; replays one recorded replication of this workload through
// each layer in isolation; and prints the span self times and the
// attribution table. Spans are written to dir.
func runTraced(name string, p params, dir string, w io.Writer) (map[string]metric, outcome, error) {
	var out outcome
	half := params{seed: p.seed, window: p.window / 2, setups: 1}
	plain, err := families[name](half)
	if err != nil {
		return nil, out, err
	}
	half.spans = newSpanLog()
	traced, err := families[name](half)
	if err != nil {
		return nil, out, err
	}
	out.add(plain.outcome)
	out.add(traced.outcome)
	layers := map[string]metric{}
	for k, v := range traced.layers {
		layers[k] = v
	}
	bal, err := sweepBalance(p.seed)
	if err != nil {
		return nil, out, fmt.Errorf("sweep balance: %w", err)
	}
	out.add(bal.outcome)
	for k, v := range bal.layers {
		layers[k] = v
	}
	logs := map[string]*spanLog{name: half.spans}
	for _, other := range []string{"paper-sweep", "scale-64k", "service"} {
		if other == name {
			continue
		}
		probe := params{seed: p.seed, setups: 1, spans: newSpanLog()}
		r, err := families[other](probe)
		if err != nil {
			return nil, out, fmt.Errorf("%s probe: %w", other, err)
		}
		out.add(r.outcome)
		for k, v := range r.layers {
			if _, ok := layers[k]; !ok {
				layers[k] = v
			}
		}
		logs[other] = probe.spans
	}

	c, err := record(traced.capture)
	if err != nil {
		return nil, out, fmt.Errorf("record capture: %w", err)
	}
	rp, err := runReplays(c)
	if err != nil {
		return nil, out, fmt.Errorf("layer replays: %w", err)
	}
	att := attribute(c, rp)
	e, tasks := c.metrics.Engine, c.tasks()
	set := func(n, unit string, v float64) { layers[n] = metric{v, unit} }
	set("sim.events_per_task", "count", float64(e.EventsFired)/tasks)
	set("sim.pending_hwm", "count", float64(e.PendingHWM))
	set("sim.queue_promotions", "count", float64(e.QueuePromotions))
	set("sim.ns_per_event", "ns", rp.nsEvent)
	set("sched.ns_per_pushpop", "ns", rp.nsPushPop)
	set("sched.ready_hwm", "count", float64(e.ReadyHWM))
	set("node.ns_per_lifecycle", "ns", rp.nsLifecycle)
	set("workload.ns_per_draw_6", "ns", rp.nsDraw[6])
	set("workload.ns_per_draw_65536", "ns", rp.nsDraw[65536])
	set("procmgr.ns_per_release", "ns", rp.nsRelease-rp.nsLifecycle)
	set("core.ns_per_plan", "ns", rp.nsPlan)
	set("system.workspace_build_s", "s", rp.buildS)
	set("system.ns_per_task", "ns", rp.nsTask)
	set("system.residual_ns_per_task", "ns", att.residual)
	set("runtime.gc_cycles", "count", float64(traced.gcCycles))
	set("runtime.gc_pause_ms", "ms", float64(traced.gcPause.Nanoseconds())/1e6)
	u, t := plain.endToEnd()["req_per_s"].Value, traced.endToEnd()["req_per_s"].Value
	set("trace.overhead_pct", "%", (u-t)/u*100)

	printSpans(w, logs)
	att.print(w, c)
	fmt.Fprintf(w, "remote vs in-process pool, per replication of the service capture: %+.3f ms, %.1f frames, %.0f bytes\n",
		layers["netdist.remote_overhead_ms_per_rep"].Value, layers["distrib.frames_per_rep"].Value, layers["distrib.bytes_per_rep"].Value)
	fmt.Fprintf(w, "tracing overhead: %.1f req/s untraced, %.1f traced (%.2f%%)\n", u, t, layers["trace.overhead_pct"].Value)
	if err := saveSpans(dir, p.seed, logs); err != nil {
		fmt.Fprintf(w, "spans not written: %v\n", err)
	}

	res := make(map[string]metric, len(layerNames))
	for _, n := range layerNames {
		m, ok := layers[n]
		if !ok {
			return nil, out, fmt.Errorf("traced mode measured no %s", n)
		}
		res[n] = m
	}
	return res, out, nil
}

func printSpans(w io.Writer, logs map[string]*spanLog) {
	fams := make([]string, 0, len(logs))
	for f := range logs {
		fams = append(fams, f)
	}
	sort.Strings(fams)
	fmt.Fprintf(w, "span self time:\n  %-12s %-16s %8s %12s %12s\n", "workload", "span", "count", "total ms", "self ms")
	for _, f := range fams {
		st := selfTimes(logs[f].all())
		names := make([]string, 0, len(st))
		for n := range st {
			names = append(names, n)
		}
		sort.Strings(names)
		for _, n := range names {
			lt := st[n]
			fmt.Fprintf(w, "  %-12s %-16s %8d %12.2f %12.2f\n", f, n, lt.Count,
				float64(lt.Total.Nanoseconds())/1e6, float64(lt.Self.Nanoseconds())/1e6)
		}
	}
}

// saveSpans writes each log as JSON lines to dir/<workload>-seed<n>.jsonl.
func saveSpans(dir string, seed uint64, logs map[string]*spanLog) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	for name, l := range logs {
		f, err := os.Create(filepath.Join(dir, fmt.Sprintf("%s-seed%d.jsonl", name, seed)))
		if err != nil {
			return err
		}
		werr := writeSpans(f, l.all())
		if cerr := f.Close(); werr == nil {
			werr = cerr
		}
		if werr != nil {
			return werr
		}
	}
	return nil
}

// ---- two-worker sweep balance ---------------------------------------------

// balancePasses is how many artifact-set passes sweepBalance times.
const balancePasses = 3

// cellClock timestamps sweep-cell completions reported through
// Options.Progress, which fires on worker goroutines.
type cellClock struct {
	mu    sync.Mutex
	start time.Time
	done  []float64 // seconds since start, in completion order
}

func (c *cellClock) begin() {
	c.mu.Lock()
	c.start, c.done = time.Now(), c.done[:0]
	c.mu.Unlock()
}

func (c *cellClock) observe(done, total int) {
	c.mu.Lock()
	c.done = append(c.done, time.Since(c.start).Seconds())
	c.mu.Unlock()
}

// finish closes one experiment run by workers. With every worker busy,
// consecutive completions lie one cell time divided by the worker count
// apart, so it returns those gaps times workers (cell times in ms) and
// the gap before the last completion: time the other workers sat idle at
// the sweep's end.
func (c *cellClock) finish(workers int) (cellMs []float64, idle float64) {
	c.mu.Lock()
	defer c.mu.Unlock()
	n := len(c.done)
	for i := 1; i < n; i++ {
		cellMs = append(cellMs, (c.done[i]-c.done[i-1])*1e3*float64(workers))
	}
	if n >= 2 {
		idle = c.done[n-1] - c.done[n-2]
	}
	return cellMs, idle
}

// sweepBalance runs the artifact set on the in-process pool at the
// reference parallelism, where cells fan out on two workers: it measures
// the cell time, the idle tail at each experiment's end and the pool's
// busy fraction, and checks every pass against the one-worker bytes.
func sweepBalance(seed uint64) (*famResult, error) {
	r := newFamResult(len(sweepArtifacts), 0, sweepCapture(seed))
	one := repro.NewSession()
	defer one.Close()
	want, err := sweepPass(one, sweepOptions(seed, sweepParallelism), nil, 0, nil)
	if err != nil {
		return nil, err
	}
	pool := session.NewPool()
	sess := repro.NewSessionWithBackend(pool)
	defer sess.Close()
	clock := &cellClock{}
	opts := sweepOptions(seed, refParallelism)
	opts.Progress = clock.observe
	var cells, idle []float64
	var wall time.Duration
	pool0 := poolStats(pool)
	for pass := 0; pass < balancePasses; pass++ {
		passIdle := 0.0
		for i, id := range sweepArtifacts {
			clock.begin()
			start := time.Now()
			res, err := sess.Experiment(context.Background(), id, opts)
			wall += time.Since(start)
			if !r.check(err == nil, "%s at parallelism %d: %v", id, refParallelism, err) {
				continue
			}
			c, tail := clock.finish(refParallelism)
			cells, passIdle = append(cells, c...), passIdle+tail
			r.check(res.Notes+repro.RenderCSV(res.Figure) == want[i], "%s at parallelism %d differs from parallelism %d", id, refParallelism, sweepParallelism)
		}
		idle = append(idle, passIdle)
	}
	busy := poolStats(pool).BusySeconds - pool0.BusySeconds
	r.layers["session.busy_frac"] = metric{busy / (wall.Seconds() * refParallelism), "ratio"}
	r.layers["experiment.cell_ms_p50"] = metric{median(cells), "ms"}
	r.layers["experiment.tail_idle_s"] = metric{median(idle), "s"}
	return r, nil
}

// ---- recorded input stream -----------------------------------------------

// captureEvents bounds the recorded lifecycle events (~72 B each): a
// 65536-node replication emits millions, and the replays need only a
// representative prefix.
const captureEvents = 400_000

// replayTask is one recorded task submission.
type replayTask struct {
	t, deadline, exec float64
	node              int32
	class             task.Class
	global            uint64
}

// bankOp is one recorded ready-queue operation at a node: a push
// (submission or preemption) or a pop (dispatch or abort).
type bankOp struct {
	push bool
	node int32
	task int32
}

// capture is one replication of a workload's configuration recorded by a
// trace.Recorder: the input stream every layer replay is driven by.
type capture struct {
	cfg     system.Config
	metrics *system.Metrics
	subs    []replayTask
	ops     []bankOp
}

func (c *capture) tasks() float64 { return float64(c.metrics.LocalDone + c.metrics.GlobalDone) }

func record(cfg system.Config) (*capture, error) {
	rec := trace.NewRecorder(captureEvents)
	cfg.Trace = rec
	m, err := system.RunWith(cfg, nil)
	if err != nil {
		return nil, err
	}
	cfg.Trace = nil
	c := &capture{cfg: cfg, metrics: m}
	idx := make(map[uint64]int32)
	started := make(map[uint64]float64)
	for _, e := range rec.Events() {
		switch e.Kind {
		case trace.Submit:
			idx[e.TaskID] = int32(len(c.subs))
			c.subs = append(c.subs, replayTask{t: e.T, deadline: e.Deadline, exec: 1, node: int32(e.Node), class: e.Class, global: e.GlobalID})
			c.ops = append(c.ops, bankOp{push: true, node: int32(e.Node), task: idx[e.TaskID]})
		case trace.Preempt:
			c.ops = append(c.ops, bankOp{push: true, node: int32(e.Node), task: idx[e.TaskID]})
		case trace.Dispatch, trace.Abort:
			if _, ok := started[e.TaskID]; !ok && e.Kind == trace.Dispatch {
				started[e.TaskID] = e.T
			}
			c.ops = append(c.ops, bankOp{node: int32(e.Node), task: idx[e.TaskID]})
		case trace.Complete:
			if i, ok := idx[e.TaskID]; ok {
				c.subs[i].exec = e.T - started[e.TaskID]
			}
		}
	}
	if len(c.subs) == 0 {
		return nil, fmt.Errorf("capture recorded no submissions")
	}
	return c, nil
}

// ---- isolated layer replays ----------------------------------------------

// replays holds the isolated per-operation costs measured on a capture.
type replays struct {
	nsEvent     float64         // engine schedule+fire at the recorded pending depth
	nsPushPop   float64         // ready-queue push+pop at the recorded depths
	nsLifecycle float64         // node submit→dispatch→complete, queue and event included
	nsRelease   float64         // process-manager stage release, node lifecycle included
	nsPlan      float64         // one SSP/PSP virtual-deadline computation
	nsDraw      map[int]float64 // local arrival draw (one engine event included), by stream count
	nsTask      float64         // full RunWith per task on a warm workspace
	buildS      float64         // cold RunWith minus warm: the workspace build
}

func runReplays(c *capture) (*replays, error) {
	rp := &replays{nsDraw: map[int]float64{}}
	var err error
	rp.nsEvent = replaySim(int(c.metrics.Engine.PendingHWM))
	if rp.nsPushPop, err = replaySched(c); err != nil {
		return nil, err
	}
	if rp.nsLifecycle, err = replayNode(c); err != nil {
		return nil, err
	}
	for _, n := range []int{6, 65536, c.cfg.Nodes} {
		if _, ok := rp.nsDraw[n]; ok {
			continue
		}
		if rp.nsDraw[n], err = replayDraws(n, c.cfg.Seed); err != nil {
			return nil, err
		}
	}
	var graphs []*task.Graph
	if rp.nsRelease, graphs, err = replayRelease(c); err != nil {
		return nil, err
	}
	rp.nsPlan = replayPlan(graphs)
	if rp.nsTask, rp.buildS, err = replaySystem(c.cfg, c.tasks()); err != nil {
		return nil, err
	}
	return rp, nil
}

func strategies(cfg system.Config) (core.SerialStrategy, core.ParallelStrategy, error) {
	s, err := core.SerialByName(cfg.SSP)
	if err != nil {
		return nil, nil, err
	}
	p, err := core.ParallelByName(cfg.PSP)
	return s, p, err
}

// laneDepth matches the per-node ready-queue carve system.RunWith uses.
const laneDepth = 8

func newBank(cfg system.Config) (*sched.Bank, error) {
	_, parallel, err := strategies(cfg)
	if err != nil {
		return nil, err
	}
	bank := sched.NewBank()
	return bank, bank.Configure(cfg.Nodes, cfg.Scheduler, core.NeedsClassPriority(parallel), laneDepth)
}

// replaySim runs the engine alone as a hold model: depth events pending,
// each fired event schedules one successor an exponential delay ahead,
// so the queue stays at the recorded pending high-water mark.
func replaySim(depth int) float64 {
	depth = max(depth, 1)
	eng := sim.NewWithQueue(sim.QueueAuto)
	r := rng.New(1)
	delays := make([]float64, 4096)
	for i := range delays {
		delays[i] = r.Exponential(1)
	}
	k := 0
	var cb sim.Callback
	cb = eng.Register(func(any) {
		eng.MustScheduleCall(delays[k&4095], cb, nil)
		k++
	})
	for i := 0; i < depth; i++ {
		eng.MustScheduleCall(delays[i&4095], cb, nil)
	}
	const batch = 10000
	return nsPer(func() int {
		for i := 0; i < batch; i++ {
			eng.Step()
		}
		return batch
	})
}

// replaySched replays the recorded pushes and pops on a sched.Bank, so
// every queue goes through exactly the recorded depths.
func replaySched(c *capture) (float64, error) {
	bank, err := newBank(c.cfg)
	if err != nil {
		return 0, err
	}
	tasks := make([]task.Task, len(c.subs))
	for i, s := range c.subs {
		tasks[i] = task.Task{Class: s.class, Deadline: s.deadline, Pex: s.exec, Seq: uint64(i + 1)}
	}
	pushes := 0
	for _, op := range c.ops {
		if op.push {
			pushes++
		}
	}
	return nsPer(func() int {
		bank.Reset()
		for _, op := range c.ops {
			if op.push {
				bank.Push(int(op.node), &tasks[op.task])
			} else {
				bank.Pop(int(op.node), 0)
			}
		}
		return pushes
	}), nil
}

// replayNode submits the recorded tasks, at their recorded times and with
// their recorded service demands, to a node.Group on an otherwise empty
// engine: the lifecycle cost with no workload or process manager.
func replayNode(c *capture) (float64, error) {
	bank, err := newBank(c.cfg)
	if err != nil {
		return 0, err
	}
	eng := sim.NewWithQueue(sim.QueueAuto)
	var group node.Group
	gcfg := node.GroupConfig{Engine: eng, Bank: bank, OnDone: func(*task.Task) {}}
	if err := group.Configure(gcfg); err != nil {
		return 0, err
	}
	tasks := make([]task.Task, len(c.subs))
	return nsPer(func() int {
		eng.Reset()
		bank.Reset()
		_ = group.Configure(gcfg) // validated above
		for i := range c.subs {
			s := &c.subs[i]
			if s.t > eng.Now() {
				eng.Run(s.t)
			}
			tasks[i] = task.Task{ID: uint64(i + 1), Class: s.class, Arrival: s.t, Deadline: s.deadline,
				FirmDeadline: s.deadline, Exec: s.exec, Pex: s.exec, Seq: uint64(i + 1)}
			group.Submit(int(s.node), &tasks[i])
		}
		eng.RunAll()
		return len(c.subs)
	}), nil
}

// replayDraws times workload.LocalFleet arrival draws for n streams at
// the Table 1 local rate, each draw one engine event.
func replayDraws(n int, seed uint64) (float64, error) {
	eng := sim.NewWithQueue(sim.QueueAuto)
	pool := &task.Pool{}
	fleet := workload.NewLocalFleet(eng)
	var id, seq uint64
	draws := 0
	err := fleet.Configure(n, workload.FleetParams{MeanExec: 1, SlackMin: 0.25, SlackMax: 2.5, Pool: pool},
		func() uint64 { id++; return id }, func() uint64 { seq++; return seq },
		func(t *task.Task) { draws++; pool.Put(t) })
	if err != nil {
		return 0, err
	}
	for i := 0; i < n; i++ {
		if err := fleet.SeedNode(i, 0.375, seed, rng.StreamHashParts("local-", uint64(i), "")); err != nil {
			return 0, err
		}
	}
	fleet.Start()
	return nsPer(func() int {
		before := draws
		for draws-before < 10000 {
			eng.Step()
		}
		return draws - before
	}), nil
}

// maxReleaseInstances bounds the global instances the release replay
// builds up front.
const maxReleaseInstances = 20000

// replayRelease replays the capture's global arrivals through the process
// manager on a node group with no local load: each instance is built with
// the configuration's shape and released stage by stage under its
// SSP/PSP. It returns ns per released subtask (node lifecycle included)
// and the graphs, which the plan replay reuses.
func replayRelease(c *capture) (float64, []*task.Graph, error) {
	serial, parallel, err := strategies(c.cfg)
	if err != nil {
		return 0, nil, err
	}
	shape := c.cfg.Shape
	if shape == nil {
		shape = workload.SerialShape{M: c.cfg.M, MeanExec: 1 / c.cfg.MuSubtask}
	}
	var arrivals []float64
	seen := map[uint64]bool{}
	for _, s := range c.subs {
		if s.class == task.Global && !seen[s.global] && len(arrivals) < maxReleaseInstances {
			seen[s.global] = true
			arrivals = append(arrivals, s.t)
		}
	}
	if len(arrivals) == 0 {
		return 0, nil, fmt.Errorf("capture holds no global tasks")
	}
	r := rng.New(c.cfg.Seed)
	graphs := make([]*task.Graph, len(arrivals))
	deadlines := make([]float64, len(arrivals))
	leaves := 0
	for i, a := range arrivals {
		g, err := shape.Build(r, c.cfg.Nodes)
		if err != nil {
			return 0, nil, err
		}
		graphs[i], deadlines[i] = g, a+2*g.CriticalPathExec()
		leaves += g.LeafCount()
	}
	bank, err := newBank(c.cfg)
	if err != nil {
		return 0, nil, err
	}
	eng := sim.NewWithQueue(sim.QueueAuto)
	var (
		group node.Group
		mgr   *procmgr.Manager
	)
	gcfg := node.GroupConfig{Engine: eng, Bank: bank, OnDone: func(t *task.Task) {
		if err := mgr.Complete(t); err != nil {
			panic(err) // every subtask here was released by mgr
		}
	}}
	if err := group.Configure(gcfg); err != nil {
		return 0, nil, err
	}
	var id, seq uint64
	mcfg := procmgr.Config{Engine: eng, Group: &group, Assigner: core.NewAssigner(serial, parallel),
		OnDone:     func(*procmgr.Instance) {},
		NextSeq:    func() uint64 { seq++; return seq },
		NextTaskID: func() uint64 { id++; return id },
	}
	if mgr, err = procmgr.New(mcfg); err != nil {
		return 0, nil, err
	}
	ns := nsPer(func() int {
		eng.Reset()
		bank.Reset()
		_ = group.Configure(gcfg) // validated above
		_ = mgr.Reconfigure(mcfg)
		for i, a := range arrivals {
			if a > eng.Now() {
				eng.Run(a)
			}
			inst := mgr.NewInstance()
			inst.ID, inst.Graph, inst.Arrival, inst.Deadline = uint64(i+1), graphs[i], a, deadlines[i]
			mgr.Start(inst)
		}
		eng.RunAll()
		return leaves
	})
	return ns, graphs, nil
}

// planSink keeps the deadline computations observable to the compiler.
var planSink float64

// replayPlan times virtual-deadline computations on recorded graphs
// under every serial and parallel strategy the sweep uses.
func replayPlan(graphs []*task.Graph) float64 {
	if len(graphs) > 2000 {
		graphs = graphs[:2000]
	}
	var assigners []core.Assigner
	for _, sn := range core.SerialNames() {
		for _, pn := range core.ParallelNames() {
			s, serr := core.SerialByName(sn)
			p, perr := core.ParallelByName(pn)
			if serr == nil && perr == nil {
				assigners = append(assigners, core.NewAssigner(s, p))
			}
		}
	}
	buf := make([]float64, 0, 8)
	return nsPer(func() int {
		calls := 0
		for _, g := range graphs {
			for _, a := range assigners {
				for i := range g.Children {
					var d float64
					if g.Kind == task.KindParallel {
						d, buf = a.ParallelBranchBuf(buf, 0, 10, g.Children, i)
					} else {
						d, buf = a.SerialStageBuf(buf, 0, 10, g.Children[i:])
					}
					planSink += d
					calls++
				}
			}
		}
		return calls
	})
}

// replaySystem times system.RunWith on the capture configuration: the
// first run on a fresh workspace builds it, the later ones run warm.
func replaySystem(cfg system.Config, tasks float64) (nsTask, buildS float64, err error) {
	ws := system.NewWorkspace()
	start := time.Now()
	if _, err := system.RunWith(cfg, ws); err != nil {
		return 0, 0, err
	}
	cold := time.Since(start).Seconds()
	var warm []float64
	for begin := time.Now(); len(warm) < 3 || time.Since(begin) < 500*time.Millisecond; {
		t := time.Now()
		if _, err := system.RunWith(cfg, ws); err != nil {
			return 0, 0, err
		}
		warm = append(warm, time.Since(t).Seconds())
	}
	w := median(warm)
	return w * 1e9 / tasks, cold - w, nil
}

// ---- attribution -----------------------------------------------------------

type attRow struct {
	layer      string
	nsPerOp    float64
	opsPerTask float64
}

// attribution splits system.ns_per_task over the layers: each layer's
// isolated self cost per operation times its operations per task. The
// residual is what the isolated replays do not explain: the interaction
// cost of the layers sharing caches and branch predictors.
type attribution struct {
	rows     []attRow
	nsTask   float64
	residual float64
}

func attribute(c *capture, rp *replays) attribution {
	m, e := c.metrics, c.metrics.Engine
	tasks := c.tasks()
	subs := float64(e.TasksSubmitted) / tasks
	locals := float64(m.LocalGenerated) / tasks
	globals := float64(e.TasksSubmitted-uint64(m.LocalGenerated)) / tasks
	a := attribution{nsTask: rp.nsTask, rows: []attRow{
		{"sim (event)", rp.nsEvent, float64(e.EventsFired) / tasks},
		{"sched (push+pop)", rp.nsPushPop, subs},
		{"node (lifecycle, self)", rp.nsLifecycle - rp.nsPushPop - rp.nsEvent, subs},
		{"workload (draw, self)", rp.nsDraw[c.cfg.Nodes] - rp.nsEvent, locals},
		{"procmgr (release, self)", rp.nsRelease - rp.nsLifecycle, globals},
		{"core (plan)", rp.nsPlan, globals},
	}}
	a.residual = a.nsTask
	for _, r := range a.rows {
		a.residual -= r.nsPerOp * r.opsPerTask
	}
	return a
}

func (a attribution) print(w io.Writer, c *capture) {
	fmt.Fprintf(w, "attribution: %d-node %s/%s replication, %.0f tasks, %d submissions replayed\n",
		c.cfg.Nodes, c.cfg.SSP, c.cfg.PSP, c.tasks(), len(c.subs))
	fmt.Fprintf(w, "  %-26s %10s %10s %10s\n", "layer", "ns/op", "ops/task", "ns/task")
	sum := 0.0
	for _, r := range a.rows {
		fmt.Fprintf(w, "  %-26s %10.1f %10.3f %10.1f\n", r.layer, r.nsPerOp, r.opsPerTask, r.nsPerOp*r.opsPerTask)
		sum += r.nsPerOp * r.opsPerTask
	}
	fmt.Fprintf(w, "  %-26s %32.1f\n  %-26s %32.1f\n  %-26s %32.1f\n",
		"sum of layers", sum, "system.ns_per_task", a.nsTask, "residual", a.residual)
}

// ---- distrib and netdist layers --------------------------------------------

// serviceLayers measures the distrib and netdist layer metrics on the
// service capture configuration through the rig's own worker connection,
// after the timed window. hitSeeds is the mean seeds per hit request.
func serviceLayers(g *rig, r *famResult, hitSeeds float64) error {
	cfg := r.capture
	const reps = 4
	seeds := make([]uint64, reps)
	for i := range seeds {
		seeds[i] = cfg.Seed + uint64(i)
	}
	shard := session.Shard{Config: cfg, Seeds: seeds, Parallelism: 1}
	ctx := context.Background()
	pool := session.NewPool()
	defer pool.Close()

	// Alternate the in-process pool and the worker connection on the same
	// shard; the first round warms both.
	var poolMs, netMs []float64
	var frames, wire float64
	var runs []*system.Metrics
	for i := 0; i < 6; i++ {
		t := time.Now()
		ref, err := pool.Run(ctx, shard)
		if err != nil {
			return err
		}
		pm := msSince(t)
		n0 := g.net.NetStats()
		t = time.Now()
		got, err := g.net.Run(ctx, shard)
		if err != nil {
			return err
		}
		nm := msSince(t)
		n1 := g.net.NetStats()
		for j := range ref.Metrics {
			r.check(sameMetrics(ref.Metrics[j], got.Metrics[j]), "seed %d: remote replication differs from the pool's", seeds[j])
		}
		runs = ref.Metrics
		if i == 0 {
			continue
		}
		poolMs, netMs = append(poolMs, pm), append(netMs, nm)
		frames = float64(n1.FramesSent+n1.FramesRecv-n0.FramesSent-n0.FramesRecv) / reps
		wire = float64(n1.BytesSent+n1.BytesRecv-n0.BytesSent-n0.BytesRecv) / reps
	}
	r.layers["netdist.remote_overhead_ms_per_rep"] = metric{(median(netMs) - median(poolMs)) / reps, "ms"}
	r.layers["distrib.frames_per_rep"] = metric{frames, "count"}
	r.layers["distrib.bytes_per_rep"] = metric{wire, "B"}

	cache := netdist.NewCache(pool, 0)
	if _, err := cache.Run(ctx, shard); err != nil {
		return err
	}
	cacheUs := nsPer(func() int {
		if _, err := cache.Run(ctx, shard); err != nil {
			panic(err) // a fully cached shard only decodes stored bytes
		}
		return reps
	}) / 1e3
	r.layers["netdist.cache_run_us_per_seed"] = metric{cacheUs, "us"}
	r.layers["netdist.handler_us"] = metric{percentile(r.hitMs, 50)*1e3 - cacheUs*hitSeeds, "us"}

	if _, err := distrib.ConfigFingerprint(cfg); err != nil {
		return err
	}
	r.layers["distrib.fingerprint_us"] = metric{nsPer(func() int {
		_, _ = distrib.ConfigFingerprint(cfg) // checked above
		return 1
	}) / 1e3, "us"}
	r.layers["distrib.towire_us"] = metric{nsPer(func() int {
		_, _ = distrib.ToWire(cfg) // checked by the fingerprint above
		return 1
	}) / 1e3, "us"}

	var buf bytes.Buffer
	if err := gob.NewEncoder(&buf).Encode(runs); err != nil {
		return err
	}
	data := append([]byte(nil), buf.Bytes()...)
	r.layers["distrib.encode_us_per_rep"] = metric{nsPer(func() int {
		buf.Reset()
		_ = gob.NewEncoder(&buf).Encode(runs) // encoded once above
		return reps
	}) / 1e3, "us"}
	r.layers["distrib.decode_us_per_rep"] = metric{nsPer(func() int {
		var out []*system.Metrics
		_ = gob.NewDecoder(bytes.NewReader(data)).Decode(&out) // bytes encoded above
		return reps
	}) / 1e3, "us"}
	return nil
}
