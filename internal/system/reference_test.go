package system

import (
	"bytes"
	"fmt"
	"go/ast"
	"go/parser"
	"go/token"
	"math"
	"reflect"
	"slices"
	"strconv"
	"testing"

	"repro/internal/sched"
	"repro/internal/stats"
	"repro/internal/task"
	"repro/internal/trace"
	"repro/internal/workload"
)

// runSeeds runs n replications of cfg with seeds cfg.Seed, cfg.Seed+1,
// ... in order on ws, the way one session worker would.
func runSeeds(ws *Workspace, cfg Config, n int) ([]*Metrics, error) {
	runs := make([]*Metrics, n)
	for i := range runs {
		c := cfg
		c.Seed = cfg.Seed + uint64(i)
		m, err := RunWith(c, ws)
		if err != nil {
			return nil, err
		}
		runs[i] = m
	}
	return runs, nil
}

// referenceCase is one configuration TestPooledMatchesReference checks,
// with the number of seeds to run from cfg.Seed. Cases too large for
// the naive simulator (naive false) are only checked warm against
// fresh.
type referenceCase struct {
	name  string
	cfg   Config
	seeds int
	naive bool
}

// referenceCases lists the golden matrix, the abort path, the combined
// experiment's SSP+PSP settings, the burst preset, the other schedulers
// and tardy policies, and the PSP baseline under GF and DIV-1. Without
// -short it adds the matrix's 1024-node cases and a 65536-node burst
// run.
func referenceCases(t *testing.T) []referenceCase {
	var out []referenceCase
	for _, c := range goldenCases(t) {
		if c.cfg.Nodes > 64 && testing.Short() {
			continue
		}
		out = append(out, referenceCase{c.name, c.cfg, len(goldenSeeds), true})
	}

	// Aborted global instances whose queued sibling subtasks drain later
	// delay instance and graph reuse: the trickiest recycling path.
	abort := Baseline()
	abort.Horizon = 8000
	abort.Load = 0.8
	abort.TardyAbort = true
	abort.SSP, abort.PSP = "EQF", "DIV-1"
	out = append(out, referenceCase{"abort/EQF-DIV-1", abort, 1, true})

	for _, combo := range [][2]string{{"UD", "UD"}, {"UD", "DIV-1"}, {"EQF", "UD"}, {"EQF", "DIV-1"}} {
		for _, load := range []float64{0.3, 0.5, 0.7} {
			cfg := Baseline()
			cfg.Shape = workload.MixedShape{
				Stages:   []int{1, 3, 1},
				MeanExec: 1 / cfg.MuSubtask,
				Pex:      workload.PexModel{RelErr: cfg.PexRelErr},
			}
			cfg.SSP, cfg.PSP = combo[0], combo[1]
			cfg.Load = load
			cfg.Horizon = 3000
			cfg.Seed = 7
			out = append(out, referenceCase{fmt.Sprintf("combined/%s-%s/load%v", combo[0], combo[1], load), cfg, 2, true})
		}
	}

	burst := Baseline()
	burst.Horizon = 15000
	burst.Scenario = burstScenario(t, burst.Horizon)
	out = append(out, referenceCase{"burst/n6", burst, 3, true})

	variant := func(name string, cfg Config, set func(*Config)) {
		cfg.Horizon = 4000
		set(&cfg)
		out = append(out, referenceCase{name, cfg, 2, true})
	}
	variant("baseline/MLF", Baseline(), func(c *Config) { c.Scheduler = sched.MLF })
	variant("baseline/FCFS", Baseline(), func(c *Config) { c.Scheduler = sched.FCFS })
	variant("baseline/preemptive", Baseline(), func(c *Config) { c.Preemptive = true })
	variant("baseline/firm-abort", Baseline(), func(c *Config) {
		c.FirmAbort, c.Load, c.SSP, c.PSP = true, 0.8, "EQF", "DIV-1"
	})
	// A stage released past its deadline is aborted on submission, while
	// its parallel siblings are still being released.
	variant("combined/abort", Baseline(), func(c *Config) {
		c.Shape = workload.MixedShape{Stages: []int{1, 3, 1}, MeanExec: 1 / c.MuSubtask}
		c.TardyAbort, c.Load = true, 0.8
	})
	variant("psp/GF", PSPBaseline(), func(c *Config) { c.PSP = "GF" })
	variant("psp/DIV-1", PSPBaseline(), func(c *Config) { c.PSP = "DIV-1" })

	if !testing.Short() {
		big := Baseline()
		big.Nodes = 65536
		big.Horizon = 40
		big.Scenario = burstScenario(t, big.Horizon)
		out = append(out, referenceCase{"burst/n65536", big, 1, false})
	}
	return out
}

// TestPooledMatchesReference checks the pooled simulator against the
// naive reference simulator of naive_test.go, task by task: every
// task's identity, placement, virtual deadline, first dispatch, finish,
// outcome and preemption count, the integer Metrics counters, and the
// response, tardiness and slack accumulators must agree bit for bit.
// Every case also runs on one workspace warmed by all the cases before
// it, whose full codec bytes must equal a fresh workspace's: reuse
// across configurations (task and graph pools, instance and frame
// recycling, queue and node state) must never change a result.
func TestPooledMatchesReference(t *testing.T) {
	ws := NewWorkspace()
	var preempted, aborted uint64 // over the naive cases: both paths must be exercised
	for _, c := range referenceCases(t) {
		for i := 0; i < c.seeds; i++ {
			cfg := c.cfg
			cfg.Seed += uint64(i)
			name := fmt.Sprintf("%s seed %d", c.name, cfg.Seed)
			warm, err := RunWith(cfg, ws)
			if err != nil {
				t.Fatalf("%s: %v", name, err)
			}
			traced := cfg
			if c.naive {
				traced.Trace = trace.NewRecorder(0)
			}
			fresh, err := Run(traced)
			if err != nil {
				t.Fatalf("%s: fresh workspace: %v", name, err)
			}
			if !bytes.Equal(codecBytes(t, warm), codecBytes(t, fresh)) {
				t.Errorf("%s: warm workspace differs from a fresh one at %s",
					name, bitwiseDiff(reflect.ValueOf(*warm), reflect.ValueOf(*fresh), "Metrics"))
			}
			if c.naive {
				checkNaive(t, name, traced, fresh)
				preempted += fresh.Engine.Preemptions
				aborted += fresh.Engine.TasksAborted
			}
			if t.Failed() {
				t.FailNow() // one diverging run says enough
			}
		}
	}
	if preempted == 0 || aborted == 0 {
		t.Errorf("reference cases preempted %d and aborted %d tasks, want both", preempted, aborted)
	}
}

// TestNaiveReferenceIsIndependent keeps the reference simulator
// independent of what it checks: naive_test.go imports none of the
// scheduling, deadline, node or process-manager packages, calls none
// of the system's run code, and touches the engine only to record the
// arrival streams.
func TestNaiveReferenceIsIndependent(t *testing.T) {
	file, err := parser.ParseFile(token.NewFileSet(), "naive_test.go", nil, 0)
	if err != nil {
		t.Fatal(err)
	}
	for _, imp := range file.Imports {
		switch path, _ := strconv.Unquote(imp.Path.Value); path {
		case "repro/internal/core", "repro/internal/node", "repro/internal/sched", "repro/internal/procmgr":
			t.Errorf("naive_test.go imports %s", path)
		}
	}
	runCode := map[string]bool{"Run": true, "RunWith": true, "NewWorkspace": true, "Workspace": true, "runEnv": true}
	selected := map[*ast.Ident]bool{} // x.Name: a field or method, not the package's own name
	ast.Inspect(file, func(n ast.Node) bool {
		if sel, ok := n.(*ast.SelectorExpr); ok {
			selected[sel.Sel] = true
		}
		return true
	})
	for _, decl := range file.Decls {
		fn, isFunc := decl.(*ast.FuncDecl)
		ast.Inspect(decl, func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.Ident:
				if runCode[n.Name] && !selected[n] {
					t.Errorf("naive_test.go refers to the system's %s", n.Name)
				}
			case *ast.SelectorExpr:
				if x, ok := n.X.(*ast.Ident); ok && x.Name == "sim" && !(isFunc && fn.Name.Name == "naiveArrivals") {
					t.Errorf("naive_test.go uses sim.%s outside naiveArrivals", n.Sel.Name)
				}
			}
			return true
		})
	}
}

// codecBytes encodes m with the exact-bit Metrics codec.
func codecBytes(t *testing.T, m *Metrics) []byte {
	t.Helper()
	b, err := m.MarshalBinary()
	if err != nil {
		t.Fatal(err)
	}
	return b
}

// checkNaive compares a traced system run of cfg with the naive
// reference simulator.
func checkNaive(t *testing.T, name string, cfg Config, m *Metrics) {
	t.Helper()
	want, wantCounts, err := naiveRun(cfg)
	if err != nil {
		t.Fatalf("%s: reference: %v", name, err)
	}
	if n := cfg.Trace.Dropped(); n > 0 {
		t.Fatalf("%s: trace dropped %d events", name, n)
	}
	got := traceRecords(cfg.Trace.Events())
	if gotCounts := metricsCounts(m); !reflect.DeepEqual(gotCounts, wantCounts) {
		t.Errorf("%s: metrics differ from the reference:\nsystem    %+v\nreference %+v", name, gotCounts, wantCounts)
	}
	checkInFlight(t, name, got, m)
	var ids []uint64
	for id, w := range want {
		if g, ok := got[id]; !ok || g != w {
			ids = append(ids, id)
		}
	}
	for id := range got {
		if _, ok := want[id]; !ok {
			ids = append(ids, id)
		}
	}
	if len(ids) == 0 {
		return
	}
	slices.Sort(ids)
	t.Errorf("%s: %d of %d tasks differ from the reference; first at task %d:\nsystem    %+v\nreference %+v",
		name, len(ids), len(want), ids[0], got[ids[0]], want[ids[0]])
}

// checkInFlight derives from a run's trace alone what was still queued
// or running at the horizon, and checks the counters that report it.
// RunWith derives LocalInFlight as LocalGenerated − LocalDone, and the
// reference the same way, so only the trace checks it independently:
//   - LocalInFlight is the number of local tasks with neither a
//     completion nor an abort;
//   - GlobalInFlight is the number of instances with such a subtask and
//     no aborted one (a stage's completion releases the next stage at
//     the same instant, so an instance between stages has none);
//   - the nodes' TasksSubmitted, TasksCompleted and TasksAborted count
//     the traced tasks, their completions and their aborts, so
//     submitted = completed + aborted + in flight.
func checkInFlight(t *testing.T, name string, recs map[uint64]naiveRecord, m *Metrics) {
	t.Helper()
	var completed, aborted, localOpen int64
	open, killed := map[uint64]bool{}, map[uint64]bool{}
	for _, r := range recs {
		switch r.Outcome {
		case outCompleted:
			completed++
		case outAborted:
			aborted++
			if r.Class == task.Global {
				killed[r.GlobalID] = true
			}
		case outInFlight:
			if r.Class == task.Local {
				localOpen++
			} else {
				open[r.GlobalID] = true
			}
		}
	}
	var globalOpen int64
	for id := range open {
		if !killed[id] {
			globalOpen++
		}
	}
	if m.LocalInFlight != localOpen || m.GlobalInFlight != globalOpen {
		t.Errorf("%s: LocalInFlight, GlobalInFlight = %d, %d; the trace leaves %d local tasks and %d instances unfinished",
			name, m.LocalInFlight, m.GlobalInFlight, localOpen, globalOpen)
	}
	e := &m.Engine
	if e.TasksSubmitted != uint64(len(recs)) || e.TasksCompleted != uint64(completed) || e.TasksAborted != uint64(aborted) {
		t.Errorf("%s: TasksSubmitted, TasksCompleted, TasksAborted = %d, %d, %d; the trace holds %d tasks, %d completed and %d aborted",
			name, e.TasksSubmitted, e.TasksCompleted, e.TasksAborted, len(recs), completed, aborted)
	}
}

// traceRecords rebuilds every task's record from a run's trace: the
// submission gives its identity, node, arrival and virtual deadline,
// the first dispatch its start, and a completion or abort its finish.
func traceRecords(events []trace.Event) map[uint64]naiveRecord {
	out := map[uint64]naiveRecord{}
	for _, e := range events {
		r := out[e.TaskID]
		switch e.Kind {
		case trace.Submit:
			r = naiveRecord{Class: e.Class, GlobalID: e.GlobalID, Stage: e.Stage, Node: e.Node,
				Arrival: e.T, Deadline: e.Deadline}
		case trace.Dispatch:
			if !r.Dispatched {
				r.Dispatched, r.Start = true, e.T
			}
		case trace.Preempt:
			r.Preemptions++
		case trace.Complete:
			r.Outcome, r.Finish = outCompleted, e.T
		case trace.Abort:
			r.Outcome, r.Finish = outAborted, e.T
		}
		out[e.TaskID] = r
	}
	return out
}

// metricsCounts extracts the metrics the reference reproduces.
func metricsCounts(m *Metrics) naiveCounts {
	ratio := func(r *stats.Ratio) naiveRatio { return naiveRatio{r.Hits(), r.Total()} }
	c := naiveCounts{
		LocalGenerated: m.LocalGenerated, LocalDone: m.LocalDone,
		LocalAborted: m.LocalAborted, LocalInFlight: m.LocalInFlight,
		GlobalGenerated: m.GlobalGenerated, GlobalDone: m.GlobalDone,
		GlobalAborted: m.GlobalAborted, GlobalInFlight: m.GlobalInFlight,
		LocalMiss: ratio(&m.LocalMiss), GlobalMiss: ratio(&m.GlobalMiss), StageMiss: ratio(&m.StageMiss),
	}
	for i := range m.StageMissByIndex {
		c.StageMissByIndex = append(c.StageMissByIndex, ratio(&m.StageMissByIndex[i]))
		c.StageSlackByIndex = append(c.StageSlackByIndex, m.StageSlackByIndex[i])
	}
	c.LocalResponse, c.GlobalResponse, c.GlobalTardiness = m.LocalResponse, m.GlobalResponse, m.GlobalTardiness
	c.InheritedSlack = m.InheritedSlack
	return c
}

// FuzzSystemVsReference compares the system with the naive reference,
// exactly as TestPooledMatchesReference does, on small generated
// configurations: 1–8 nodes, every scheduler, SSP, PSP, shape and tardy
// policy, preemption on or off, load 0.1–0.9 and horizons up to 300.
// Configurations that fail Validate are skipped.
func FuzzSystemVsReference(f *testing.F) {
	// The seed corpus follows the reference cases: (nodes, scheduler,
	// SSP, PSP, shape, tardy policy, preemptive, load, horizon, seed).
	f.Add(uint8(6), uint8(0), uint8(0), uint8(0), uint8(0), uint8(0), false, 0.5, 300.0, uint64(1)) // baseline UD
	f.Add(uint8(6), uint8(0), uint8(3), uint8(0), uint8(0), uint8(0), false, 0.5, 300.0, uint64(2)) // baseline EQF
	f.Add(uint8(6), uint8(0), uint8(3), uint8(2), uint8(0), uint8(1), false, 0.8, 300.0, uint64(1)) // abort/EQF-DIV-1
	f.Add(uint8(6), uint8(0), uint8(3), uint8(2), uint8(2), uint8(0), false, 0.7, 300.0, uint64(7)) // combined/EQF-DIV-1
	f.Add(uint8(6), uint8(1), uint8(0), uint8(0), uint8(0), uint8(0), false, 0.5, 300.0, uint64(1)) // MLF
	f.Add(uint8(6), uint8(2), uint8(0), uint8(0), uint8(0), uint8(0), false, 0.5, 300.0, uint64(1)) // FCFS
	f.Add(uint8(6), uint8(0), uint8(0), uint8(0), uint8(0), uint8(0), true, 0.5, 300.0, uint64(1))  // preemptive
	f.Add(uint8(6), uint8(0), uint8(3), uint8(2), uint8(0), uint8(2), false, 0.8, 300.0, uint64(1)) // firm abort
	f.Add(uint8(6), uint8(0), uint8(0), uint8(1), uint8(1), uint8(0), false, 0.5, 300.0, uint64(1)) // psp/GF
	f.Add(uint8(6), uint8(0), uint8(0), uint8(2), uint8(1), uint8(0), false, 0.5, 300.0, uint64(1)) // psp/DIV-1
	f.Add(uint8(2), uint8(1), uint8(1), uint8(3), uint8(3), uint8(1), true, 0.9, 250.0, uint64(99)) // hetero, ED, DIV-2
	f.Fuzz(func(t *testing.T, nodes, policy, ssp, psp, shape, tardy uint8, preemptive bool,
		load, horizon float64, seed uint64) {
		cfg := Baseline()
		cfg.Nodes = 1 + int(nodes%8)
		cfg.Scheduler = []sched.Policy{sched.EDF, sched.MLF, sched.FCFS}[policy%3]
		cfg.SSP = []string{"UD", "ED", "EQS", "EQF"}[ssp%4]
		cfg.PSP = []string{"UD", "GF", "DIV-1", "DIV-2"}[psp%4]
		mean := 1 / cfg.MuSubtask
		switch shape % 4 {
		case 1:
			cfg.SlackMin, cfg.SlackMax = 1.25, 5.0
			cfg.Shape = workload.ParallelShape{M: min(cfg.M, cfg.Nodes), MeanExec: mean}
		case 2:
			cfg.Shape = workload.MixedShape{Stages: []int{1, min(3, cfg.Nodes), 1}, MeanExec: mean}
		case 3:
			cfg.Shape = workload.HeteroSerialShape{MinM: 1, MaxM: 6, MeanExec: mean}
		}
		cfg.TardyAbort, cfg.FirmAbort = tardy%3 == 1, tardy%3 == 2
		cfg.Preemptive = preemptive
		// Out-of-range loads and horizons fold into range; NaN and a zero
		// horizon fail Validate.
		if !(load >= 0.1 && load <= 0.9) {
			load = 0.1 + 0.8*math.Abs(math.Mod(load, 1))
		}
		if !(horizon > 0 && horizon <= 300) {
			horizon = math.Abs(math.Mod(horizon, 300))
		}
		cfg.Load, cfg.Horizon, cfg.Seed = load, horizon, seed
		if cfg.Validate() != nil {
			t.Skip()
		}
		cfg.Trace = trace.NewRecorder(0)
		m, err := Run(cfg)
		if err != nil {
			t.Fatal(err)
		}
		checkNaive(t, "fuzz", cfg, m)
	})
}
