package procmgr

import (
	"math"
	"testing"
	"unsafe"

	"repro/internal/core"
	"repro/internal/node"
	"repro/internal/sched"
	"repro/internal/sim"
	"repro/internal/task"
	"repro/internal/trace"
)

// harness wires an engine, k nodes and a manager the way the system
// package does, recording copies of all completions: the manager
// recycles instances and subtasks once they drain.
type harness struct {
	eng       *sim.Engine
	nodes     *node.Group
	mgr       *Manager
	done      []Instance
	completed []task.Task
	// starts holds each task's first trace.Dispatch time by task ID.
	starts map[uint64]float64
	seq    uint64
	id     uint64
}

func newHarness(t *testing.T, k int, assigner core.Assigner, policy node.TardyPolicy) *harness {
	t.Helper()
	h := &harness{eng: sim.New(), starts: map[uint64]float64{}}
	route := func(tk *task.Task) {
		h.completed = append(h.completed, *tk)
		if tk.Class == task.Global {
			if err := h.mgr.Complete(tk); err != nil {
				t.Fatalf("Complete: %v", err)
			}
		}
	}
	abort := func(tk *task.Task) {
		if tk.Class == task.Global {
			if err := h.mgr.Abort(tk); err != nil {
				t.Fatalf("Abort: %v", err)
			}
		}
	}
	first := func(ev trace.Kind, now float64, tk *task.Task) {
		if _, ok := h.starts[tk.ID]; ev == trace.Dispatch && !ok {
			h.starts[tk.ID] = now
		}
	}
	h.nodes = newNodes(t, k, node.GroupConfig{
		Engine: h.eng, Policy: policy, OnDone: route, OnAbort: abort, Observer: first,
	})
	mgr, err := New(Config{
		Engine:   h.eng,
		Group:    h.nodes,
		Assigner: assigner,
		OnDone:   func(in *Instance) { h.done = append(h.done, *in) },
		NextSeq:  func() uint64 { h.seq++; return h.seq },
		NextTaskID: func() uint64 {
			h.id++
			return h.id
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	h.mgr = mgr
	return h
}

// newNodes builds a group of k nodes over an EDF ready-queue bank; cfg
// supplies everything but the bank.
func newNodes(t *testing.T, k int, cfg node.GroupConfig) *node.Group {
	t.Helper()
	cfg.Bank = sched.NewBank()
	if err := cfg.Bank.Configure(k, sched.EDF, false, 4); err != nil {
		t.Fatal(err)
	}
	g := &node.Group{}
	if err := g.Configure(cfg); err != nil {
		t.Fatal(err)
	}
	return g
}

// startInstance validates/flattens the graph and starts it at time 0.
func (h *harness) startInstance(t *testing.T, g *task.Graph, deadline float64) {
	t.Helper()
	if err := g.Validate(); err != nil {
		t.Fatal(err)
	}
	g.Flatten()
	h.mgr.Start(&Instance{ID: 1, Graph: g, Arrival: h.eng.Now(), Deadline: deadline})
}

// only returns the one finished instance.
func (h *harness) only(t *testing.T) Instance {
	t.Helper()
	if len(h.done) != 1 {
		t.Fatalf("instances done = %d, want 1", len(h.done))
	}
	return h.done[0]
}

func place(g *task.Graph, nodes ...int) *task.Graph {
	leaves := g.Flatten()
	for i, leaf := range leaves {
		leaf.NodeID = int32(nodes[i%len(nodes)])
	}
	return g
}

func TestConfigValidation(t *testing.T) {
	eng := sim.New()
	okNode := newNodes(t, 1, node.GroupConfig{Engine: eng, OnDone: func(*task.Task) {}})
	seq := func() uint64 { return 0 }
	tests := []struct {
		name string
		cfg  Config
	}{
		{name: "nil engine", cfg: Config{Group: okNode, OnDone: func(*Instance) {}, NextSeq: seq, NextTaskID: seq}},
		{name: "no nodes", cfg: Config{Engine: eng, OnDone: func(*Instance) {}, NextSeq: seq, NextTaskID: seq}},
		{name: "nil OnDone", cfg: Config{Engine: eng, Group: okNode, NextSeq: seq, NextTaskID: seq}},
		{name: "nil allocators", cfg: Config{Engine: eng, Group: okNode, OnDone: func(*Instance) {}}},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			if _, err := New(tt.cfg); err == nil {
				t.Error("New succeeded, want error")
			}
		})
	}
}

func TestSerialChainPrecedence(t *testing.T) {
	h := newHarness(t, 3, core.NewAssigner(core.EqualFlexibility{}, core.Div{X: 1}), node.NoAbort)
	g := place(task.MustParse("[a:1 b:2 c:3]"), 0, 1, 2)
	h.startInstance(t, g, 20)
	h.eng.RunAll()

	inst := h.only(t)
	if inst.Finish != 6 {
		t.Errorf("Finish = %v, want 6 (1+2+3 on idle nodes)", inst.Finish)
	}
	if inst.Missed() {
		t.Error("instance with slack 14 reported missed")
	}
	// Precedence: each stage starts exactly when its predecessor ends
	// (nodes are idle).
	if len(h.completed) != 3 {
		t.Fatalf("completed %d subtasks, want 3", len(h.completed))
	}
	starts := []float64{h.starts[h.completed[0].ID], h.starts[h.completed[1].ID], h.starts[h.completed[2].ID]}
	want := []float64{0, 1, 3}
	for i := range want {
		if starts[i] != want[i] {
			t.Errorf("stage %d start = %v, want %v", i, starts[i], want[i])
		}
	}
	if inst.StageCount != 3 || inst.StageMisses != 0 {
		t.Errorf("StageCount=%d StageMisses=%d", inst.StageCount, inst.StageMisses)
	}
}

func TestDynamicEQFDeadlines(t *testing.T) {
	// On idle nodes each stage finishes exactly at release+exec, so the
	// dynamic EQF deadlines can be computed by hand.
	h := newHarness(t, 3, core.NewAssigner(core.EqualFlexibility{}, core.ParallelUltimate{}), node.NoAbort)
	g := place(task.MustParse("[a:2 b:3 c:5]"), 0, 1, 2)
	h.startInstance(t, g, 30) // slack 20
	h.eng.RunAll()

	// Stage a: now=0, rem=[2 3 5], slack=20, dl=0+2+20*(2/10)=6.
	// a finishes at 2 (4 slack units inherited).
	// Stage b: now=2, rem=[3 5], slack=30-2-8=20, dl=2+3+20*(3/8)=12.5.
	// b finishes at 5.
	// Stage c: now=5, rem=[5], slack=20, dl=30.
	wantDeadlines := []float64{6, 12.5, 30}
	for i, tk := range h.completed {
		if math.Abs(tk.Deadline-wantDeadlines[i]) > 1e-9 {
			t.Errorf("stage %d deadline = %v, want %v", i, tk.Deadline, wantDeadlines[i])
		}
	}
	// Inherited slack: stage a leaves 6-2=4, stage b leaves 12.5-5=7.5,
	// stage c leaves 30-10=20.
	if got, want := h.done[0].InheritedSlack, 4.0+7.5+20; math.Abs(got-want) > 1e-9 {
		t.Errorf("InheritedSlack = %v, want %v", got, want)
	}
}

func TestParallelJoin(t *testing.T) {
	h := newHarness(t, 3, core.NewAssigner(core.UltimateDeadline{}, core.Div{X: 1}), node.NoAbort)
	g := place(task.MustParse("[a:1 || b:5 || c:2]"), 0, 1, 2)
	h.startInstance(t, g, 20)
	h.eng.RunAll()
	inst := h.only(t)

	if inst.Finish != 5 {
		t.Errorf("Finish = %v, want 5 (longest branch)", inst.Finish)
	}
	// All branches released simultaneously at t=0.
	for _, tk := range h.completed {
		if tk.Arrival != 0 {
			t.Errorf("branch arrival = %v, want 0", tk.Arrival)
		}
		// DIV-1 with n=3: dl = 0 + 20/3.
		if math.Abs(tk.Deadline-20.0/3) > 1e-9 {
			t.Errorf("branch deadline = %v, want %v", tk.Deadline, 20.0/3)
		}
	}
}

func TestNestedGraphCompletion(t *testing.T) {
	h := newHarness(t, 4, core.NewAssigner(core.EqualFlexibility{}, core.Div{X: 1}), node.NoAbort)
	g := place(task.MustParse("[a:1 [b:2 || c:4] d:1]"), 0, 1, 2, 3)
	h.startInstance(t, g, 10)
	h.eng.RunAll()

	inst := h.only(t)
	// Critical path on idle nodes: 1 + max(2,4) + 1 = 6.
	if inst.Finish != 6 {
		t.Errorf("Finish = %v, want 6", inst.Finish)
	}
	if h.mgr.InFlight() != 0 {
		t.Errorf("InFlight = %d, want 0", h.mgr.InFlight())
	}
}

func TestStageMissCounting(t *testing.T) {
	// Zero end-to-end slack and a busy node force a virtual-deadline
	// miss on the delayed stage.
	h := newHarness(t, 1, core.NewAssigner(core.EqualFlexibility{}, core.ParallelUltimate{}), node.NoAbort)
	// Occupy the single node first so the global subtask waits.
	blocker := &task.Task{ID: 999, Class: task.Local, Exec: 4, Deadline: 100, Seq: 0}
	h.nodes.Submit(0, blocker)
	g := place(task.MustParse("[a:1 b:1]"), 0)
	h.startInstance(t, g, 2) // dl = ar + ex: zero slack
	h.eng.RunAll()
	inst := h.only(t)

	if !inst.Missed() {
		t.Fatal("instance with zero slack behind a blocker should miss")
	}
	if inst.StageMisses == 0 {
		t.Error("expected at least one stage miss")
	}
	if inst.StageCount != 2 {
		t.Errorf("StageCount = %d, want 2", inst.StageCount)
	}
}

func TestAbortKillsInstanceOnce(t *testing.T) {
	h := newHarness(t, 2, core.NewAssigner(core.UltimateDeadline{}, core.ParallelUltimate{}), node.AbortAtDispatch)
	// Block both nodes long enough that both branches expire.
	h.nodes.Submit(0, &task.Task{ID: 900, Class: task.Local, Exec: 50, Deadline: 1000, Seq: 0})
	h.nodes.Submit(1, &task.Task{ID: 901, Class: task.Local, Exec: 50, Deadline: 1000, Seq: 0})
	g := place(task.MustParse("[a:1 || b:1]"), 0, 1)
	h.startInstance(t, g, 5) // both branches doomed
	h.eng.RunAll()
	inst := h.only(t)

	if !inst.Aborted || !inst.Missed() {
		t.Fatal("instance should be aborted and missed")
	}
	if h.mgr.InFlight() != 0 {
		t.Errorf("InFlight = %d, want 0", h.mgr.InFlight())
	}
}

func TestAbortedSerialDoesNotContinue(t *testing.T) {
	h := newHarness(t, 2, core.NewAssigner(core.EffectiveDeadline{}, core.ParallelUltimate{}), node.AbortAtDispatch)
	h.nodes.Submit(0, &task.Task{ID: 900, Class: task.Local, Exec: 50, Deadline: 1000, Seq: 0})
	g := place(task.MustParse("[a:1 b:1]"), 0, 1)
	h.startInstance(t, g, 3) // stage a expires behind the blocker
	h.eng.RunAll()
	inst := h.only(t)

	if !inst.Aborted {
		t.Fatal("instance should be aborted")
	}
	// Stage b must never have been submitted: only the blocker completed.
	for _, tk := range h.completed {
		if tk.Class == task.Global {
			t.Errorf("global subtask %d completed after abort", tk.ID)
		}
	}
}

func TestCompleteUnknownTask(t *testing.T) {
	h := newHarness(t, 1, core.NewAssigner(nil, nil), node.NoAbort)
	if err := h.mgr.Complete(&task.Task{ID: 12345}); err == nil {
		t.Error("Complete(unknown) should error")
	}
	if err := h.mgr.Abort(&task.Task{ID: 12345}); err == nil {
		t.Error("Abort(unknown) should error")
	}
}

func TestSimultaneousGlobals(t *testing.T) {
	// Two instances interleave on shared nodes without crosstalk.
	h := newHarness(t, 2, core.NewAssigner(core.EqualFlexibility{}, core.Div{X: 1}), node.NoAbort)
	g1 := place(task.MustParse("[a:1 b:1]"), 0, 1)
	g2 := place(task.MustParse("[x:2 || y:2]"), 0, 1)
	i1 := &Instance{ID: 1, Graph: g1, Arrival: 0, Deadline: 50}
	i2 := &Instance{ID: 2, Graph: g2, Arrival: 0, Deadline: 50}
	h.mgr.Start(i1)
	h.mgr.Start(i2)
	if h.mgr.InFlight() != 2 {
		t.Fatalf("InFlight = %d, want 2", h.mgr.InFlight())
	}
	h.eng.RunAll()
	if len(h.done) != 2 {
		t.Fatalf("done = %d, want 2", len(h.done))
	}
	if h.mgr.InFlight() != 0 {
		t.Errorf("InFlight = %d, want 0", h.mgr.InFlight())
	}
}

// TestRecordSizes pins the packed layouts of the records a run keeps per
// in-flight task, graph node, global instance and activation frame: at
// 65536 nodes they are most of a workspace's live heap, and a field
// added, widened or reordered into a padding hole grows every one of
// them.
func TestRecordSizes(t *testing.T) {
	for _, c := range []struct {
		name       string
		size, want uintptr
	}{
		{"task.Task", unsafe.Sizeof(task.Task{}), 96},
		{"task.Graph", unsafe.Sizeof(task.Graph{}), 72},
		{"procmgr.Instance", unsafe.Sizeof(Instance{}), 64},
		{"procmgr.frame", unsafe.Sizeof(frame{}), 40},
	} {
		if c.size != c.want {
			t.Errorf("%s is %d bytes, want %d", c.name, c.size, c.want)
		}
	}
}
