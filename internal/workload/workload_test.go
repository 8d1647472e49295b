package workload

import (
	"fmt"
	"math"
	"strings"
	"testing"

	"repro/internal/rng"
	"repro/internal/sim"
	"repro/internal/task"
)

func TestPexModelPerfect(t *testing.T) {
	r := rng.New(1)
	m := PexModel{}
	for i := 0; i < 100; i++ {
		ex := r.Exponential(1)
		if got := m.Sample(r, ex); got != ex {
			t.Fatalf("perfect model: pex = %v, want ex = %v", got, ex)
		}
	}
}

func TestPexModelErrorBounds(t *testing.T) {
	r := rng.New(2)
	m := PexModel{RelErr: 0.5}
	var lo, hi float64 = math.Inf(1), math.Inf(-1)
	for i := 0; i < 50000; i++ {
		const ex = 2.0
		got := m.Sample(r, ex)
		if got < ex*0.5-1e-9 || got > ex*1.5+1e-9 {
			t.Fatalf("pex = %v outside [1,3]", got)
		}
		lo, hi = math.Min(lo, got), math.Max(hi, got)
	}
	// The error should actually spread across the band.
	if lo > 1.1 || hi < 2.9 {
		t.Errorf("error band barely used: [%v, %v]", lo, hi)
	}
}

func TestPexModelFloor(t *testing.T) {
	r := rng.New(3)
	m := PexModel{RelErr: 2} // can push pex negative without the floor
	for i := 0; i < 10000; i++ {
		if got := m.Sample(r, 0.001); got <= 0 {
			t.Fatalf("pex = %v, want > 0", got)
		}
	}
}

func TestLocalSourceRateAndAttributes(t *testing.T) {
	eng := sim.New()
	r := rng.New(42)
	var tasks []*task.Task
	var id, seq uint64
	src, err := NewLocalSource(eng, r,
		LocalParams{Rate: 2, MeanExec: 1, SlackMin: 0.25, SlackMax: 2.5},
		func() uint64 { id++; return id },
		func() uint64 { seq++; return seq },
		func(tk *task.Task) { tasks = append(tasks, tk) },
	)
	if err != nil {
		t.Fatal(err)
	}
	src.Start()
	const horizon = 20000.0
	eng.Run(horizon)

	got := float64(len(tasks)) / horizon
	if math.Abs(got-2)/2 > 0.03 {
		t.Errorf("arrival rate = %v, want 2 +/- 3%%", got)
	}
	var exSum, slSum float64
	for _, tk := range tasks {
		if tk.Class != task.Local || tk.Stage != -1 {
			t.Fatal("local task misclassified")
		}
		sl := tk.Slack()
		if sl < 0.25-1e-9 || sl > 2.5+1e-9 {
			t.Fatalf("slack %v outside [0.25, 2.5]", sl)
		}
		if tk.Pex != tk.Exec {
			t.Fatal("perfect prediction expected")
		}
		exSum += tk.Exec
		slSum += sl
	}
	n := float64(len(tasks))
	if math.Abs(exSum/n-1) > 0.03 {
		t.Errorf("mean exec = %v, want 1 +/- 3%%", exSum/n)
	}
	if math.Abs(slSum/n-1.375) > 0.03 {
		t.Errorf("mean slack = %v, want 1.375", slSum/n)
	}
}

func TestLocalSourceZeroRate(t *testing.T) {
	eng := sim.New()
	src, err := NewLocalSource(eng, rng.New(1),
		LocalParams{Rate: 0, MeanExec: 1},
		func() uint64 { return 1 }, func() uint64 { return 1 },
		func(*task.Task) { t.Fatal("task generated at zero rate") },
	)
	if err != nil {
		t.Fatal(err)
	}
	src.Start()
	eng.Run(1000)
}

func TestLocalSourceValidation(t *testing.T) {
	eng := sim.New()
	id := func() uint64 { return 1 }
	ok := LocalParams{Rate: 1, MeanExec: 1, SlackMin: 0, SlackMax: 1}
	submit := func(*task.Task) {}
	tests := []struct {
		name string
		fn   func() (*LocalSource, error)
	}{
		{name: "nil engine", fn: func() (*LocalSource, error) {
			return NewLocalSource(nil, rng.New(1), ok, id, id, submit)
		}},
		{name: "nil submit", fn: func() (*LocalSource, error) {
			return NewLocalSource(eng, rng.New(1), ok, id, id, nil)
		}},
		{name: "bad mean", fn: func() (*LocalSource, error) {
			return NewLocalSource(eng, rng.New(1), LocalParams{Rate: 1, MeanExec: 0}, id, id, submit)
		}},
		{name: "inverted slack", fn: func() (*LocalSource, error) {
			return NewLocalSource(eng, rng.New(1), LocalParams{Rate: 1, MeanExec: 1, SlackMin: 2, SlackMax: 1}, id, id, submit)
		}},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			if _, err := tt.fn(); err == nil {
				t.Error("want error")
			}
		})
	}
}

func TestSerialShape(t *testing.T) {
	r := rng.New(7)
	s := SerialShape{M: 4, MeanExec: 1}
	g, err := s.Build(r, 6)
	if err != nil {
		t.Fatal(err)
	}
	if g.Kind != task.KindSerial || g.LeafCount() != 4 {
		t.Fatalf("got %v", g)
	}
	g.Walk(func(leaf *task.Graph) {
		if leaf.NodeID < 0 || leaf.NodeID >= 6 {
			t.Fatalf("placement %d outside [0,6)", leaf.NodeID)
		}
		if leaf.Exec <= 0 || leaf.Pex != leaf.Exec {
			t.Fatalf("leaf exec/pex = %v/%v", leaf.Exec, leaf.Pex)
		}
	})
	if got := s.SlackScale(1.0); got != 4 {
		t.Errorf("SlackScale = %v, want 4 (m·µl/µs)", got)
	}
	if got := s.SlackScale(0.5); got != 8 {
		t.Errorf("SlackScale(meanLocal=0.5) = %v, want 8", got)
	}
}

func TestParallelShapeDistinctNodes(t *testing.T) {
	r := rng.New(8)
	s := ParallelShape{M: 4, MeanExec: 1}
	for trial := 0; trial < 200; trial++ {
		g, err := s.Build(r, 6)
		if err != nil {
			t.Fatal(err)
		}
		if g.Kind != task.KindParallel {
			t.Fatal("not parallel")
		}
		seen := make(map[int32]bool)
		g.Walk(func(leaf *task.Graph) {
			if seen[leaf.NodeID] {
				t.Fatalf("duplicate node %d in parallel placement", leaf.NodeID)
			}
			seen[leaf.NodeID] = true
		})
	}
	if got := s.SlackScale(1.0); got != 1 {
		t.Errorf("parallel SlackScale = %v, want 1 (paper formula 2)", got)
	}
	if _, err := s.Build(r, 3); err == nil {
		t.Error("m=4 on k=3 nodes should fail")
	}
}

func TestMixedShape(t *testing.T) {
	r := rng.New(9)
	s := MixedShape{Stages: []int{1, 3, 1}, MeanExec: 1}
	g, err := s.Build(r, 6)
	if err != nil {
		t.Fatal(err)
	}
	if g.Kind != task.KindSerial || len(g.Children) != 3 {
		t.Fatalf("got %v", g)
	}
	if g.Children[1].Kind != task.KindParallel || len(g.Children[1].Children) != 3 {
		t.Fatalf("middle stage: got %v", g.Children[1])
	}
	if g.LeafCount() != 5 || g.Depth() != 3 {
		t.Errorf("leaves=%d depth=%d, want 5 and 3", g.LeafCount(), g.Depth())
	}
	// SlackScale: H_1 + H_3 + H_1 = 1 + 11/6 + 1 = 23/6.
	if got, want := s.SlackScale(1.0), 23.0/6; math.Abs(got-want) > 1e-12 {
		t.Errorf("SlackScale = %v, want %v", got, want)
	}
	if _, err := (MixedShape{Stages: []int{9}, MeanExec: 1}).Build(r, 6); err == nil {
		t.Error("stage wider than k should fail")
	}
	if _, err := (MixedShape{Stages: []int{0}, MeanExec: 1}).Build(r, 6); err == nil {
		t.Error("zero-width stage should fail")
	}
}

func TestHeteroSerialShape(t *testing.T) {
	r := rng.New(10)
	s := HeteroSerialShape{MinM: 2, MaxM: 6, MeanExec: 1}
	counts := make(map[int]int)
	for trial := 0; trial < 2000; trial++ {
		g, err := s.Build(r, 6)
		if err != nil {
			t.Fatal(err)
		}
		counts[g.LeafCount()]++
	}
	for m := 2; m <= 6; m++ {
		if counts[m] == 0 {
			t.Errorf("subtask count %d never generated", m)
		}
	}
	if len(counts) != 5 {
		t.Errorf("unexpected subtask counts: %v", counts)
	}
	if got := s.SlackScale(1.0); got != 4 {
		t.Errorf("SlackScale = %v, want mean m = 4", got)
	}
}

func TestMeanSubtasks(t *testing.T) {
	tests := []struct {
		name string
		give Shape
		want float64
	}{
		{name: "serial", give: SerialShape{M: 4, MeanExec: 1}, want: 4},
		{name: "parallel", give: ParallelShape{M: 3, MeanExec: 1}, want: 3},
		{name: "mixed", give: MixedShape{Stages: []int{1, 3, 1}, MeanExec: 1}, want: 5},
		{name: "hetero", give: HeteroSerialShape{MinM: 2, MaxM: 6, MeanExec: 1}, want: 4},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			got, err := MeanSubtasks(tt.give)
			if err != nil {
				t.Fatal(err)
			}
			if got != tt.want {
				t.Errorf("MeanSubtasks = %v, want %v", got, tt.want)
			}
		})
	}
}

func TestGlobalSourceAttributes(t *testing.T) {
	eng := sim.New()
	r := rng.New(11)
	var specs []Spec
	src := &GlobalSource{}
	src.Init(eng)
	if err := src.Reconfigure(r, 6, GlobalParams{
		Rate:          0.5,
		Shape:         SerialShape{M: 4, MeanExec: 1},
		SlackMin:      0.25,
		SlackMax:      2.5,
		RelFlex:       1,
		MeanLocalExec: 1,
	}, func(sp Spec) { specs = append(specs, sp) }); err != nil {
		t.Fatal(err)
	}
	src.Start()
	const horizon = 20000.0
	eng.Run(horizon)

	rate := float64(len(specs)) / horizon
	if math.Abs(rate-0.5)/0.5 > 0.05 {
		t.Errorf("global rate = %v, want 0.5 +/- 5%%", rate)
	}
	var slackSum, flexSum float64
	for _, sp := range specs {
		// dl = ar + criticalPath + sl must hold exactly.
		wantDL := sp.Arrival + sp.Graph.CriticalPathExec() + sp.Slack
		if math.Abs(sp.Deadline-wantDL) > 1e-9 {
			t.Fatalf("deadline relation broken: %v != %v", sp.Deadline, wantDL)
		}
		// Serial scale = 4: slack uniform on [1, 10].
		if sp.Slack < 4*0.25-1e-9 || sp.Slack > 4*2.5+1e-9 {
			t.Fatalf("slack %v outside [1, 10]", sp.Slack)
		}
		slackSum += sp.Slack
		flexSum += sp.Slack / sp.Graph.TotalExec()
	}
	n := float64(len(specs))
	// Mean slack = 4 · 1.375 = 5.5.
	if math.Abs(slackSum/n-5.5) > 0.15 {
		t.Errorf("mean global slack = %v, want 5.5", slackSum/n)
	}
	// Mean flexibility (E[sl]/E[ex] sense) should be near the locals'
	// 1.375 since rel_flex = 1.
	if flexSum/n < 0.9 || flexSum/n > 2.2 {
		t.Errorf("mean flexibility proxy = %v, implausible for rel_flex=1", flexSum/n)
	}
}

func TestGlobalSourceParallelDeadlineUsesMax(t *testing.T) {
	eng := sim.New()
	r := rng.New(12)
	var specs []Spec
	src := &GlobalSource{}
	src.Init(eng)
	if err := src.Reconfigure(r, 6, GlobalParams{
		Rate:          0.5,
		Shape:         ParallelShape{M: 4, MeanExec: 1},
		SlackMin:      1.25,
		SlackMax:      5.0,
		RelFlex:       1,
		MeanLocalExec: 1,
	}, func(sp Spec) { specs = append(specs, sp) }); err != nil {
		t.Fatal(err)
	}
	src.Start()
	eng.Run(5000)
	if len(specs) == 0 {
		t.Fatal("no global tasks generated")
	}
	for _, sp := range specs {
		maxExec := 0.0
		sp.Graph.Walk(func(l *task.Graph) {
			if l.Exec > maxExec {
				maxExec = l.Exec
			}
		})
		want := sp.Arrival + maxExec + sp.Slack
		if math.Abs(sp.Deadline-want) > 1e-9 {
			t.Fatalf("PSP deadline = %v, want ar+max+sl = %v", sp.Deadline, want)
		}
		if sp.Slack < 1.25-1e-9 || sp.Slack > 5.0+1e-9 {
			t.Fatalf("PSP slack %v outside [1.25, 5.0]", sp.Slack)
		}
	}
}

func TestGlobalSourceValidation(t *testing.T) {
	src := &GlobalSource{}
	src.Init(sim.New())
	start := func(Spec) {}
	okParams := GlobalParams{
		Rate: 1, Shape: SerialShape{M: 2, MeanExec: 1},
		SlackMin: 0, SlackMax: 1, RelFlex: 1, MeanLocalExec: 1,
	}
	if err := src.Reconfigure(nil, 6, okParams, start); err == nil {
		t.Error("nil stream accepted")
	}
	if err := src.Reconfigure(rng.New(1), 6, okParams, nil); err == nil {
		t.Error("nil start accepted")
	}
	bad := okParams
	bad.Shape = nil
	if err := src.Reconfigure(rng.New(1), 6, bad, start); err == nil {
		t.Error("nil shape accepted")
	}
	impossible := okParams
	impossible.Shape = ParallelShape{M: 10, MeanExec: 1}
	if err := src.Reconfigure(rng.New(1), 6, impossible, start); err == nil {
		t.Error("impossible shape accepted")
	}
}

// wideShape is a custom Shape: a parallel group of n leaves on node 0.
type wideShape struct{ n int }

func (s wideShape) Build(*rng.Source, int) (*task.Graph, error) {
	kids := make([]*task.Graph, s.n)
	for i := range kids {
		kids[i] = task.Simple("w", 1)
	}
	g := task.Parallel(kids...)
	g.Index()
	return g, nil
}
func (wideShape) SlackScale(float64) float64 { return 1 }
func (s wideShape) Name() string             { return fmt.Sprintf("wide-%d", s.n) }

// TestSubtaskBound: no global source accepts a shape whose instances
// can exceed MaxSubtasks simple subtasks. Built-in shapes are checked
// from their parameters, before a probe is built; a custom shape by the
// probe instance. Each is accepted at the bound.
func TestSubtaskBound(t *testing.T) {
	const max = MaxSubtasks
	src := &GlobalSource{}
	src.Init(sim.New())
	params := func(sh Shape) GlobalParams {
		return GlobalParams{Rate: 1, Shape: sh, SlackMin: 0, SlackMax: 1, RelFlex: 1, MeanLocalExec: 1}
	}
	for _, c := range []struct {
		ok, over Shape
	}{
		{SerialShape{M: max, MeanExec: 1}, SerialShape{M: max + 1, MeanExec: 1}},
		{ParallelShape{M: max, MeanExec: 1}, ParallelShape{M: max + 1, MeanExec: 1}},
		{HeteroSerialShape{MinM: max, MaxM: max, MeanExec: 1}, HeteroSerialShape{MinM: 1, MaxM: max + 1, MeanExec: 1}},
		{MixedShape{Stages: []int{max - 3, 3}, MeanExec: 1}, MixedShape{Stages: []int{max - 3, 3, 1}, MeanExec: 1}},
		{wideShape{n: max}, wideShape{n: max + 1}},
	} {
		if err := src.Reconfigure(rng.New(1), 2*max, params(c.ok), func(Spec) {}); err != nil {
			t.Errorf("%s: rejected an instance of MaxSubtasks: %v", c.ok.Name(), err)
		}
		err := src.Reconfigure(rng.New(1), 2*max, params(c.over), func(Spec) {})
		if err == nil || !strings.Contains(err.Error(), "MaxSubtasks") {
			t.Errorf("%s: Reconfigure = %v, want a MaxSubtasks error", c.over.Name(), err)
		}
		if _, ok := c.over.(wideShape); ok {
			continue // only the probe can tell
		}
		if err := CheckSubtasks(c.over); err == nil {
			t.Errorf("%s: CheckSubtasks accepted it", c.over.Name())
		}
		if err := CheckSubtasks(c.ok); err != nil {
			t.Errorf("%s: CheckSubtasks = %v", c.ok.Name(), err)
		}
	}
	// Widths whose sum overflows int must not wrap below the bound.
	if err := CheckSubtasks(MixedShape{Stages: []int{1, math.MaxInt, math.MaxInt}, MeanExec: 1}); err == nil {
		t.Error("CheckSubtasks accepted stage widths whose sum overflows")
	}
}

// taskSig fingerprints a generated task's every sampled attribute.
func taskSig(tk *task.Task) [6]float64 {
	return [6]float64{float64(tk.ID), tk.Arrival, tk.Deadline, tk.Exec, tk.Pex, float64(tk.Seq)}
}

// TestLocalSourceReconfigureMatchesFresh pins the warm-workspace reuse
// contract: a source reconfigured in place on a reset engine generates
// exactly the task stream a freshly built source would, including across
// a seed change and a rate change.
func TestLocalSourceReconfigureMatchesFresh(t *testing.T) {
	type runParams struct {
		seed uint64
		rate float64
	}
	runs := []runParams{{seed: 1, rate: 2}, {seed: 9, rate: 2}, {seed: 9, rate: 3.5}}
	const horizon = 2000.0

	params := func(rate float64) LocalParams {
		return LocalParams{Rate: rate, MeanExec: 1, SlackMin: 0.25, SlackMax: 2.5}
	}
	// Reference: a fresh engine + source per run.
	var want [][][6]float64
	for _, rp := range runs {
		eng := sim.New()
		var sigs [][6]float64
		var id, seq uint64
		src, err := NewLocalSource(eng, rng.NewStream(rp.seed, "local-0"), params(rp.rate),
			func() uint64 { id++; return id },
			func() uint64 { seq++; return seq },
			func(tk *task.Task) { sigs = append(sigs, taskSig(tk)) },
		)
		if err != nil {
			t.Fatal(err)
		}
		src.Start()
		eng.Run(horizon)
		want = append(want, sigs)
	}

	// Reused: one engine + one source + one reseeded stream across runs.
	eng := sim.New()
	stream := rng.New(0)
	hash := rng.StreamHash("local-0")
	var src *LocalSource
	for i, rp := range runs {
		eng.Reset()
		stream.ReseedStream(rp.seed, hash)
		var sigs [][6]float64
		var id, seq uint64
		nextID := func() uint64 { id++; return id }
		nextSeq := func() uint64 { seq++; return seq }
		submit := func(tk *task.Task) { sigs = append(sigs, taskSig(tk)) }
		if src == nil {
			var err error
			src, err = NewLocalSource(eng, stream, params(rp.rate), nextID, nextSeq, submit)
			if err != nil {
				t.Fatal(err)
			}
		} else if err := src.Reconfigure(stream, params(rp.rate), nextID, nextSeq, submit); err != nil {
			t.Fatal(err)
		}
		src.Start()
		eng.Run(horizon)
		if len(sigs) != len(want[i]) {
			t.Fatalf("run %d: reused source generated %d tasks, fresh %d", i, len(sigs), len(want[i]))
		}
		for j := range sigs {
			if sigs[j] != want[i][j] {
				t.Fatalf("run %d task %d: reused %v != fresh %v", i, j, sigs[j], want[i][j])
			}
		}
	}
}

// TestGlobalSourceReconfigureMatchesFresh is the global-stream variant:
// sampled graphs, arrivals and deadlines must be identical through
// in-place reconfiguration.
func TestGlobalSourceReconfigureMatchesFresh(t *testing.T) {
	const horizon = 3000.0
	const k = 6
	params := GlobalParams{
		Rate: 0.4, Shape: SerialShape{M: 4, MeanExec: 1},
		SlackMin: 0.25, SlackMax: 2.5, RelFlex: 1, MeanLocalExec: 1,
	}
	sig := func(sp Spec) string {
		return sp.Graph.String() + "|" + fmt.Sprint(sp.Arrival, sp.Deadline, sp.Slack)
	}

	fresh := func(seed uint64) []string {
		eng := sim.New()
		var sigs []string
		src := &GlobalSource{}
		src.Init(eng)
		if err := src.Reconfigure(rng.NewStream(seed, "global"), k, params,
			func(sp Spec) { sigs = append(sigs, sig(sp)) }); err != nil {
			t.Fatal(err)
		}
		src.Start()
		eng.Run(horizon)
		return sigs
	}

	eng := sim.New()
	stream := rng.New(0)
	hash := rng.StreamHash("global")
	var src GlobalSource
	src.Init(eng)
	for _, seed := range []uint64{1, 2, 77} {
		eng.Reset()
		stream.ReseedStream(seed, hash)
		var sigs []string
		start := func(sp Spec) { sigs = append(sigs, sig(sp)) }
		if err := src.Reconfigure(stream, k, params, start); err != nil {
			t.Fatal(err)
		}
		src.Start()
		eng.Run(horizon)
		want := fresh(seed)
		if len(sigs) != len(want) {
			t.Fatalf("seed %d: reused source generated %d tasks, fresh %d", seed, len(sigs), len(want))
		}
		for j := range sigs {
			if sigs[j] != want[j] {
				t.Fatalf("seed %d task %d:\nreused %s\nfresh  %s", seed, j, sigs[j], want[j])
			}
		}
	}
}
