package core

import (
	"testing"

	"repro/internal/rng"
	"repro/internal/task"
)

func TestNewAssignerDefaults(t *testing.T) {
	a := NewAssigner(nil, nil)
	if a.Name() != "UD-UD" {
		t.Errorf("default assigner = %q, want UD-UD", a.Name())
	}
}

func TestAssignerName(t *testing.T) {
	a := NewAssigner(EqualFlexibility{}, Div{X: 1})
	if a.Name() != "EQF-DIV-1" {
		t.Errorf("Name = %q, want EQF-DIV-1", a.Name())
	}
}

func TestPlanWorkedExample(t *testing.T) {
	// g = [a:1 [b:2 || c:4] d:1], arrival 0, deadline 10, EQF-DIV1.
	// Serial stage pexs: [1, 4, 1]; total 6; slack 4.
	//   a:  dl = 0+1+4·(1/6)  = 5/3
	//   P:  released at 1; remaining [4,1]; slack 4; dl = 1+4+4·(4/5) = 8.2
	//     b,c: DIV-1 with n=2: dl = 1+(8.2−1)/2 = 4.6
	//   d:  released at 5 (parallel finish = max(3,5)); dl = 10
	g := task.MustParse("[a:1 [b:2 || c:4] d:1]")
	a := NewAssigner(EqualFlexibility{}, Div{X: 1})
	plan, err := a.Plan(g, 0, 10)
	if err != nil {
		t.Fatal(err)
	}
	if len(plan) != 4 {
		t.Fatalf("plan has %d leaves, want 4", len(plan))
	}
	want := []struct {
		name     string
		release  float64
		deadline float64
	}{
		{name: "a", release: 0, deadline: 5.0 / 3},
		{name: "b", release: 1, deadline: 4.6},
		{name: "c", release: 1, deadline: 4.6},
		{name: "d", release: 5, deadline: 10},
	}
	for i, w := range want {
		got := plan[i]
		if got.Leaf.Name != w.name {
			t.Errorf("leaf %d = %q, want %q", i, got.Leaf.Name, w.name)
		}
		if !almostEqual(got.Release, w.release) {
			t.Errorf("leaf %s release = %v, want %v", w.name, got.Release, w.release)
		}
		if !almostEqual(got.Deadline, w.deadline) {
			t.Errorf("leaf %s deadline = %v, want %v", w.name, got.Deadline, w.deadline)
		}
	}
}

func TestPlanUDGivesEveryLeafGroupDeadline(t *testing.T) {
	g := task.MustParse("[a [b || [c d]] e]")
	a := NewAssigner(UltimateDeadline{}, ParallelUltimate{})
	plan, err := a.Plan(g, 2, 50)
	if err != nil {
		t.Fatal(err)
	}
	for _, p := range plan {
		if p.Deadline != 50 {
			t.Errorf("leaf %s deadline = %v, want 50 under UD-UD", p.Leaf.Name, p.Deadline)
		}
	}
}

func TestPlanRejectsInvalidGraph(t *testing.T) {
	a := NewAssigner(EqualFlexibility{}, Div{X: 1})
	if _, err := a.Plan(task.Serial(), 0, 10); err == nil {
		t.Fatal("Plan accepted an empty serial group")
	}
}

func TestPlanPureSerialMatchesDirectFormula(t *testing.T) {
	// For a flat serial chain the planner must reproduce the strategy
	// formula stage by stage with releases at cumulative pex.
	g := task.MustParse("[s1:2 s2:3 s3:5]")
	a := NewAssigner(EqualFlexibility{}, ParallelUltimate{})
	const (
		ar = 10.0
		dl = 30.0
	)
	plan, err := a.Plan(g, ar, dl)
	if err != nil {
		t.Fatal(err)
	}
	pexs := []float64{2, 3, 5}
	now := ar
	for i, p := range plan {
		want := EqualFlexibility{}.StageDeadline(now, dl, pexs[i:])
		if !almostEqual(p.Deadline, want) {
			t.Errorf("stage %d deadline = %v, want %v", i, p.Deadline, want)
		}
		if !almostEqual(p.Release, now) {
			t.Errorf("stage %d release = %v, want %v", i, p.Release, now)
		}
		now += pexs[i]
	}
}

func TestPlanPropertyBounds(t *testing.T) {
	// For random graphs with non-negative slack, every leaf deadline is
	// within (arrival, groupDeadline] and releases are non-decreasing
	// along serial chains (checked via plan order within the flattened
	// leaf sequence of pure serial graphs).
	r := rng.New(77)
	assigners := []Assigner{
		NewAssigner(UltimateDeadline{}, ParallelUltimate{}),
		NewAssigner(EffectiveDeadline{}, Div{X: 1}),
		NewAssigner(EqualSlack{}, Div{X: 2}),
		NewAssigner(EqualFlexibility{}, Div{X: 1}),
		NewAssigner(EqualFlexibility{}, GlobalsFirst{}),
	}
	for trial := 0; trial < 400; trial++ {
		g := randomGraph(r, 3)
		ar := r.Uniform(0, 20)
		dl := ar + g.AggregatePex() + r.Uniform(0, 15)
		for _, a := range assigners {
			plan, err := a.Plan(g, ar, dl)
			if err != nil {
				t.Fatalf("%s: plan(%s): %v", a.Name(), g, err)
			}
			if len(plan) != g.LeafCount() {
				t.Fatalf("%s: plan has %d entries for %d leaves", a.Name(), len(plan), g.LeafCount())
			}
			for _, p := range plan {
				if p.Deadline > dl+1e-9 {
					t.Fatalf("%s: leaf deadline %v beyond group deadline %v (graph %s)",
						a.Name(), p.Deadline, dl, g)
				}
				if p.Release < ar-1e-9 {
					t.Fatalf("%s: leaf release %v before arrival %v", a.Name(), p.Release, ar)
				}
			}
		}
	}
}

// randomGraph builds a random serial-parallel graph for property tests.
func randomGraph(r *rng.Source, depth int) *task.Graph {
	if depth <= 0 || r.IntN(3) == 0 {
		return task.Simple("l", r.Uniform(0.05, 5))
	}
	n := 1 + r.IntN(3)
	children := make([]*task.Graph, n)
	for i := range children {
		children[i] = randomGraph(r, depth-1)
	}
	if r.IntN(2) == 0 {
		return task.Serial(children...)
	}
	return task.Parallel(children...)
}

func TestSerialStageUsesAggregatePex(t *testing.T) {
	// A complex stage's pex is its aggregate (serial-sum / parallel-max),
	// not the raw leaf value.
	stage1 := task.MustParse("[x:1 || y:3]") // aggregate 3
	stage2 := task.Simple("z", 2)
	a := NewAssigner(EqualFlexibility{}, Div{X: 1})
	got, _ := a.SerialStageBuf(nil, 0, 10, []*task.Graph{stage1, stage2})
	want := EqualFlexibility{}.StageDeadline(0, 10, []float64{3, 2})
	if !almostEqual(got, want) {
		t.Errorf("SerialStageBuf = %v, want %v", got, want)
	}
}

func TestParallelBranchUsesAggregatePex(t *testing.T) {
	b1 := task.MustParse("[x:1 y:3]") // aggregate 4
	b2 := task.Simple("z", 2)
	a := NewAssigner(EqualFlexibility{}, Div{X: 1})
	got, _ := a.ParallelBranchBuf(nil, 0, 12, []*task.Graph{b1, b2}, 0)
	want := Div{X: 1}.BranchDeadline(0, 12, []float64{4, 2}, 0)
	if !almostEqual(got, want) {
		t.Errorf("ParallelBranchBuf = %v, want %v", got, want)
	}
}
