package task

import (
	"math"
	"testing"
	"testing/quick"

	"repro/internal/rng"
)

func serialChain(pexs ...float64) *Graph {
	children := make([]*Graph, len(pexs))
	for i, p := range pexs {
		children[i] = Simple("s", p)
	}
	return Serial(children...)
}

func TestAggregatePex(t *testing.T) {
	tests := []struct {
		name string
		give *Graph
		want float64
	}{
		{name: "leaf", give: Simple("a", 2.5), want: 2.5},
		{name: "serial sums", give: serialChain(1, 2, 3), want: 6},
		{name: "parallel maxes", give: Parallel(Simple("a", 1), Simple("b", 4), Simple("c", 2)), want: 4},
		{
			name: "mixed",
			give: Serial(Simple("a", 1), Parallel(Simple("b", 2), Simple("c", 5)), Simple("d", 1)),
			want: 7,
		},
		{
			name: "nested parallel of serials",
			give: Parallel(serialChain(1, 1, 1), serialChain(2, 0.5)),
			want: 3,
		},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			if got := tt.give.AggregatePex(); math.Abs(got-tt.want) > 1e-12 {
				t.Errorf("AggregatePex = %v, want %v", got, tt.want)
			}
		})
	}
}

func TestDepth(t *testing.T) {
	tests := []struct {
		name string
		give *Graph
		want int
	}{
		{name: "leaf", give: Simple("a", 1), want: 1},
		{name: "serial", give: serialChain(1, 1, 1, 1), want: 4},
		{name: "parallel", give: Parallel(Simple("a", 1), Simple("b", 1)), want: 1},
		{
			name: "serial with parallel stage",
			give: Serial(Simple("a", 1), Parallel(Simple("b", 1), Simple("c", 1)), Simple("d", 1)),
			want: 3,
		},
		{
			name: "parallel of unequal serials",
			give: Parallel(serialChain(1, 1, 1), serialChain(1, 1)),
			want: 3,
		},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			if got := tt.give.Depth(); got != tt.want {
				t.Errorf("Depth = %d, want %d", got, tt.want)
			}
		})
	}
}

func TestFlattenAssignsIndices(t *testing.T) {
	g := Serial(Simple("a", 1), Parallel(Simple("b", 1), Simple("c", 1)), Simple("d", 1))
	leaves := g.Flatten()
	if len(leaves) != 4 {
		t.Fatalf("len(leaves) = %d, want 4", len(leaves))
	}
	wantNames := []string{"a", "b", "c", "d"}
	for i, leaf := range leaves {
		if int(leaf.LeafIndex) != i {
			t.Errorf("leaf %d has LeafIndex %d", i, leaf.LeafIndex)
		}
		if leaf.Name != wantNames[i] {
			t.Errorf("leaf %d name = %q, want %q", i, leaf.Name, wantNames[i])
		}
	}
	if g.LeafCount() != 4 {
		t.Errorf("LeafCount = %d, want 4", g.LeafCount())
	}
}

func TestTotalExec(t *testing.T) {
	g := Serial(Simple("a", 1), Parallel(Simple("b", 2), Simple("c", 3)))
	if got := g.TotalExec(); math.Abs(got-6) > 1e-12 {
		t.Errorf("TotalExec = %v, want 6", got)
	}
}

func TestCriticalPathExec(t *testing.T) {
	g := Serial(Simple("a", 1), Parallel(Simple("b", 2), Simple("c", 3)))
	g.Children[1].Children[0].Exec = 10 // branch b now dominates
	if got := g.CriticalPathExec(); math.Abs(got-11) > 1e-12 {
		t.Errorf("CriticalPathExec = %v, want 11", got)
	}
}

func TestValidate(t *testing.T) {
	tests := []struct {
		name    string
		give    *Graph
		wantErr bool
	}{
		{name: "ok leaf", give: Simple("a", 1)},
		{name: "ok mixed", give: Serial(Simple("a", 1), Parallel(Simple("b", 1), Simple("c", 1)))},
		{name: "nil", give: nil, wantErr: true},
		{name: "empty serial", give: Serial(), wantErr: true},
		{name: "empty parallel", give: Parallel(), wantErr: true},
		{name: "zero pex", give: Simple("a", 0), wantErr: true},
		{name: "negative pex", give: Simple("a", -1), wantErr: true},
		{name: "nested empty", give: Serial(Simple("a", 1), Parallel()), wantErr: true},
		{name: "leaf with children", give: &Graph{Kind: KindSimple, Name: "x", Pex: 1, Exec: 1, Children: []*Graph{Simple("y", 1)}}, wantErr: true},
		{name: "unknown kind", give: &Graph{Kind: Kind(42)}, wantErr: true},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			err := tt.give.Validate()
			if (err != nil) != tt.wantErr {
				t.Errorf("Validate() error = %v, wantErr %v", err, tt.wantErr)
			}
		})
	}
}

func TestCloneIsDeep(t *testing.T) {
	g := Serial(Simple("a", 1), Parallel(Simple("b", 2), Simple("c", 3)))
	cp := g.Clone()
	cp.Children[0].Exec = 99
	cp.Children[1].Children[0].Pex = 77
	if g.Children[0].Exec == 99 || g.Children[1].Children[0].Pex == 77 {
		t.Error("Clone shares leaf storage with the original")
	}
	if g.String() == "" || cp.LeafCount() != g.LeafCount() {
		t.Error("clone structure differs")
	}
	if (*Graph)(nil).Clone() != nil {
		t.Error("nil.Clone() should be nil")
	}
}

// randomGraph builds a random serial-parallel graph with leaf pex in
// (0, 10]. Shared by property tests below.
func randomGraph(r *rng.Source, depth int) *Graph {
	if depth <= 0 || r.IntN(3) == 0 {
		return Simple("l", r.Uniform(0.01, 10))
	}
	n := 1 + r.IntN(3)
	children := make([]*Graph, n)
	for i := range children {
		children[i] = randomGraph(r, depth-1)
	}
	if r.IntN(2) == 0 {
		return Serial(children...)
	}
	return Parallel(children...)
}

func TestPropertyAggregateBounds(t *testing.T) {
	r := rng.New(1234)
	for i := 0; i < 500; i++ {
		g := randomGraph(r, 4)
		agg := g.AggregatePex()
		total := 0.0
		maxLeaf := 0.0
		g.Walk(func(l *Graph) {
			total += l.Pex
			if l.Pex > maxLeaf {
				maxLeaf = l.Pex
			}
		})
		// Critical-path pex is at most the total work and at least the
		// largest single leaf.
		if agg > total+1e-9 || agg < maxLeaf-1e-9 {
			t.Fatalf("graph %s: AggregatePex %v outside [maxLeaf=%v, total=%v]",
				g, agg, maxLeaf, total)
		}
		if g.Depth() < 1 || g.Depth() > g.LeafCount() {
			t.Fatalf("graph %s: Depth %d outside [1, %d]", g, g.Depth(), g.LeafCount())
		}
	}
}

func TestPropertyStringParseRoundTrip(t *testing.T) {
	r := rng.New(99)
	for i := 0; i < 300; i++ {
		g := randomGraph(r, 3)
		parsed, err := Parse(g.String())
		if err != nil {
			t.Fatalf("round-trip parse of %q: %v", g.String(), err)
		}
		if parsed.String() != g.String() {
			t.Fatalf("round trip changed notation: %q -> %q", g.String(), parsed.String())
		}
		if parsed.LeafCount() != g.LeafCount() || parsed.Depth() != g.Depth() {
			t.Fatalf("round trip changed structure for %q", g.String())
		}
	}
}

func TestPropertySerialComposition(t *testing.T) {
	f := func(raw []float64) bool {
		if len(raw) == 0 {
			return true
		}
		if len(raw) > 8 {
			raw = raw[:8]
		}
		pexs := make([]float64, len(raw))
		sum := 0.0
		for i, v := range raw {
			pexs[i] = 0.01 + math.Abs(math.Mod(v, 100))
			sum += pexs[i]
		}
		g := serialChain(pexs...)
		return math.Abs(g.AggregatePex()-sum) < 1e-9 && g.Depth() == len(pexs)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}
