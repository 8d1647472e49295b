package task

import "testing"

func TestGraphPoolRoundTrip(t *testing.T) {
	p := &GraphPool{}
	g := p.Group(KindSerial)
	for i := 0; i < 3; i++ {
		leaf := p.Simple("t", 1)
		leaf.Exec, leaf.NodeID = 2.5, i
		g.Children = append(g.Children, leaf)
	}
	if n := g.Index(); n != 3 {
		t.Fatalf("Index = %d leaves, want 3", n)
	}
	if g.Children[2].LeafIndex != 2 {
		t.Fatalf("LeafIndex = %d, want 2", g.Children[2].LeafIndex)
	}
	root := g
	p.Release(g)
	if p.Size() != 4 {
		t.Fatalf("Size = %d after releasing 1 group + 3 leaves, want 4", p.Size())
	}

	// LIFO reuse: the next same-shape build pops each node back in its
	// old role; the group node keeps its grown children capacity.
	g2 := p.Group(KindSerial)
	if g2 != root {
		t.Fatal("group node not recycled first (LIFO order broken)")
	}
	if cap(g2.Children) < 3 {
		t.Fatalf("recycled group lost children capacity: cap = %d", cap(g2.Children))
	}
	if len(g2.Children) != 0 || g2.LeafIndex != -1 {
		t.Fatalf("recycled node not reset: %+v", g2)
	}
	leaf := p.Simple("t", 1)
	if leaf.Exec != 1 || leaf.NodeID != 0 || leaf.Kind != KindSimple {
		t.Fatalf("recycled leaf not reset: %+v", leaf)
	}
}

// TestNilGraphPoolIsValid pins the builders' nil-pool path: Shape.Build
// draws a graph without a pool.
func TestNilGraphPoolIsValid(t *testing.T) {
	var p *GraphPool
	g := p.Group(KindParallel)
	p.EnsureKids(g, 2)
	g.Children = append(g.Children, p.Simple("a", 1), p.Simple("b", 2))
	if err := g.Validate(); err != nil {
		t.Fatalf("nil-pool graph invalid: %v", err)
	}
	if g.LeafIndex != -1 || g.Children[0].LeafIndex != -1 {
		t.Fatalf("nil-pool nodes not initialized: %+v", g)
	}
}

func TestIndexMatchesFlatten(t *testing.T) {
	g := Serial(Simple("a", 1), Parallel(Simple("b", 1), Simple("c", 1)), Simple("d", 1))
	want := g.Clone().Flatten()
	if n := g.Index(); n != len(want) {
		t.Fatalf("Index count = %d, want %d", n, len(want))
	}
	got := g.Flatten()
	for i := range got {
		if got[i].LeafIndex != want[i].LeafIndex {
			t.Fatalf("leaf %d: Index assigned %d, Flatten assigned %d",
				i, got[i].LeafIndex, want[i].LeafIndex)
		}
	}
}
