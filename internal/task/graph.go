package task

import (
	"errors"
	"fmt"
	"strings"
)

// Kind discriminates graph nodes.
type Kind uint8

const (
	// KindSimple is a leaf: one unit of work at one node.
	KindSimple Kind = iota + 1
	// KindSerial executes its children one after another.
	KindSerial
	// KindParallel executes its children concurrently and joins.
	KindParallel
)

// String returns the kind name.
func (k Kind) String() string {
	switch k {
	case KindSimple:
		return "simple"
	case KindSerial:
		return "serial"
	case KindParallel:
		return "parallel"
	default:
		return fmt.Sprintf("Kind(%d)", uint8(k))
	}
}

// Graph is a node of a serial-parallel task graph. Leaves (KindSimple)
// carry the per-subtask timing data; interior nodes carry only structure.
// Graphs are built with Simple, Serial and Parallel, or parsed from the
// compact notation by Parse.
type Graph struct {
	Name     string   // leaf name; empty for groups
	Children []*Graph // nil for leaves

	// Pex is the predicted execution time of a leaf. For groups it is
	// ignored; use the Pex method, which aggregates recursively.
	Pex float64
	// Exec is the actual execution demand of a leaf, sampled by the
	// workload generator (or set by the user).
	Exec float64
	// NodeID is the placement of a leaf.
	NodeID int32
	// LeafIndex is the position of a leaf in Leaves() order; set by
	// Flatten. -1 until then.
	LeafIndex int32
	// Kind says whether the node is a leaf or a serial or parallel
	// group. It sits last so the record has no padding hole.
	Kind Kind
}

// Simple returns a leaf subtask with the given name and predicted
// execution time. Exec defaults to pex until a workload generator samples
// the real demand.
func Simple(name string, pex float64) *Graph {
	return &Graph{Kind: KindSimple, Name: name, Pex: pex, Exec: pex, LeafIndex: -1}
}

// Serial returns a serial group [c1 c2 ... cn].
func Serial(children ...*Graph) *Graph {
	return &Graph{Kind: KindSerial, Children: children, LeafIndex: -1}
}

// Parallel returns a parallel group [c1 || c2 || ... || cn].
func Parallel(children ...*Graph) *Graph {
	return &Graph{Kind: KindParallel, Children: children, LeafIndex: -1}
}

// Validate checks structural well-formedness: every group has at least
// one child, every leaf has positive predicted execution time and no
// children.
func (g *Graph) Validate() error {
	if g == nil {
		return errors.New("task: nil graph")
	}
	switch g.Kind {
	case KindSimple:
		if len(g.Children) != 0 {
			return fmt.Errorf("task: leaf %q has children", g.Name)
		}
		if g.Pex <= 0 {
			return fmt.Errorf("task: leaf %q has non-positive pex %v", g.Name, g.Pex)
		}
		if g.Exec <= 0 {
			return fmt.Errorf("task: leaf %q has non-positive exec %v", g.Name, g.Exec)
		}
		return nil
	case KindSerial, KindParallel:
		if len(g.Children) == 0 {
			return fmt.Errorf("task: empty %v group", g.Kind)
		}
		for _, c := range g.Children {
			if err := c.Validate(); err != nil {
				return err
			}
		}
		return nil
	default:
		return fmt.Errorf("task: unknown kind %v", g.Kind)
	}
}

// AggregatePex returns the predicted elapsed time of the (sub)graph: the
// leaf pex for leaves, the sum over children for serial groups and the
// maximum over children for parallel groups (branches overlap in time).
// This is the pex(·) a deadline-assignment strategy budgets with when a
// subtask is complex (paper section 6).
func (g *Graph) AggregatePex() float64 {
	switch g.Kind {
	case KindSimple:
		return g.Pex
	case KindSerial:
		sum := 0.0
		for _, c := range g.Children {
			sum += c.AggregatePex()
		}
		return sum
	case KindParallel:
		max := 0.0
		for _, c := range g.Children {
			if v := c.AggregatePex(); v > max {
				max = v
			}
		}
		return max
	default:
		return 0
	}
}

// CriticalPathExec returns the actual elapsed execution time along the
// critical path, ignoring queueing: serial children add, parallel
// children take the maximum. The workload generator uses it to set
// end-to-end deadlines (dl = ar + ex + sl) for mixed-shape global tasks.
func (g *Graph) CriticalPathExec() float64 {
	switch g.Kind {
	case KindSimple:
		return g.Exec
	case KindSerial:
		sum := 0.0
		for _, c := range g.Children {
			sum += c.CriticalPathExec()
		}
		return sum
	case KindParallel:
		max := 0.0
		for _, c := range g.Children {
			if v := c.CriticalPathExec(); v > max {
				max = v
			}
		}
		return max
	default:
		return 0
	}
}

// TotalExec returns the sum of actual execution demands over all leaves
// (the total work the graph injects into the system).
func (g *Graph) TotalExec() float64 {
	sum := 0.0
	g.Walk(func(leaf *Graph) { sum += leaf.Exec })
	return sum
}

// Depth returns the length (in stages) of the longest serial chain: 1 for
// a leaf, the sum over children for serial groups, the max for parallel
// groups. The workload generator scales global slack by this value so
// that rel_flex keeps its Table-1 meaning for mixed shapes (the
// "combined" experiment's workload).
func (g *Graph) Depth() int {
	switch g.Kind {
	case KindSimple:
		return 1
	case KindSerial:
		sum := 0
		for _, c := range g.Children {
			sum += c.Depth()
		}
		return sum
	case KindParallel:
		max := 0
		for _, c := range g.Children {
			if v := c.Depth(); v > max {
				max = v
			}
		}
		return max
	default:
		return 0
	}
}

// Walk visits every leaf in left-to-right order.
func (g *Graph) Walk(visit func(leaf *Graph)) {
	if g.Kind == KindSimple {
		visit(g)
		return
	}
	for _, c := range g.Children {
		c.Walk(visit)
	}
}

// Flatten assigns LeafIndex in left-to-right order and returns the leaves.
func (g *Graph) Flatten() []*Graph {
	var leaves []*Graph
	g.Walk(func(leaf *Graph) {
		leaf.LeafIndex = int32(len(leaves))
		leaves = append(leaves, leaf)
	})
	return leaves
}

// Index assigns LeafIndex in left-to-right order like Flatten but
// without materializing the leaf slice — the allocation-free variant for
// generators that only need the indices. It returns the leaf count.
func (g *Graph) Index() int { return g.index(0) }

func (g *Graph) index(next int) int {
	if g.Kind == KindSimple {
		g.LeafIndex = int32(next)
		return next + 1
	}
	for _, c := range g.Children {
		next = c.index(next)
	}
	return next
}

// LeafCount returns the number of simple subtasks in the graph.
func (g *Graph) LeafCount() int {
	n := 0
	g.Walk(func(*Graph) { n++ })
	return n
}

// Clone returns a deep copy of the graph. Workload generators clone a
// template shape before sampling per-instance execution times.
func (g *Graph) Clone() *Graph {
	if g == nil {
		return nil
	}
	cp := &Graph{
		Kind:      g.Kind,
		Name:      g.Name,
		Pex:       g.Pex,
		Exec:      g.Exec,
		NodeID:    g.NodeID,
		LeafIndex: g.LeafIndex,
	}
	if g.Children != nil {
		cp.Children = make([]*Graph, len(g.Children))
		for i, c := range g.Children {
			cp.Children[i] = c.Clone()
		}
	}
	return cp
}

// String renders the graph in the compact notation accepted by Parse:
// leaves as "name:pex", serial groups as "[a b]" and parallel groups as
// "[a || b]".
func (g *Graph) String() string {
	var b strings.Builder
	g.render(&b)
	return b.String()
}

func (g *Graph) render(b *strings.Builder) {
	switch g.Kind {
	case KindSimple:
		fmt.Fprintf(b, "%s:%g", g.Name, g.Pex)
	case KindSerial, KindParallel:
		sep := " "
		if g.Kind == KindParallel {
			sep = " || "
		}
		b.WriteByte('[')
		for i, c := range g.Children {
			if i > 0 {
				b.WriteString(sep)
			}
			c.render(b)
		}
		b.WriteByte(']')
	}
}
