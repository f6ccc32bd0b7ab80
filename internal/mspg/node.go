// Package mspg implements Minimal Series-Parallel Graphs (Valdes, Tarjan,
// Lawler 1979) as used by the paper: a recursive algebra over workflow
// tasks with two operators, serial composition ;→ (adding dependencies
// from all sinks of the left operand to all sources of the right one,
// without merging them) and parallel composition ‖ (disjoint union).
//
// The package provides the recursive tree representation, builders,
// normalization, the head decomposition G = C ;→ (G1‖…‖Gn) ;→ Gn+1 that
// drives the paper's Algorithm 1, structural validation of a tree against
// the underlying data-dependency graph, and recognition of M-SPG
// structure from a bare DAG.
package mspg

import (
	"fmt"
	"strings"

	"repro/internal/wfdag"
)

// Kind discriminates the three node flavours of an M-SPG tree.
type Kind int

const (
	// Atomic is a single workflow task.
	Atomic Kind = iota
	// Serial is the ;→ composition of its children, left to right.
	Serial
	// Parallel is the ‖ composition of its children.
	Parallel
)

// String implements fmt.Stringer.
func (k Kind) String() string {
	switch k {
	case Atomic:
		return "Atomic"
	case Serial:
		return "Serial"
	case Parallel:
		return "Parallel"
	default:
		return fmt.Sprintf("Kind(%d)", int(k))
	}
}

// Node is one vertex of an M-SPG tree. Leaves (Kind == Atomic) reference
// a task in the accompanying wfdag.Graph; internal nodes own an ordered
// child list. A nil *Node denotes the empty M-SPG. Nodes are immutable
// once built (every builder and Normalize make fresh nodes), so one
// tree may be shared by any number of workflows and goroutines.
type Node struct {
	Kind     Kind
	Task     wfdag.TaskID // valid when Kind == Atomic
	Children []*Node      // valid when Kind != Atomic
}

// NewAtomic returns a leaf for task t.
func NewAtomic(t wfdag.TaskID) *Node { return &Node{Kind: Atomic, Task: t} }

// NewChain returns the serial composition of the given tasks as atoms.
// An empty argument list yields the empty M-SPG (nil).
func NewChain(tasks ...wfdag.TaskID) *Node {
	if len(tasks) == 0 {
		return nil
	}
	if len(tasks) == 1 {
		return NewAtomic(tasks[0])
	}
	children := make([]*Node, len(tasks))
	for i, t := range tasks {
		children[i] = NewAtomic(t)
	}
	return &Node{Kind: Serial, Children: children}
}

// NewSerial returns the serial composition of the given sub-M-SPGs,
// skipping empty (nil) operands. It normalizes shallowly: nested Serial
// children are spliced in and a single operand is returned as-is.
func NewSerial(parts ...*Node) *Node {
	var children []*Node
	for _, p := range parts {
		if p == nil {
			continue
		}
		if p.Kind == Serial {
			children = append(children, p.Children...)
		} else {
			children = append(children, p)
		}
	}
	switch len(children) {
	case 0:
		return nil
	case 1:
		return children[0]
	}
	return &Node{Kind: Serial, Children: children}
}

// NewParallel returns the parallel composition of the given sub-M-SPGs,
// skipping empty operands, splicing nested Parallel children, and
// collapsing a single operand.
func NewParallel(parts ...*Node) *Node {
	var children []*Node
	for _, p := range parts {
		if p == nil {
			continue
		}
		if p.Kind == Parallel {
			children = append(children, p.Children...)
		} else {
			children = append(children, p)
		}
	}
	switch len(children) {
	case 0:
		return nil
	case 1:
		return children[0]
	}
	return &Node{Kind: Parallel, Children: children}
}

// Normalize returns an equivalent tree in canonical form: no nil
// children, no Serial directly under Serial, no Parallel directly under
// Parallel, and no single-child internal node. The input is not modified.
func (n *Node) Normalize() *Node {
	if n == nil {
		return nil
	}
	switch n.Kind {
	case Atomic:
		return &Node{Kind: Atomic, Task: n.Task}
	case Serial:
		parts := make([]*Node, 0, len(n.Children))
		for _, c := range n.Children {
			parts = append(parts, c.Normalize())
		}
		return NewSerial(parts...)
	case Parallel:
		parts := make([]*Node, 0, len(n.Children))
		for _, c := range n.Children {
			parts = append(parts, c.Normalize())
		}
		return NewParallel(parts...)
	default:
		panic(fmt.Sprintf("mspg: unknown kind %v", n.Kind))
	}
}

// Tasks returns every task in the subtree, in tree (left-to-right,
// depth-first) order, which is a valid topological order of the induced
// sub-graph for Serial nodes.
func (n *Node) Tasks() []wfdag.TaskID {
	var out []wfdag.TaskID
	n.walk(func(t wfdag.TaskID) { out = append(out, t) })
	return out
}

// NumTasks returns the number of atomic tasks in the subtree.
func (n *Node) NumTasks() int {
	count := 0
	n.walk(func(wfdag.TaskID) { count++ })
	return count
}

func (n *Node) walk(f func(wfdag.TaskID)) {
	if n == nil {
		return
	}
	if n.Kind == Atomic {
		f(n.Task)
		return
	}
	for _, c := range n.Children {
		c.walk(f)
	}
}

// Weight returns the sum of the weights of all tasks in the subtree.
func (n *Node) Weight(g *wfdag.Graph) float64 {
	s := 0.0
	n.walk(func(t wfdag.TaskID) { s += g.Task(t).Weight })
	return s
}

// Sources returns the source tasks of the sub-M-SPG: tasks with no
// predecessor inside the subtree. By the M-SPG algebra these are the
// sources of the first serial child (or the union over parallel
// children).
func (n *Node) Sources() []wfdag.TaskID {
	if n == nil {
		return nil
	}
	switch n.Kind {
	case Atomic:
		return []wfdag.TaskID{n.Task}
	case Serial:
		return n.Children[0].Sources()
	case Parallel:
		var out []wfdag.TaskID
		for _, c := range n.Children {
			out = append(out, c.Sources()...)
		}
		return out
	}
	return nil
}

// Sinks returns the sink tasks of the sub-M-SPG: tasks with no successor
// inside the subtree.
func (n *Node) Sinks() []wfdag.TaskID {
	if n == nil {
		return nil
	}
	switch n.Kind {
	case Atomic:
		return []wfdag.TaskID{n.Task}
	case Serial:
		return n.Children[len(n.Children)-1].Sinks()
	case Parallel:
		var out []wfdag.TaskID
		for _, c := range n.Children {
			out = append(out, c.Sinks()...)
		}
		return out
	}
	return nil
}

// String renders the tree with the paper's notation: atoms as T<i>,
// serial as (a ; b), parallel as (a || b).
func (n *Node) String() string {
	if n == nil {
		return "∅"
	}
	switch n.Kind {
	case Atomic:
		return fmt.Sprintf("T%d", n.Task)
	case Serial:
		parts := make([]string, len(n.Children))
		for i, c := range n.Children {
			parts[i] = c.String()
		}
		return "(" + strings.Join(parts, " ; ") + ")"
	case Parallel:
		parts := make([]string, len(n.Children))
		for i, c := range n.Children {
			parts[i] = c.String()
		}
		return "(" + strings.Join(parts, " || ") + ")"
	}
	return "?"
}

// IsNormalized reports whether the subtree is in the canonical form
// produced by Normalize.
func (n *Node) IsNormalized() bool {
	if n == nil {
		return true
	}
	switch n.Kind {
	case Atomic:
		return true
	case Serial, Parallel:
		if len(n.Children) < 2 {
			return false
		}
		for _, c := range n.Children {
			if c == nil || c.Kind == n.Kind || !c.IsNormalized() {
				return false
			}
		}
		return true
	}
	return false
}
