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
// once built (the builders make fresh nodes, and Normalize shares only
// subtrees it leaves unchanged), so one tree may be shared by any
// number of workflows and goroutines.
type Node struct {
	Kind     Kind
	Task     wfdag.TaskID // valid when Kind == Atomic
	Children []*Node      // valid when Kind != Atomic
}

// NewAtomic returns a leaf for task t.
func NewAtomic(t wfdag.TaskID) *Node { return &Node{Kind: Atomic, Task: t} }

// NewChain returns the serial composition of the given tasks as atoms.
// An empty argument list yields the empty M-SPG (nil).
//
//hanccr:allow deadapi the mspg, ckpt and sim tests build chain workflows with it; production trees come from Recognize and the generators
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
func NewSerial(parts ...*Node) *Node { return compose(Serial, parts) }

// NewParallel returns the parallel composition of the given sub-M-SPGs,
// skipping empty operands, splicing nested Parallel children, and
// collapsing a single operand.
func NewParallel(parts ...*Node) *Node { return compose(Parallel, parts) }

// compose builds NewSerial or NewParallel into one exactly sized child
// list.
func compose(kind Kind, parts []*Node) *Node {
	count := 0
	var last *Node // the last child, returned alone when count is 1
	for _, p := range parts {
		switch {
		case p == nil:
		case p.Kind == kind:
			if len(p.Children) > 0 {
				count += len(p.Children)
				last = p.Children[len(p.Children)-1]
			}
		default:
			count++
			last = p
		}
	}
	switch count {
	case 0:
		return nil
	case 1:
		return last
	}
	children := make([]*Node, 0, count)
	for _, p := range parts {
		switch {
		case p == nil:
		case p.Kind == kind:
			children = append(children, p.Children...)
		default:
			children = append(children, p)
		}
	}
	return &Node{Kind: kind, Children: children}
}

// Normalize returns an equivalent tree in canonical form: no nil
// children, no Serial directly under Serial, no Parallel directly under
// Parallel, and no single-child internal node. The input is not
// modified, and the result shares its canonical subtrees: a subtree
// that already passes IsNormalized comes back as the same pointer
// (nodes are immutable), and only the non-canonical parts above it get
// fresh nodes. A canonical tree is returned as is, in one pass.
func (n *Node) Normalize() *Node {
	if n == nil {
		return nil
	}
	switch n.Kind {
	case Atomic:
		return n
	case Serial, Parallel:
	default:
		panic(fmt.Sprintf("mspg: unknown kind %v", n.Kind))
	}
	// parts stays nil while every child so far is canonical and may
	// stay where it is.
	var parts []*Node
	for i, c := range n.Children {
		nc := c.Normalize()
		if parts == nil && nc == c && c != nil && c.Kind != n.Kind {
			continue
		}
		if parts == nil {
			parts = make([]*Node, i, len(n.Children))
			copy(parts, n.Children[:i])
		}
		parts = append(parts, nc)
	}
	if parts == nil {
		if len(n.Children) >= 2 {
			return n
		}
		parts = n.Children
	}
	if n.Kind == Serial {
		return NewSerial(parts...)
	}
	return NewParallel(parts...)
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
func (n *Node) Sources() []wfdag.TaskID { return n.appendSources(nil) }

// appendSources appends the subtree's sources to dst. It visits only
// the nodes on the way down to them, which in a canonical tree are
// fewer than twice as many as the sources.
func (n *Node) appendSources(dst []wfdag.TaskID) []wfdag.TaskID {
	if n == nil {
		return dst
	}
	switch n.Kind {
	case Atomic:
		return append(dst, n.Task)
	case Serial:
		if len(n.Children) > 0 {
			return n.Children[0].appendSources(dst)
		}
	case Parallel:
		for _, c := range n.Children {
			dst = c.appendSources(dst)
		}
	}
	return dst
}

// appendSinks is appendSources for the sinks.
func (n *Node) appendSinks(dst []wfdag.TaskID) []wfdag.TaskID {
	if n == nil {
		return dst
	}
	switch n.Kind {
	case Atomic:
		return append(dst, n.Task)
	case Serial:
		if len(n.Children) > 0 {
			return n.Children[len(n.Children)-1].appendSinks(dst)
		}
	case Parallel:
		for _, c := range n.Children {
			dst = c.appendSinks(dst)
		}
	}
	return dst
}

// firstTask returns the subtree's first task in tree order, Tasks()[0],
// without listing the others; ok is false for an empty subtree.
func (n *Node) firstTask() (t wfdag.TaskID, ok bool) {
	if n == nil {
		return 0, false
	}
	if n.Kind == Atomic {
		return n.Task, true
	}
	for _, c := range n.Children {
		if t, ok := c.firstTask(); ok {
			return t, true
		}
	}
	return 0, false
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
//
//hanccr:allow deadapi the mspg and pegasus tests check canonical form with it; production trees are normalized when built
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
