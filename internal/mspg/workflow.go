package mspg

import (
	"fmt"
	"slices"
	"sort"

	"repro/internal/wfdag"
)

// Workflow binds a data-dependency graph to its M-SPG structure tree.
// Generators produce both simultaneously so that schedulers can follow
// the recursive structure while cost accounting uses the real files.
type Workflow struct {
	Name string
	G    *wfdag.Graph
	Root *Node
}

// Clone returns a copy of the workflow that clones the graph (see
// wfdag.Graph.Clone: only the file sizes, which CCR targeting rescales
// in place, are copied; the topology and its index are shared) and
// shares the structure tree by pointer. Nothing writes to a tree once
// it is built — the New* builders make fresh nodes and Normalize shares
// only what it leaves unchanged — so clones can be scheduled and
// rescaled concurrently while they hold one tree. A clone costs three
// allocations and one float64 per file, whatever the workflow's size.
func (w *Workflow) Clone() *Workflow {
	return &Workflow{Name: w.Name, G: w.G.Clone(), Root: w.Root}
}

// Validate checks that the tree and the graph tell the same story: the
// tree covers every task exactly once and the task-pair dependency
// relation induced by the M-SPG algebra equals the graph's dependency
// relation. It also validates the underlying graph.
//
// The check is linear in the size of the tree plus the graph's
// task-edges, up to a binary search per edge. One bottom-up pass checks
// each pair u→v a Serial node implies (every sink of a child to every
// source of the next) against the sorted G.SuccTasks(u), and counts the
// pairs. Once coverage holds, the implied pairs are pairwise distinct:
// the Serial node that implies u→v is the lowest common ancestor of u
// and v, and u and v sit in consecutive children of it. So inclusion
// plus equal counts is set equality, and no edge set is ever built
// except to name the offending edge on failure.
func (w *Workflow) Validate() error {
	if err := w.G.Validate(); err != nil {
		return err
	}
	n := w.G.NumTasks()
	if got := w.Root.NumTasks(); got != n {
		return fmt.Errorf("mspg: tree has %d tasks, graph has %d", got, n)
	}
	if err := checkCoverage(w.Root, make([]bool, n)); err != nil {
		return err
	}
	c := edgeCheck{g: w.G}
	if err := c.visit(w.Root); err != nil {
		return err
	}
	edges := 0
	for u := 0; u < n; u++ {
		edges += len(w.G.SuccTasks(wfdag.TaskID(u)))
	}
	if c.pairs == edges {
		return nil
	}
	// Fewer implied pairs than graph edges: name the first graph edge,
	// in (from, to) order, that the tree does not imply.
	c = edgeCheck{g: w.G, implied: make(map[[2]wfdag.TaskID]bool, c.pairs)}
	_ = c.visit(w.Root) // recording checks nothing, so it cannot fail
	for u := 0; u < n; u++ {
		for _, v := range w.G.SuccTasks(wfdag.TaskID(u)) {
			if !c.implied[[2]wfdag.TaskID{wfdag.TaskID(u), v}] {
				return fmt.Errorf("mspg: graph edge %d->%d not implied by tree", u, v)
			}
		}
	}
	return fmt.Errorf("mspg: tree implies %d edges, graph has %d", c.pairs, edges)
}

// checkCoverage reports the first leaf that is out of range or seen
// before, marking leaves in seen (one flag per graph task).
func checkCoverage(n *Node, seen []bool) error {
	if n == nil {
		return nil
	}
	if n.Kind == Atomic {
		t := n.Task
		if t < 0 || int(t) >= len(seen) {
			return fmt.Errorf("mspg: tree references out-of-range task %d", t)
		}
		if seen[t] {
			return fmt.Errorf("mspg: task %d appears twice in the tree", t)
		}
		seen[t] = true
		return nil
	}
	for _, c := range n.Children {
		if err := checkCoverage(c, seen); err != nil {
			return err
		}
	}
	return nil
}

// edgeCheck is Validate's bottom-up pass over the pairs the tree
// implies.
type edgeCheck struct {
	g              *wfdag.Graph
	sinks, sources []wfdag.TaskID // scratch, reused at every Serial step
	pairs          int            // implied pairs checked so far
	// implied, when non-nil, records every implied pair instead of
	// checking it against the graph (the failure path only).
	implied map[[2]wfdag.TaskID]bool
}

// visit checks every pair implied inside n. Each node is walked at most
// once while collecting sinks and once while collecting sources: above
// the Serial step that collects a child's sinks, that child's tasks are
// no longer sinks of any enclosing subtree (and likewise for sources).
func (c *edgeCheck) visit(n *Node) error {
	if n == nil || n.Kind == Atomic {
		return nil
	}
	for _, ch := range n.Children {
		if err := c.visit(ch); err != nil {
			return err
		}
	}
	if n.Kind != Serial {
		return nil
	}
	for i := 0; i+1 < len(n.Children); i++ {
		c.sinks = n.Children[i].appendSinks(c.sinks[:0])
		c.sources = n.Children[i+1].appendSources(c.sources[:0])
		c.pairs += len(c.sinks) * len(c.sources)
		for _, u := range c.sinks {
			succ := c.g.SuccTasks(u)
			for _, v := range c.sources {
				if c.implied != nil {
					c.implied[[2]wfdag.TaskID{u, v}] = true
				} else if _, ok := slices.BinarySearch(succ, v); !ok {
					return fmt.Errorf("mspg: tree implies edge %d->%d missing from graph", u, v)
				}
			}
		}
	}
	return nil
}

// SortPartsByWeight returns indices of parts ordered by non-increasing
// weight (ties broken by smaller first-task ID for determinism), as
// required by PropMap line 20.
func SortPartsByWeight(g *wfdag.Graph, parts []*Node) []int {
	idx := make([]int, len(parts))
	w := make([]float64, len(parts))
	first := make([]wfdag.TaskID, len(parts))
	for i, p := range parts {
		idx[i] = i
		w[i] = p.Weight(g)
		first[i], _ = p.firstTask()
	}
	sort.SliceStable(idx, func(a, b int) bool {
		if w[idx[a]] != w[idx[b]] {
			return w[idx[a]] > w[idx[b]]
		}
		return first[idx[a]] < first[idx[b]]
	})
	return idx
}
