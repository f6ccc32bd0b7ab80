package mspg

import (
	"fmt"
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
// wfdag.Graph.Clone: tasks and files, whose sizes CCR targeting
// rescales in place, are copied) and shares the structure tree by
// pointer. Nothing writes to a tree once it is built — Normalize and
// the New* builders make fresh nodes — so clones can be scheduled and
// rescaled concurrently while they hold one tree.
func (w *Workflow) Clone() *Workflow {
	return &Workflow{Name: w.Name, G: w.G.Clone(), Root: w.Root}
}

// Validate checks that the tree and the graph tell the same story: the
// tree covers every task exactly once and the task-pair dependency
// relation induced by the M-SPG algebra equals the graph's dependency
// relation. It also validates the underlying graph.
func (w *Workflow) Validate() error {
	if err := w.G.Validate(); err != nil {
		return err
	}
	tasks := w.Root.Tasks()
	if len(tasks) != w.G.NumTasks() {
		return fmt.Errorf("mspg: tree has %d tasks, graph has %d", len(tasks), w.G.NumTasks())
	}
	seen := make(map[wfdag.TaskID]bool, len(tasks))
	for _, t := range tasks {
		if seen[t] {
			return fmt.Errorf("mspg: task %d appears twice in the tree", t)
		}
		if int(t) < 0 || int(t) >= w.G.NumTasks() {
			return fmt.Errorf("mspg: tree references out-of-range task %d", t)
		}
		seen[t] = true
	}
	want := TreeEdgeSet(w.Root)
	got := make(map[[2]wfdag.TaskID]bool)
	for i := 0; i < w.G.NumTasks(); i++ {
		for _, s := range w.G.SuccTasks(wfdag.TaskID(i)) {
			got[[2]wfdag.TaskID{wfdag.TaskID(i), s}] = true
		}
	}
	for e := range want {
		if !got[e] {
			return fmt.Errorf("mspg: tree implies edge %d->%d missing from graph", e[0], e[1])
		}
	}
	for e := range got {
		if !want[e] {
			return fmt.Errorf("mspg: graph edge %d->%d not implied by tree", e[0], e[1])
		}
	}
	return nil
}

// TreeEdgeSet returns the task-pair dependency relation induced by the
// M-SPG algebra on the tree: for every Serial node, all sinks of each
// child connect to all sources of the next child.
func TreeEdgeSet(n *Node) map[[2]wfdag.TaskID]bool {
	out := make(map[[2]wfdag.TaskID]bool)
	var rec func(*Node)
	rec = func(n *Node) {
		if n == nil || n.Kind == Atomic {
			return
		}
		for _, c := range n.Children {
			rec(c)
		}
		if n.Kind == Serial {
			for i := 0; i+1 < len(n.Children); i++ {
				for _, u := range n.Children[i].Sinks() {
					for _, v := range n.Children[i+1].Sources() {
						out[[2]wfdag.TaskID{u, v}] = true
					}
				}
			}
		}
	}
	rec(n)
	return out
}

// SubtreeWeights returns the weight of each child of a Parallel node (or
// of the single node itself otherwise), used by PropMap.
func SubtreeWeights(g *wfdag.Graph, parts []*Node) []float64 {
	out := make([]float64, len(parts))
	for i, p := range parts {
		out[i] = p.Weight(g)
	}
	return out
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
		ts := p.Tasks()
		if len(ts) > 0 {
			first[i] = ts[0]
		}
	}
	sort.SliceStable(idx, func(a, b int) bool {
		if w[idx[a]] != w[idx[b]] {
			return w[idx[a]] > w[idx[b]]
		}
		return first[idx[a]] < first[idx[b]]
	})
	return idx
}
