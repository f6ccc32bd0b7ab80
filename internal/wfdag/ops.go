package wfdag

import (
	"errors"
	"fmt"
	"slices"
)

// ErrCyclic is returned by TopoOrder and Validate when the graph contains
// a dependency cycle.
var ErrCyclic = errors.New("wfdag: graph contains a cycle")

// TopoOrder returns a deterministic topological order of all tasks
// (Kahn's algorithm, breaking ties by ascending TaskID). It returns
// ErrCyclic if the graph has a cycle.
func (g *Graph) TopoOrder() ([]TaskID, error) {
	n := len(g.tasks)
	indeg := make([]int, n)
	var ready []TaskID // ascending
	for i := 0; i < n; i++ {
		if indeg[i] = len(g.PredTasks(TaskID(i))); indeg[i] == 0 {
			ready = append(ready, TaskID(i))
		}
	}
	order := make([]TaskID, 0, n)
	for len(ready) > 0 {
		t := ready[0]
		ready = ready[1:]
		order = append(order, t)
		for _, s := range g.SuccTasks(t) {
			if indeg[s]--; indeg[s] == 0 {
				pos, _ := slices.BinarySearch(ready, s)
				ready = slices.Insert(ready, pos, s)
			}
		}
	}
	if len(order) != n {
		return nil, ErrCyclic
	}
	return order, nil
}

// Validate checks structural invariants: non-negative weights and
// sizes, file producers and dependency endpoints in range, and
// acyclicity. It returns the first violation found. The producer of an
// edge is its file's producer by construction, so no edge can disagree
// with the file it carries.
func (g *Graph) Validate() error {
	n := TaskID(len(g.tasks))
	for i, t := range g.tasks {
		if t.Weight < 0 {
			return fmt.Errorf("wfdag: task %d (%s) has negative weight %g", i, t.Name, t.Weight)
		}
	}
	for i, f := range g.files {
		if g.sizes[i] < 0 {
			return fmt.Errorf("wfdag: file %d (%s) has negative size %g", i, f.name, g.sizes[i])
		}
		if f.producer != NoTask && (f.producer < 0 || f.producer >= n) {
			return fmt.Errorf("wfdag: file %d has out-of-range producer %d", i, f.producer)
		}
	}
	for _, d := range g.deps {
		if d.to < 0 || d.to >= n {
			return fmt.Errorf("wfdag: dependency on file %d has out-of-range consumer %d", d.file, d.to)
		}
		if d.file < 0 || int(d.file) >= len(g.files) {
			return fmt.Errorf("wfdag: task %d reads out-of-range file %d", d.to, d.file)
		}
	}
	if _, err := g.TopoOrder(); err != nil {
		return err
	}
	return nil
}

// Reachable returns the set of tasks reachable from t (excluding t).
func (g *Graph) Reachable(t TaskID) map[TaskID]bool {
	seen := make(map[TaskID]bool)
	stack := []TaskID{t}
	for len(stack) > 0 {
		u := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		for _, s := range g.SuccTasks(u) {
			if !seen[s] {
				seen[s] = true
				stack = append(stack, s)
			}
		}
	}
	return seen
}

// TransitiveReductionEdges returns the set of (from, to) task pairs that
// belong to the transitive reduction of the dependency relation: an edge
// is redundant when another path from its source reaches its target.
// File multiplicity is ignored; the result is a set over task pairs.
func (g *Graph) TransitiveReductionEdges() map[[2]TaskID]bool {
	out := make(map[[2]TaskID]bool)
	for u := range g.tasks {
		succs := g.SuccTasks(TaskID(u))
		for _, v := range succs {
			redundant := false
			for _, w := range succs {
				if w == v {
					continue
				}
				if w == v || g.Reachable(w)[v] {
					redundant = true
					break
				}
			}
			if !redundant {
				out[[2]TaskID{TaskID(u), v}] = true
			}
		}
	}
	return out
}
