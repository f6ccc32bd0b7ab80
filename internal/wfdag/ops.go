package wfdag

import (
	"errors"
	"fmt"
	"math/rand"
	"sort"
)

// ErrCyclic is returned by TopoOrder and Validate when the graph contains
// a dependency cycle.
var ErrCyclic = errors.New("wfdag: graph contains a cycle")

// TopoOrder returns a deterministic topological order of all tasks
// (Kahn's algorithm, breaking ties by ascending TaskID). It returns
// ErrCyclic if the graph has a cycle.
func (g *Graph) TopoOrder() ([]TaskID, error) {
	return g.topo(func(ready []TaskID) TaskID {
		// Deterministic: smallest ID first. ready is kept sorted.
		return ready[0]
	})
}

// RandomTopoOrder returns a uniformly random topological order drawn with
// rng, as used by the paper's OnOneProcessor linearization ("performs a
// random topological sort").
func (g *Graph) RandomTopoOrder(rng *rand.Rand) ([]TaskID, error) {
	return g.topo(func(ready []TaskID) TaskID {
		return ready[rng.Intn(len(ready))]
	})
}

// topo runs Kahn's algorithm, delegating the choice among ready tasks to
// pick. The ready slice passed to pick is sorted by ascending TaskID and
// non-empty; pick must return one of its elements.
func (g *Graph) topo(pick func(ready []TaskID) TaskID) ([]TaskID, error) {
	n := len(g.tasks)
	indeg := make([]int, n)
	for i := 0; i < n; i++ {
		indeg[i] = len(g.PredTasks(TaskID(i)))
	}
	var ready []TaskID
	for i := 0; i < n; i++ {
		if indeg[i] == 0 {
			ready = append(ready, TaskID(i))
		}
	}
	order := make([]TaskID, 0, n)
	for len(ready) > 0 {
		t := pick(ready)
		// Remove t from ready.
		for i, r := range ready {
			if r == t {
				ready = append(ready[:i], ready[i+1:]...)
				break
			}
		}
		order = append(order, t)
		for _, s := range g.SuccTasks(t) {
			indeg[s]--
			if indeg[s] == 0 {
				// Insert keeping ready sorted.
				pos := sort.Search(len(ready), func(i int) bool { return ready[i] >= s })
				ready = append(ready, 0)
				copy(ready[pos+1:], ready[pos:])
				ready[pos] = s
			}
		}
	}
	if len(order) != n {
		return nil, ErrCyclic
	}
	return order, nil
}

// Validate checks structural invariants: edge endpoints in range, file
// producers consistent with edges, non-negative weights and sizes, and
// acyclicity. It returns the first violation found.
func (g *Graph) Validate() error {
	n := TaskID(len(g.tasks))
	for i, t := range g.tasks {
		if t.ID != TaskID(i) {
			return fmt.Errorf("wfdag: task %d has inconsistent ID %d", i, t.ID)
		}
		if t.Weight < 0 {
			return fmt.Errorf("wfdag: task %d (%s) has negative weight %g", i, t.Name, t.Weight)
		}
	}
	for i, f := range g.files {
		if f.ID != FileID(i) {
			return fmt.Errorf("wfdag: file %d has inconsistent ID %d", i, f.ID)
		}
		if f.Size < 0 {
			return fmt.Errorf("wfdag: file %d (%s) has negative size %g", i, f.Name, f.Size)
		}
		if f.Producer != NoTask && (f.Producer < 0 || f.Producer >= n) {
			return fmt.Errorf("wfdag: file %d has out-of-range producer %d", i, f.Producer)
		}
	}
	for u, es := range g.succ {
		for _, e := range es {
			if e.From != TaskID(u) {
				return fmt.Errorf("wfdag: edge %v stored under wrong source %d", e, u)
			}
			if e.To < 0 || e.To >= n {
				return fmt.Errorf("wfdag: edge %v has out-of-range target", e)
			}
			if e.File < 0 || int(e.File) >= len(g.files) {
				return fmt.Errorf("wfdag: edge %v has out-of-range file", e)
			}
			if g.files[e.File].Producer != e.From {
				return fmt.Errorf("wfdag: edge %v carries file produced by %d", e, g.files[e.File].Producer)
			}
		}
	}
	if _, err := g.TopoOrder(); err != nil {
		return err
	}
	return nil
}

// WeakComponents partitions the tasks into weakly connected components.
// Each component is returned in ascending TaskID order, and components
// are ordered by their smallest member.
func (g *Graph) WeakComponents() [][]TaskID {
	n := len(g.tasks)
	parent := make([]int, n)
	for i := range parent {
		parent[i] = i
	}
	var find func(int) int
	find = func(x int) int {
		for parent[x] != x {
			parent[x] = parent[parent[x]]
			x = parent[x]
		}
		return x
	}
	union := func(a, b int) {
		ra, rb := find(a), find(b)
		if ra != rb {
			parent[rb] = ra
		}
	}
	for u, es := range g.succ {
		for _, e := range es {
			union(u, int(e.To))
		}
	}
	groups := make(map[int][]TaskID)
	for i := 0; i < n; i++ {
		r := find(i)
		groups[r] = append(groups[r], TaskID(i))
	}
	roots := make([]int, 0, len(groups))
	for r := range groups {
		roots = append(roots, r)
	}
	sort.Slice(roots, func(i, j int) bool { return groups[roots[i]][0] < groups[roots[j]][0] })
	out := make([][]TaskID, 0, len(groups))
	for _, r := range roots {
		out = append(out, groups[r])
	}
	return out
}

// LongestPath returns, for each task, the length of the longest
// weight-sum path ending at (and including) that task, together with the
// overall critical-path length. Edge communication costs are not
// included, matching the paper's platform model where only stable-storage
// I/O costs time.
func (g *Graph) LongestPath() (finish []float64, makespan float64, err error) {
	order, err := g.TopoOrder()
	if err != nil {
		return nil, 0, err
	}
	finish = make([]float64, len(g.tasks))
	for _, t := range order {
		start := 0.0
		for _, p := range g.PredTasks(t) {
			if finish[p] > start {
				start = finish[p]
			}
		}
		finish[t] = start + g.tasks[t].Weight
		if finish[t] > makespan {
			makespan = finish[t]
		}
	}
	return finish, makespan, nil
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
