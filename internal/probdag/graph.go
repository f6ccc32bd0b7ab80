// Package probdag implements probabilistic task DAGs — DAGs whose node
// durations are independent finite discrete random variables, in
// particular the 2-state DAGs produced by the paper's first-order
// approximation — together with four expected-makespan estimators:
//
//   - MonteCarlo: sampling (the ground-truth method, §II-B)
//   - Normal:     Sculli's method (normal moments + Clark's maximum)
//   - Dodin:      series-parallel reduction with duplication
//   - PathApprox: first-order longest-path expansion (method of choice)
//
// plus an exact exhaustive evaluator used as a test oracle on small DAGs.
package probdag

import (
	"fmt"
	"sync/atomic"

	"repro/internal/dist"
)

// NodeID identifies a node in a probabilistic DAG.
type NodeID int

// Graph is a DAG whose nodes carry duration distributions. The makespan
// is the longest path (sum of node durations along a path, maximized
// over paths); edges carry no cost.
type Graph struct {
	dists []*dist.Discrete
	succ  [][]NodeID
	pred  [][]NodeID

	// mc is the Monte Carlo sampling kernel, built by the first
	// sampling pass over the graph and dropped by AddNode and AddEdge.
	mc atomic.Pointer[mcKernel]
}

// NewGraph returns an empty probabilistic DAG.
func NewGraph() *Graph { return &Graph{} }

// FromEdges returns the DAG whose node i lasts dists[i], with the
// precedence edges u -> v given as {u, v} pairs. It builds the graph
// AddNode and AddEdge would, in one pass: every Succ and Pred list
// holds its edges in the order given, as AddEdge appends them. The
// lists are capped windows of one shared backing array, so a later
// AddEdge reallocates the list it appends to instead of writing into
// its neighbour's. The graph takes ownership of dists.
//
// It fails on an edge with an endpoint out of range, a self edge or a
// repeated edge, which AddEdge would drop. It does not check for
// cycles: NewEvaluator and TopoOrder do.
func FromEdges(dists []*dist.Discrete, edges [][2]int) (*Graph, error) {
	n := len(dists)
	for _, e := range edges {
		if u, v := e[0], e[1]; u < 0 || u >= n || v < 0 || v >= n {
			return nil, fmt.Errorf("probdag: edge %d -> %d out of range [0, %d)", u, v, n)
		} else if u == v {
			return nil, fmt.Errorf("probdag: self edge on node %d", u)
		}
	}
	g := &Graph{dists: dists, succ: make([][]NodeID, n), pred: make([][]NodeID, n)}
	flat, scratch := make([]NodeID, 2*len(edges)), make([]int, n+1)
	pack(g.succ, flat[:len(edges)], edges, 0, scratch)
	pack(g.pred, flat[len(edges):], edges, 1, scratch)
	seen := scratch[:n] // seen[v] == u+1: edge u -> v already listed
	clear(seen)
	for u, ss := range g.succ {
		for _, v := range ss {
			if seen[v] == u+1 {
				return nil, fmt.Errorf("probdag: repeated edge %d -> %d", u, v)
			}
			seen[v] = u + 1
		}
	}
	return g, nil
}

// pack fills lists[x] with the other endpoint of every edge whose
// endpoint e[side] is x, in edge order, as capped windows of flat
// (one slot per edge). next is n+1 ints of scratch.
func pack(lists [][]NodeID, flat []NodeID, edges [][2]int, side int, next []int) {
	clear(next)
	for _, e := range edges {
		next[e[side]+1]++
	}
	for x := range lists {
		next[x+1] += next[x]
		lists[x] = flat[next[x]:next[x+1]:next[x+1]]
	}
	for _, e := range edges {
		x := e[side]
		flat[next[x]] = NodeID(e[1-side])
		next[x]++
	}
}

// AddNode appends a node with the given duration distribution.
func (g *Graph) AddNode(d *dist.Discrete) NodeID {
	id := NodeID(len(g.dists))
	g.dists = append(g.dists, d)
	g.succ = append(g.succ, nil)
	g.pred = append(g.pred, nil)
	g.mc.Store(nil)
	return id
}

// AddEdge adds the precedence u -> v. Duplicate edges are ignored.
func (g *Graph) AddEdge(u, v NodeID) {
	for _, s := range g.succ[u] {
		if s == v {
			return
		}
	}
	g.succ[u] = append(g.succ[u], v)
	g.pred[v] = append(g.pred[v], u)
	g.mc.Store(nil)
}

// mustKernel returns g's Monte Carlo kernel, building it on first use;
// concurrent first users may each build one, and they are identical.
// It panics if g is cyclic, the sampling entry points' historical
// contract.
func (g *Graph) mustKernel() *mcKernel {
	if k := g.mc.Load(); k != nil {
		return k
	}
	k, err := newMCKernel(g)
	if err != nil {
		panic(err)
	}
	g.mc.Store(k)
	return k
}

// Len returns the node count.
func (g *Graph) Len() int { return len(g.dists) }

// Dist returns node n's duration distribution.
func (g *Graph) Dist(n NodeID) *dist.Discrete { return g.dists[n] }

// Succ returns the successors of n (not to be modified).
func (g *Graph) Succ(n NodeID) []NodeID { return g.succ[n] }

// Pred returns the predecessors of n (not to be modified).
func (g *Graph) Pred(n NodeID) []NodeID { return g.pred[n] }

// TopoOrder returns a topological order (Kahn, smallest-ID first), or an
// error if the graph is cyclic.
func (g *Graph) TopoOrder() ([]NodeID, error) {
	n := len(g.dists)
	indeg := make([]int, n)
	for _, ss := range g.succ {
		for _, s := range ss {
			indeg[s]++
		}
	}
	var ready []NodeID
	for i := 0; i < n; i++ {
		if indeg[i] == 0 {
			ready = append(ready, NodeID(i))
		}
	}
	out := make([]NodeID, 0, n)
	for len(ready) > 0 {
		// Pop the smallest for determinism.
		min := 0
		for i := 1; i < len(ready); i++ {
			if ready[i] < ready[min] {
				min = i
			}
		}
		t := ready[min]
		ready = append(ready[:min], ready[min+1:]...)
		out = append(out, t)
		for _, s := range g.succ[t] {
			indeg[s]--
			if indeg[s] == 0 {
				ready = append(ready, s)
			}
		}
	}
	if len(out) != n {
		return nil, fmt.Errorf("probdag: graph is cyclic")
	}
	return out, nil
}

// MakespanGiven computes the longest path when node i lasts exactly
// durs[i].
func (g *Graph) MakespanGiven(durs []float64) float64 {
	order, err := g.TopoOrder()
	if err != nil {
		panic(err)
	}
	finish := make([]float64, len(durs))
	max := 0.0
	for _, v := range order {
		start := 0.0
		for _, p := range g.pred[v] {
			if finish[p] > start {
				start = finish[p]
			}
		}
		finish[v] = start + durs[int(v)]
		if finish[v] > max {
			max = finish[v]
		}
	}
	return max
}

// BaseDurations returns, per node, the support value with the highest
// probability (ties to the smaller value). For 2-state paper DAGs this
// is the no-failure duration.
func (g *Graph) BaseDurations() []float64 {
	out := make([]float64, len(g.dists))
	for i, d := range g.dists {
		out[i] = d.Base()
	}
	return out
}

// MeanDurations returns each node's expected duration.
func (g *Graph) MeanDurations() []float64 {
	out := make([]float64, len(g.dists))
	for i, d := range g.dists {
		out[i] = d.Mean()
	}
	return out
}
