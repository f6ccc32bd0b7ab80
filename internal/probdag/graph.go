// Package probdag implements probabilistic task DAGs — DAGs whose node
// durations are independent finite discrete random variables, in
// particular the 2-state DAGs produced by the paper's first-order
// approximation — together with the four expected-makespan estimators
// of §VI-B. An Evaluator is the one estimator surface: built once per
// graph, it owns the scratch every estimator reuses.
//
//   - MonteCarlo: sampling (the ground-truth method, §II-B); its
//     parallel, seeded form is MonteCarloSeededCtx
//   - Normal:     Sculli's method (normal moments + Clark's maximum)
//   - Dodin:      series-parallel reduction with duplication
//   - PathApprox: first-order longest-path expansion (method of choice)
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
	// sampling pass over the graph.
	mc atomic.Pointer[mcKernel]
}

// FromEdges returns the DAG whose node i lasts dists[i], with the
// precedence edges u -> v given as {u, v} pairs. Every node's successor
// and predecessor lists hold its edges in the order given, as capped
// windows of one shared backing array. The graph takes ownership of
// dists and is immutable.
//
// It fails on an edge with an endpoint out of range, a self edge or a
// repeated edge. It does not check for cycles: NewEvaluator and
// TopoOrder do.
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
