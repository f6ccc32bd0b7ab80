package probdag

import (
	"math/rand"
	"slices"
	"testing"

	"repro/internal/dist"
)

// graphBuilder collects nodes and edges node by node, edge by edge,
// for FromEdges.
type graphBuilder struct {
	dists []*dist.Discrete
	edges [][2]int
}

func (b *graphBuilder) node(d *dist.Discrete) NodeID {
	b.dists = append(b.dists, d)
	return NodeID(len(b.dists) - 1)
}

func (b *graphBuilder) edge(u, v NodeID) { b.edges = append(b.edges, [2]int{int(u), int(v)}) }

// graph returns the built graph; a rejected edge is a bug in the test.
func (b *graphBuilder) graph() *Graph {
	g, err := FromEdges(b.dists, b.edges)
	if err != nil {
		panic(err)
	}
	return g
}

// chainGraph builds a linear chain of n two-state nodes.
func chainGraph(n int, base, inflated, p float64) *Graph {
	var b graphBuilder
	var prev NodeID
	for i := 0; i < n; i++ {
		id := b.node(dist.TwoState(base, inflated, p))
		if i > 0 {
			b.edge(prev, id)
		}
		prev = id
	}
	return b.graph()
}

// diamondGraph builds a 4-node diamond with the given distributions.
func diamondGraph(ds ...*dist.Discrete) *Graph {
	g, err := FromEdges(ds[:4:4], [][2]int{{0, 1}, {0, 2}, {1, 3}, {2, 3}})
	if err != nil {
		panic(err)
	}
	return g
}

// randomProbDAG builds a random 2-state DAG.
func randomProbDAG(rng *rand.Rand, n int, p float64) *Graph {
	var b graphBuilder
	for i := 0; i < n; i++ {
		base := 1 + 9*rng.Float64()
		b.node(dist.TwoState(base, 1.5*base, 0.05+0.3*rng.Float64()))
	}
	for i := 0; i < n; i++ {
		for j := i + 1; j < n; j++ {
			if rng.Float64() < p {
				b.edge(NodeID(i), NodeID(j))
			}
		}
	}
	return b.graph()
}

// MakespanGiven is the reference longest path: the makespan when node i lasts exactly
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

func TestTopoOrder(t *testing.T) {
	g := diamondGraph(dist.Point(1), dist.Point(1), dist.Point(1), dist.Point(1))
	order, err := g.TopoOrder()
	if err != nil {
		t.Fatal(err)
	}
	if order[0] != 0 || order[3] != 3 {
		t.Fatalf("order = %v", order)
	}
}

func TestTopoOrderCycle(t *testing.T) {
	g, err := FromEdges([]*dist.Discrete{dist.Point(1), dist.Point(1)}, [][2]int{{0, 1}, {1, 0}})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := g.TopoOrder(); err == nil {
		t.Fatal("cycle must be detected")
	}
}

func TestMakespanGiven(t *testing.T) {
	g := diamondGraph(dist.Point(1), dist.Point(2), dist.Point(3), dist.Point(4))
	// a=1, b=3, c=4, d=max(3,4)+4=8.
	if m := g.MakespanGiven([]float64{1, 2, 3, 4}); m != 8 {
		t.Fatalf("makespan = %g", m)
	}
}

func TestBaseDurations(t *testing.T) {
	var b graphBuilder
	b.node(dist.TwoState(10, 15, 0.2)) // base = 10 (p=0.8)
	b.node(dist.TwoState(10, 15, 0.7)) // base = 15 (p=0.7)
	base := b.graph().BaseDurations()
	if base[0] != 10 || base[1] != 15 {
		t.Fatalf("base = %v", base)
	}
}

// TestFromEdgesMatchesAddEdge builds random DAGs, with edges in random
// order, both through FromEdges and through the edge-by-edge reference
// below: every node's successor and predecessor lists must agree in
// order, each node must hold the law it was given, and every list must
// be capped so that an append cannot write into a neighbouring list.
func TestFromEdgesMatchesAddEdge(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	for trial := 0; trial < 50; trial++ {
		n := 1 + rng.Intn(40)
		ds := make([]*dist.Discrete, n)
		for i := range ds {
			ds[i] = dist.TwoState(1, 2, rng.Float64())
		}
		var edges [][2]int
		for i := 0; i < n; i++ {
			for j := i + 1; j < n; j++ {
				if rng.Float64() < 0.2 {
					edges = append(edges, [2]int{i, j})
				}
			}
		}
		rng.Shuffle(len(edges), func(a, b int) { edges[a], edges[b] = edges[b], edges[a] })
		g, err := FromEdges(slices.Clone(ds), edges)
		if err != nil {
			t.Fatal(err)
		}
		// The reference appends each edge to both endpoints' lists in
		// the order given.
		succ, pred := make([][]NodeID, n), make([][]NodeID, n)
		for _, e := range edges {
			succ[e[0]] = append(succ[e[0]], NodeID(e[1]))
			pred[e[1]] = append(pred[e[1]], NodeID(e[0]))
		}
		if g.Len() != n {
			t.Fatalf("%d nodes, reference %d", g.Len(), n)
		}
		for v := 0; v < n; v++ {
			if !slices.Equal(g.succ[v], succ[v]) || !slices.Equal(g.pred[v], pred[v]) {
				t.Fatalf("node %d: succ %v pred %v, reference succ %v pred %v", v, g.succ[v], g.pred[v], succ[v], pred[v])
			}
			if cap(g.succ[v]) != len(g.succ[v]) || cap(g.pred[v]) != len(g.pred[v]) {
				t.Fatalf("node %d: lists are not capped", v)
			}
			if g.dists[v] != ds[v] {
				t.Fatalf("node %d does not hold the distribution it was given", v)
			}
		}
	}
}

// TestFromEdgesRejectsBadEdges checks each edge FromEdges refuses:
// endpoints out of range on either side, a self edge and a repeated
// edge.
func TestFromEdgesRejectsBadEdges(t *testing.T) {
	ds := []*dist.Discrete{dist.Point(1), dist.Point(2), dist.Point(3)}
	for name, edges := range map[string][][2]int{
		"negative source": {{0, 1}, {-1, 2}},
		"source too big":  {{3, 0}},
		"negative target": {{1, -1}},
		"target too big":  {{0, 1}, {1, 3}},
		"self edge":       {{0, 1}, {1, 1}},
		"repeated edge":   {{0, 2}, {1, 2}, {0, 1}, {0, 2}},
	} {
		if _, err := FromEdges(ds, edges); err == nil {
			t.Errorf("%s: FromEdges accepted %v", name, edges)
		}
	}
	g, err := FromEdges(ds, [][2]int{{1, 0}, {0, 2}, {1, 2}})
	if err != nil {
		t.Fatal(err)
	}
	if order, err := g.TopoOrder(); err != nil || !slices.Equal(order, []NodeID{1, 0, 2}) {
		t.Fatalf("TopoOrder = %v, %v; want [1 0 2]", order, err)
	}
	if g, err := FromEdges(nil, nil); err != nil || g.Len() != 0 {
		t.Fatalf("empty graph: %v nodes, err %v", g, err)
	}
}
