package probdag

import (
	"math/rand"
	"slices"
	"testing"

	"repro/internal/dist"
)

// chainGraph builds a linear chain of n two-state nodes.
func chainGraph(n int, base, inflated, p float64) *Graph {
	g := NewGraph()
	var prev NodeID
	for i := 0; i < n; i++ {
		id := g.AddNode(dist.TwoState(base, inflated, p))
		if i > 0 {
			g.AddEdge(prev, id)
		}
		prev = id
	}
	return g
}

// diamondGraph builds a 4-node diamond with the given distributions.
func diamondGraph(ds ...*dist.Discrete) *Graph {
	g := NewGraph()
	a := g.AddNode(ds[0])
	b := g.AddNode(ds[1])
	c := g.AddNode(ds[2])
	d := g.AddNode(ds[3])
	g.AddEdge(a, b)
	g.AddEdge(a, c)
	g.AddEdge(b, d)
	g.AddEdge(c, d)
	return g
}

// randomProbDAG builds a random 2-state DAG.
func randomProbDAG(rng *rand.Rand, n int, p float64) *Graph {
	g := NewGraph()
	for i := 0; i < n; i++ {
		base := 1 + 9*rng.Float64()
		g.AddNode(dist.TwoState(base, 1.5*base, 0.05+0.3*rng.Float64()))
	}
	for i := 0; i < n; i++ {
		for j := i + 1; j < n; j++ {
			if rng.Float64() < p {
				g.AddEdge(NodeID(i), NodeID(j))
			}
		}
	}
	return g
}

func TestAddEdgeDeduplicates(t *testing.T) {
	g := NewGraph()
	a := g.AddNode(dist.Point(1))
	b := g.AddNode(dist.Point(1))
	g.AddEdge(a, b)
	g.AddEdge(a, b)
	if len(g.Succ(a)) != 1 || len(g.Pred(b)) != 1 {
		t.Fatal("duplicate edges must be ignored")
	}
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
	g := NewGraph()
	a := g.AddNode(dist.Point(1))
	b := g.AddNode(dist.Point(1))
	g.AddEdge(a, b)
	g.AddEdge(b, a)
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
	g := NewGraph()
	g.AddNode(dist.TwoState(10, 15, 0.2)) // base = 10 (p=0.8)
	g.AddNode(dist.TwoState(10, 15, 0.7)) // base = 15 (p=0.7)
	base := g.BaseDurations()
	if base[0] != 10 || base[1] != 15 {
		t.Fatalf("base = %v", base)
	}
}

func TestMeanDurations(t *testing.T) {
	g := NewGraph()
	g.AddNode(dist.TwoState(10, 20, 0.5))
	if m := g.MeanDurations(); m[0] != 15 {
		t.Fatalf("means = %v", m)
	}
}

// TestFromEdgesMatchesAddEdge builds random DAGs, with edges in random
// order, both through FromEdges and through AddNode/AddEdge: every
// node's Succ and Pred lists must agree in order, and appending to the
// packed graph must not write into a neighbouring list.
func TestFromEdgesMatchesAddEdge(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	for trial := 0; trial < 50; trial++ {
		n := 1 + rng.Intn(40)
		ds := make([]*dist.Discrete, n)
		ref := NewGraph()
		for i := range ds {
			ds[i] = dist.TwoState(1, 2, rng.Float64())
			ref.AddNode(ds[i])
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
		for _, e := range edges {
			ref.AddEdge(NodeID(e[0]), NodeID(e[1]))
		}
		g, err := FromEdges(ds, edges)
		if err != nil {
			t.Fatal(err)
		}
		sameAdjacency(t, g, ref)
		// Append through both graphs: the packed lists are capped, so
		// the appends reallocate instead of landing in a neighbour.
		sink := dist.Point(1)
		last := g.AddNode(sink)
		ref.AddNode(sink)
		for u := 0; u < n; u++ {
			g.AddEdge(NodeID(u), last)
			ref.AddEdge(NodeID(u), last)
		}
		sameAdjacency(t, g, ref)
	}
}

func sameAdjacency(t *testing.T, g, ref *Graph) {
	t.Helper()
	if g.Len() != ref.Len() {
		t.Fatalf("%d nodes, reference %d", g.Len(), ref.Len())
	}
	for v := 0; v < g.Len(); v++ {
		if !slices.Equal(g.Succ(NodeID(v)), ref.Succ(NodeID(v))) || !slices.Equal(g.Pred(NodeID(v)), ref.Pred(NodeID(v))) {
			t.Fatalf("node %d: succ %v pred %v, reference succ %v pred %v",
				v, g.Succ(NodeID(v)), g.Pred(NodeID(v)), ref.Succ(NodeID(v)), ref.Pred(NodeID(v)))
		}
		if g.Dist(NodeID(v)) != ref.Dist(NodeID(v)) {
			t.Fatalf("node %d does not hold the distribution it was given", v)
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
