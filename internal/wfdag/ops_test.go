package wfdag

import (
	"math/rand"
	"testing"
	"testing/quick"
)

func TestTopoOrderDeterministic(t *testing.T) {
	g := diamond(t)
	order, err := g.TopoOrder()
	if err != nil {
		t.Fatal(err)
	}
	want := []TaskID{0, 1, 2, 3}
	for i := range want {
		if order[i] != want[i] {
			t.Fatalf("order = %v, want %v", order, want)
		}
	}
}

func TestTopoOrderRespectsEdges(t *testing.T) {
	g := randomDAG(rand.New(rand.NewSource(5)), 40, 0.15)
	order, err := g.TopoOrder()
	if err != nil {
		t.Fatal(err)
	}
	checkTopo(t, g, order)
}

func checkTopo(t *testing.T, g *Graph, order []TaskID) {
	t.Helper()
	if len(order) != g.NumTasks() {
		t.Fatalf("order has %d tasks, want %d", len(order), g.NumTasks())
	}
	pos := make(map[TaskID]int)
	for i, o := range order {
		pos[o] = i
	}
	for u := 0; u < g.NumTasks(); u++ {
		for _, v := range g.SuccTasks(TaskID(u)) {
			if pos[TaskID(u)] >= pos[v] {
				t.Fatalf("edge %d->%d violated by order %v", u, v, order)
			}
		}
	}
}

// randomDAG builds a DAG where edge (i, j), i < j, exists with
// probability p.
func randomDAG(rng *rand.Rand, n int, p float64) *Graph {
	g := New()
	for i := 0; i < n; i++ {
		g.AddTask("t", "k", 1+rng.Float64())
	}
	for i := 0; i < n; i++ {
		for j := i + 1; j < n; j++ {
			if rng.Float64() < p {
				g.Connect(TaskID(i), TaskID(j), "f", rng.Float64()*100)
			}
		}
	}
	return g
}

func TestValidateAcceptsDiamond(t *testing.T) {
	if err := diamond(t).Validate(); err != nil {
		t.Fatal(err)
	}
}

func TestValidateRejectsNegativeWeight(t *testing.T) {
	g := New()
	g.AddTask("a", "k", -1)
	if err := g.Validate(); err == nil {
		t.Fatal("negative weight must fail validation")
	}
}

// Validate reports a dependency on an unknown task or file, which
// AddDependency records without checking, before anything reads the
// index that would index out of range.
func TestValidateRejectsOutOfRangeDependency(t *testing.T) {
	for _, c := range []struct {
		to TaskID
		f  FileID
	}{{1, 0}, {-1, 0}, {0, 1}, {0, -1}} {
		g := New()
		a := g.AddTask("a", "k", 1)
		g.AddFile("in", 1, NoTask)
		g.AddDependency(a, 0)
		g.AddDependency(c.to, c.f)
		if err := g.Validate(); err == nil {
			t.Fatalf("dependency (%d, %d) must fail validation", c.to, c.f)
		}
	}
}

func TestValidateRejectsNegativeFileSize(t *testing.T) {
	g := New()
	a := g.AddTask("a", "k", 1)
	g.AddFile("f", -10, a)
	if err := g.Validate(); err == nil {
		t.Fatal("negative file size must fail validation")
	}
}

func TestReachable(t *testing.T) {
	g := diamond(t)
	r := g.Reachable(0)
	if !r[1] || !r[2] || !r[3] || r[0] {
		t.Fatalf("Reachable(a) = %v", r)
	}
	if len(g.Reachable(3)) != 0 {
		t.Fatal("sink reaches nothing")
	}
}

func TestTransitiveReduction(t *testing.T) {
	g := diamond(t)
	// Add the redundant edge a -> d.
	g.Connect(0, 3, "ad", 1)
	tr := g.TransitiveReductionEdges()
	if tr[[2]TaskID{0, 3}] {
		t.Fatal("a->d is transitively redundant")
	}
	for _, e := range [][2]TaskID{{0, 1}, {0, 2}, {1, 3}, {2, 3}} {
		if !tr[e] {
			t.Fatalf("edge %v missing from reduction %v", e, tr)
		}
	}
}

// Property: every topological order of a random DAG is a permutation
// respecting all edges.
func TestTopoOrderProperty(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		g := randomDAG(rng, 5+rng.Intn(25), 0.1+0.3*rng.Float64())
		order, err := g.TopoOrder()
		if err != nil {
			return false
		}
		pos := make(map[TaskID]int)
		for i, o := range order {
			pos[o] = i
		}
		for u := 0; u < g.NumTasks(); u++ {
			for _, v := range g.SuccTasks(TaskID(u)) {
				if pos[TaskID(u)] >= pos[v] {
					return false
				}
			}
		}
		return len(order) == g.NumTasks()
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}
