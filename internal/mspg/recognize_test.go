package mspg

import (
	"fmt"
	"math/rand"
	"testing"

	"repro/internal/wfdag"
)

// buildFromTree materializes a tree's implied edges into a fresh graph
// (one unit file per implied task-pair edge).
func buildFromTree(root *Node, numTasks int) *wfdag.Graph {
	g := wfdag.New()
	for i := 0; i < numTasks; i++ {
		g.AddTask(fmt.Sprintf("t%d", i), "k", 1)
	}
	for e := range TreeEdgeSet(root) {
		g.Connect(e[0], e[1], fmt.Sprintf("f%d_%d", e[0], e[1]), 1)
	}
	return g
}

// randomTree draws a random normalized M-SPG over sequentially numbered
// tasks.
func randomTree(rng *rand.Rand, budget int, next *int) *Node {
	if budget <= 1 {
		n := NewAtomic(wfdag.TaskID(*next))
		*next++
		return n
	}
	switch rng.Intn(3) {
	case 0: // atomic
		n := NewAtomic(wfdag.TaskID(*next))
		*next++
		return n
	case 1: // serial
		k := 2 + rng.Intn(3)
		var parts []*Node
		for i := 0; i < k; i++ {
			parts = append(parts, randomTree(rng, budget/k, next))
		}
		return NewSerial(parts...)
	default: // parallel
		k := 2 + rng.Intn(3)
		var parts []*Node
		for i := 0; i < k; i++ {
			parts = append(parts, randomTree(rng, budget/k, next))
		}
		return NewParallel(parts...)
	}
}

func TestRecognizeSingleTask(t *testing.T) {
	g := wfdag.New()
	g.AddTask("a", "k", 1)
	n, err := Recognize(g)
	if err != nil {
		t.Fatal(err)
	}
	if n.Kind != Atomic || n.Task != 0 {
		t.Fatalf("recognized %v", n)
	}
}

func TestRecognizeEmpty(t *testing.T) {
	n, err := Recognize(wfdag.New())
	if err != nil || n != nil {
		t.Fatalf("empty: %v, %v", n, err)
	}
}

func TestRecognizeChain(t *testing.T) {
	g := wfdag.New()
	for i := 0; i < 4; i++ {
		g.AddTask("t", "k", 1)
	}
	for i := 0; i < 3; i++ {
		g.Connect(wfdag.TaskID(i), wfdag.TaskID(i+1), "f", 1)
	}
	n, err := Recognize(g)
	if err != nil {
		t.Fatal(err)
	}
	if n.Kind != Serial || n.NumTasks() != 4 {
		t.Fatalf("recognized %v", n)
	}
}

func TestRecognizeParallelChains(t *testing.T) {
	g := wfdag.New()
	for i := 0; i < 4; i++ {
		g.AddTask("t", "k", 1)
	}
	g.Connect(0, 1, "f", 1)
	g.Connect(2, 3, "f", 1)
	n, err := Recognize(g)
	if err != nil {
		t.Fatal(err)
	}
	if n.Kind != Parallel || len(n.Children) != 2 {
		t.Fatalf("recognized %v", n)
	}
}

func TestRecognizeBipartite(t *testing.T) {
	// Figure 1(c): (0||1||2) ;→ (3||4||5), complete bipartite.
	g := wfdag.New()
	for i := 0; i < 6; i++ {
		g.AddTask("t", "k", 1)
	}
	for u := 0; u < 3; u++ {
		for v := 3; v < 6; v++ {
			g.Connect(wfdag.TaskID(u), wfdag.TaskID(v), "f", 1)
		}
	}
	n, err := Recognize(g)
	if err != nil {
		t.Fatal(err)
	}
	if n.Kind != Serial || len(n.Children) != 2 {
		t.Fatalf("recognized %v", n)
	}
	for _, c := range n.Children {
		if c.Kind != Parallel || len(c.Children) != 3 {
			t.Fatalf("levels must be parallel triples: %v", n)
		}
	}
}

func TestRecognizeRejectsIncompleteBipartite(t *testing.T) {
	// 0->2, 0->3, 1->3 only: not an M-SPG (missing 1->2).
	g := wfdag.New()
	for i := 0; i < 4; i++ {
		g.AddTask("t", "k", 1)
	}
	g.Connect(0, 2, "f", 1)
	g.Connect(0, 3, "f", 1)
	g.Connect(1, 3, "f", 1)
	if _, err := Recognize(g); err == nil {
		t.Fatal("incomplete bipartite must be rejected")
	}
}

func TestRecognizeRejectsNGraph(t *testing.T) {
	// The classic N: 0->2, 1->2, 1->3 — not series-parallel.
	g := wfdag.New()
	for i := 0; i < 4; i++ {
		g.AddTask("t", "k", 1)
	}
	g.Connect(0, 2, "f", 1)
	g.Connect(1, 2, "f", 1)
	g.Connect(1, 3, "f", 1)
	if _, err := Recognize(g); err == nil {
		t.Fatal("N-graph must be rejected")
	}
	var notMSPG *NotMSPGError
	_, err := Recognize(g)
	if e, ok := err.(*NotMSPGError); ok {
		notMSPG = e
	}
	if notMSPG == nil || notMSPG.Error() == "" {
		t.Fatalf("error must be a NotMSPGError, got %v", err)
	}
}

func TestRecognizeDeepNesting(t *testing.T) {
	// Serial[ Parallel[a, Chain(b, c)], d ] (the example from the
	// recognizer's derivation: frontier growth must pass through the
	// invalid cut at the sources).
	g := wfdag.New()
	a := g.AddTask("a", "k", 1)
	b := g.AddTask("b", "k", 1)
	c := g.AddTask("c", "k", 1)
	d := g.AddTask("d", "k", 1)
	g.Connect(b, c, "f", 1)
	g.Connect(a, d, "f", 1)
	g.Connect(c, d, "f", 1)
	n, err := Recognize(g)
	if err != nil {
		t.Fatal(err)
	}
	if n.NumTasks() != 4 {
		t.Fatalf("recognized %v", n)
	}
	_ = a
}

// Round trip: build graph from a random tree, recognize, and check the
// recognized tree implies exactly the same dependency relation.
func TestRecognizeRoundTripRandom(t *testing.T) {
	rng := rand.New(rand.NewSource(21))
	for trial := 0; trial < 200; trial++ {
		next := 0
		root := randomTree(rng, 2+rng.Intn(30), &next).Normalize()
		g := buildFromTree(root, next)
		rec, err := Recognize(g)
		if err != nil {
			t.Fatalf("trial %d: tree %v not recognized: %v", trial, root, err)
		}
		want := TreeEdgeSet(root)
		got := TreeEdgeSet(rec)
		if len(want) != len(got) {
			t.Fatalf("trial %d: edge sets differ: %d vs %d\ntree %v\nrec  %v", trial, len(want), len(got), root, rec)
		}
		for e := range want {
			if !got[e] {
				t.Fatalf("trial %d: edge %v lost", trial, e)
			}
		}
		if rec.NumTasks() != next {
			t.Fatalf("trial %d: task count %d vs %d", trial, rec.NumTasks(), next)
		}
	}
}

// The paper's Figure 2 graph must be recognized.
func TestRecognizeFigure2(t *testing.T) {
	g := wfdag.New()
	for i := 1; i <= 13; i++ {
		g.AddTask(fmt.Sprintf("T%d", i), "k", 1)
	}
	id := func(i int) wfdag.TaskID { return wfdag.TaskID(i - 1) }
	connect := func(u, v int) { g.Connect(id(u), id(v), "f", 1) }
	for _, v := range []int{2, 3, 4} {
		connect(1, v)
	}
	for _, u := range []int{2, 3, 4} {
		for v := 5; v <= 9; v++ {
			connect(u, v)
		}
	}
	for u := 5; u <= 9; u++ {
		for _, v := range []int{10, 11, 12} {
			connect(u, v)
		}
	}
	for _, u := range []int{10, 11, 12} {
		connect(u, 13)
	}
	n, err := Recognize(g)
	if err != nil {
		t.Fatal(err)
	}
	if n.Kind != Serial || len(n.Children) != 5 {
		t.Fatalf("Figure 2 structure = %v", n)
	}
}
