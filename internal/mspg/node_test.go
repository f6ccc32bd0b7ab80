package mspg

import (
	"math/rand"
	"testing"

	"repro/internal/wfdag"
)

func TestNewChain(t *testing.T) {
	if NewChain() != nil {
		t.Fatal("empty chain must be nil")
	}
	if n := NewChain(3); n.Kind != Atomic || n.Task != 3 {
		t.Fatalf("single chain = %+v", n)
	}
	n := NewChain(0, 1, 2)
	if n.Kind != Serial || len(n.Children) != 3 {
		t.Fatalf("chain = %v", n)
	}
	want := []wfdag.TaskID{0, 1, 2}
	got := n.Tasks()
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("tasks = %v", got)
		}
	}
}

func TestNewSerialSplicesAndSkipsNil(t *testing.T) {
	n := NewSerial(NewChain(0, 1), nil, NewAtomic(2))
	if n.Kind != Serial || len(n.Children) != 3 {
		t.Fatalf("serial = %v", n)
	}
	if NewSerial(nil, nil) != nil {
		t.Fatal("all-nil serial must be nil")
	}
	if n := NewSerial(NewAtomic(5)); n.Kind != Atomic {
		t.Fatal("single-operand serial collapses")
	}
}

func TestNewParallelSplicesAndSkipsNil(t *testing.T) {
	n := NewParallel(NewParallel(NewAtomic(0), NewAtomic(1)), nil, NewAtomic(2))
	if n.Kind != Parallel || len(n.Children) != 3 {
		t.Fatalf("parallel = %v", n)
	}
	if NewParallel() != nil {
		t.Fatal("empty parallel must be nil")
	}
}

func TestNormalize(t *testing.T) {
	// Serial[Serial[a, b], Parallel[Parallel[c], d]] -> Serial[a, b, Parallel[c, d]].
	raw := &Node{Kind: Serial, Children: []*Node{
		{Kind: Serial, Children: []*Node{NewAtomic(0), NewAtomic(1)}},
		{Kind: Parallel, Children: []*Node{
			{Kind: Parallel, Children: []*Node{NewAtomic(2)}},
			NewAtomic(3),
		}},
	}}
	n := raw.Normalize()
	if !n.IsNormalized() {
		t.Fatalf("not normalized: %v", n)
	}
	if n.Kind != Serial || len(n.Children) != 3 {
		t.Fatalf("normalized = %v", n)
	}
	if n.Children[2].Kind != Parallel || len(n.Children[2].Children) != 2 {
		t.Fatalf("normalized = %v", n)
	}
	if (*Node)(nil).Normalize() != nil {
		t.Fatal("nil normalizes to nil")
	}
}

func TestIsNormalized(t *testing.T) {
	if !(*Node)(nil).IsNormalized() {
		t.Fatal("nil is normalized")
	}
	bad := &Node{Kind: Serial, Children: []*Node{NewAtomic(0)}}
	if bad.IsNormalized() {
		t.Fatal("single-child serial is not normalized")
	}
	nested := &Node{Kind: Parallel, Children: []*Node{
		{Kind: Parallel, Children: []*Node{NewAtomic(0), NewAtomic(1)}},
		NewAtomic(2),
	}}
	if nested.IsNormalized() {
		t.Fatal("parallel under parallel is not normalized")
	}
}

func TestSourcesSinks(t *testing.T) {
	// Serial[a, Parallel[b, Chain(c, d)], e]
	n := NewSerial(NewAtomic(0), NewParallel(NewAtomic(1), NewChain(2, 3)), NewAtomic(4))
	if src := n.Sources(); len(src) != 1 || src[0] != 0 {
		t.Fatalf("sources = %v", src)
	}
	if snk := n.appendSinks(nil); len(snk) != 1 || snk[0] != 4 {
		t.Fatalf("sinks = %v", snk)
	}
	mid := n.Children[1]
	if src := mid.Sources(); len(src) != 2 || src[0] != 1 || src[1] != 2 {
		t.Fatalf("mid sources = %v", src)
	}
	if snk := mid.appendSinks(nil); len(snk) != 2 || snk[0] != 1 || snk[1] != 3 {
		t.Fatalf("mid sinks = %v", snk)
	}
}

func TestWeightAndNumTasks(t *testing.T) {
	g := wfdag.New()
	for i := 0; i < 4; i++ {
		g.AddTask("t", "k", float64(i+1))
	}
	n := NewSerial(NewAtomic(0), NewParallel(NewAtomic(1), NewAtomic(2)), NewAtomic(3))
	if w := n.Weight(g); w != 10 {
		t.Fatalf("weight = %g", w)
	}
	if n.NumTasks() != 4 {
		t.Fatalf("NumTasks = %d", n.NumTasks())
	}
	if (*Node)(nil).NumTasks() != 0 {
		t.Fatal("nil has no tasks")
	}
}

func TestString(t *testing.T) {
	n := NewSerial(NewAtomic(0), NewParallel(NewAtomic(1), NewAtomic(2)))
	if got := n.String(); got != "(T0 ; (T1 || T2))" {
		t.Fatalf("String = %q", got)
	}
	if got := (*Node)(nil).String(); got != "∅" {
		t.Fatalf("nil String = %q", got)
	}
}

func TestKindString(t *testing.T) {
	for k, want := range map[Kind]string{Atomic: "Atomic", Serial: "Serial", Parallel: "Parallel"} {
		if k.String() != want {
			t.Fatalf("Kind(%d).String() = %q", k, k.String())
		}
	}
}

// normalizeRef is Normalize as it was before it shared canonical
// subtrees: it rebuilds every node.
func normalizeRef(n *Node) *Node {
	if n == nil {
		return nil
	}
	if n.Kind == Atomic {
		return &Node{Kind: Atomic, Task: n.Task}
	}
	parts := make([]*Node, 0, len(n.Children))
	for _, c := range n.Children {
		parts = append(parts, normalizeRef(c))
	}
	if n.Kind == Serial {
		return NewSerial(parts...)
	}
	return NewParallel(parts...)
}

// randomRawTree draws a tree that is usually not canonical: nil and
// single children, and Serial under Serial or Parallel under Parallel.
func randomRawTree(rng *rand.Rand, depth int, next *int) *Node {
	if depth == 0 || rng.Intn(4) == 0 {
		if rng.Intn(8) == 0 {
			return nil
		}
		n := &Node{Kind: Atomic, Task: wfdag.TaskID(*next)}
		*next++
		return n
	}
	n := &Node{Kind: Serial}
	if rng.Intn(2) == 0 {
		n.Kind = Parallel
	}
	for k := rng.Intn(4); k >= 0; k-- {
		n.Children = append(n.Children, randomRawTree(rng, depth-1, next))
	}
	return n
}

// TestNormalizeSharesCanonical checks that a canonical tree comes back
// as the same pointer, with every subtree shared.
func TestNormalizeSharesCanonical(t *testing.T) {
	rng := rand.New(rand.NewSource(17))
	for trial := 0; trial < 50; trial++ {
		next := 0
		root := randomTree(rng, 2+rng.Intn(40), &next)
		if !root.IsNormalized() {
			t.Fatalf("trial %d: randomTree drew a non-canonical tree %v", trial, root)
		}
		if got := root.Normalize(); got != root {
			t.Fatalf("trial %d: Normalize copied the canonical tree %v", trial, root)
		}
	}
}

// TestNormalizeNonCanonical checks, on random non-canonical trees, that
// the result is canonical and matches the copying reference, that the
// input is left as it was, that canonical subtrees of the input are
// shared, and that normalizing again returns the same pointer.
func TestNormalizeNonCanonical(t *testing.T) {
	rng := rand.New(rand.NewSource(23))
	shared := 0
	for trial := 0; trial < 300; trial++ {
		next := 0
		raw := randomRawTree(rng, 5, &next)
		before := raw.String()
		n := raw.Normalize()
		if !n.IsNormalized() {
			t.Fatalf("trial %d: Normalize(%s) = %v is not canonical", trial, before, n)
		}
		if got, want := n.String(), normalizeRef(raw).String(); got != want {
			t.Fatalf("trial %d: Normalize(%s) = %s, reference %s", trial, before, got, want)
		}
		if raw.String() != before {
			t.Fatalf("trial %d: Normalize changed its input from %s to %s", trial, before, raw)
		}
		if again := n.Normalize(); again != n {
			t.Fatalf("trial %d: normalizing %v again copied it", trial, n)
		}
		if raw != nil && raw.Kind != Atomic {
			for _, c := range raw.Children {
				if c != nil && c.Kind != Atomic && c.Kind != raw.Kind && c.IsNormalized() {
					if !containsNode(n, c) {
						t.Fatalf("trial %d: canonical subtree %v of %s was copied", trial, c, before)
					}
					shared++
				}
			}
		}
	}
	if shared == 0 {
		t.Fatal("no trial had a canonical internal subtree to share")
	}
}

// containsNode reports whether want is a node of the tree n, by pointer.
func containsNode(n, want *Node) bool {
	if n == want {
		return true
	}
	if n == nil {
		return false
	}
	for _, c := range n.Children {
		if containsNode(c, want) {
			return true
		}
	}
	return false
}
