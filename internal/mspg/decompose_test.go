package mspg

import "testing"

func TestDecomposeAtomic(t *testing.T) {
	h := Decompose(NewAtomic(7))
	if len(h.Chain) != 1 || h.Chain[0].Task != 7 || len(h.Parts) != 0 || h.Rest != nil {
		t.Fatalf("head = %+v", h)
	}
}

func TestDecomposeEmpty(t *testing.T) {
	h := Decompose(nil)
	if len(h.Chain) != 0 || len(h.Parts) != 0 || h.Rest != nil {
		t.Fatalf("head = %+v", h)
	}
}

func TestDecomposeParallel(t *testing.T) {
	n := NewParallel(NewAtomic(0), NewAtomic(1), NewAtomic(2))
	h := Decompose(n)
	if len(h.Chain) != 0 || len(h.Parts) != 3 || h.Rest != nil {
		t.Fatalf("head = %+v", h)
	}
}

func TestDecomposePureChain(t *testing.T) {
	n := NewChain(0, 1, 2, 3).Normalize()
	h := Decompose(n)
	if len(h.Chain) != 4 || len(h.Parts) != 0 || h.Rest != nil {
		t.Fatalf("head = %+v", h)
	}
	for i, c := range h.Chain {
		if int(c.Task) != i {
			t.Fatalf("chain task %d is %d, want %d", i, c.Task, i)
		}
	}
}

func TestDecomposeForkJoin(t *testing.T) {
	// (0 ; 1) ; (2 || 3 || 4) ; 5  — Figure 1(a) then a join.
	n := NewSerial(NewChain(0, 1), NewParallel(NewAtomic(2), NewAtomic(3), NewAtomic(4)), NewAtomic(5)).Normalize()
	h := Decompose(n)
	if len(h.Chain) != 2 {
		t.Fatalf("chain has %d tasks, want 2", len(h.Chain))
	}
	if len(h.Parts) != 3 {
		t.Fatalf("parts = %d", len(h.Parts))
	}
	if h.Rest == nil || h.Rest.Kind != Atomic || h.Rest.Task != 5 {
		t.Fatalf("rest = %v", h.Rest)
	}
}

func TestDecomposeLeadingParallel(t *testing.T) {
	// (0 || 1) ; 2 — a join with no leading chain.
	n := NewSerial(NewParallel(NewAtomic(0), NewAtomic(1)), NewAtomic(2)).Normalize()
	h := Decompose(n)
	if len(h.Chain) != 0 || len(h.Parts) != 2 {
		t.Fatalf("head = %+v", h)
	}
	if h.Rest == nil || h.Rest.Task != 2 {
		t.Fatalf("rest = %v", h.Rest)
	}
}

// Decomposition must make progress: iterating Chain/Parts/Rest visits
// every task exactly once and terminates.
func TestDecomposeProgress(t *testing.T) {
	n := NewSerial(
		NewChain(0, 1),
		NewParallel(NewChain(2, 3), NewAtomic(4)),
		NewAtomic(5),
		NewParallel(NewAtomic(6), NewAtomic(7)),
		NewChain(8, 9),
	).Normalize()
	seen := map[int]int{}
	var visit func(*Node, int)
	visit = func(n *Node, depth int) {
		if depth > 50 {
			t.Fatal("decomposition does not terminate")
		}
		if n == nil {
			return
		}
		h := Decompose(n)
		if len(h.Chain) == 0 && len(h.Parts) == 0 {
			t.Fatalf("no progress on %v", n)
		}
		for _, c := range h.Chain {
			seen[int(c.Task)]++
		}
		for _, p := range h.Parts {
			visit(p, depth+1)
		}
		visit(h.Rest, depth+1)
	}
	visit(n, 0)
	if len(seen) != 10 {
		t.Fatalf("visited %d tasks, want 10: %v", len(seen), seen)
	}
	for task, count := range seen {
		if count != 1 {
			t.Fatalf("task %d visited %d times", task, count)
		}
	}
}
