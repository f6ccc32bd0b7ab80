package ckpt

import (
	"math"
	"math/rand"
	"slices"
	"testing"

	"repro/internal/mspg"
	"repro/internal/pegasus"
	"repro/internal/platform"
	"repro/internal/sched"
	"repro/internal/wfdag"
)

// figure4Schedule builds the paper's Figure 4 M-SPG (T1;T2;(T3||T4);T5;T6)
// linearized on one processor, with weight 10 tasks and 100-byte files
// over a 1 B/s storage (so each file costs 100 s of I/O).
func figure4Schedule(t *testing.T) (*sched.Schedule, platform.Platform) {
	t.Helper()
	g := wfdag.New()
	ids := make([]wfdag.TaskID, 7)
	for i := 1; i <= 6; i++ {
		ids[i] = g.AddTask("T", "k", 10)
	}
	g.Connect(ids[1], ids[2], "d12", 100)
	g.Connect(ids[2], ids[3], "d23", 100)
	g.Connect(ids[2], ids[4], "d24", 100)
	g.Connect(ids[3], ids[5], "d35", 100)
	g.Connect(ids[4], ids[5], "d45", 100)
	g.Connect(ids[5], ids[6], "d56", 100)
	root := mspg.NewSerial(mspg.NewAtomic(ids[1]), mspg.NewAtomic(ids[2]),
		mspg.NewParallel(mspg.NewAtomic(ids[3]), mspg.NewAtomic(ids[4])),
		mspg.NewAtomic(ids[5]), mspg.NewAtomic(ids[6]))
	w := &mspg.Workflow{Name: "fig4", G: g, Root: root}
	if err := w.Validate(); err != nil {
		t.Fatal(err)
	}
	pf := platform.New(1, 1e-4, 1)
	s, err := sched.Allocate(w, pf, sched.Options{Linearize: sched.DeterministicLinearizer})
	if err != nil {
		t.Fatal(err)
	}
	return s, pf
}

func TestChainCostsWholeChain(t *testing.T) {
	s, pf := figure4Schedule(t)
	cc := newChainCosts(s, pf, s.Chains[0])
	r, w, c := cc.segmentCost(0, 5)
	if r != 0 {
		t.Fatalf("whole chain reads nothing: R = %g", r)
	}
	if w != 60 {
		t.Fatalf("W = %g, want 60", w)
	}
	if c != 0 {
		t.Fatalf("whole chain checkpoints nothing (no external consumers): C = %g", c)
	}
}

func TestChainCostsFigure4Segments(t *testing.T) {
	// Checkpoints after T2 and T4 (positions 1 and 3 in the linearized
	// order T1 T2 T3 T4 T5 T6): the paper's running example.
	s, pf := figure4Schedule(t)
	cc := newChainCosts(s, pf, s.Chains[0])

	// Segment [0,1] = T1,T2: checkpoint of T2 includes its outputs for
	// T3 (d23) and T4 (d24): C = 200.
	r, w, c := cc.segmentCost(0, 1)
	if r != 0 || w != 20 || c != 200 {
		t.Fatalf("seg T1-T2: R=%g W=%g C=%g, want 0/20/200", r, w, c)
	}

	// Segment [2,3] = T3,T4: reads d23+d24 (200); the extended
	// checkpoint after T4 saves d35 AND d45 — including the output of
	// the non-checkpointed T3 that T5 still needs (the paper's §IV-A
	// point): C = 200.
	r, w, c = cc.segmentCost(2, 3)
	if r != 200 || w != 20 || c != 200 {
		t.Fatalf("seg T3-T4: R=%g W=%g C=%g, want 200/20/200", r, w, c)
	}

	// Segment [4,5] = T5,T6: reads d35+d45 (200), checkpoints nothing
	// (d56 is internal, T6 output not modelled).
	r, w, c = cc.segmentCost(4, 5)
	if r != 200 || w != 20 || c != 0 {
		t.Fatalf("seg T5-T6: R=%g W=%g C=%g, want 200/20/0", r, w, c)
	}
}

func TestChainCostsSingleTaskSegments(t *testing.T) {
	s, pf := figure4Schedule(t)
	cc := newChainCosts(s, pf, s.Chains[0])
	// T2 alone: reads d12, writes d23+d24.
	r, w, c := cc.segmentCost(1, 1)
	if r != 100 || w != 10 || c != 200 {
		t.Fatalf("T2 alone: R=%g W=%g C=%g", r, w, c)
	}
	// T5 alone: reads d35+d45, writes d56.
	r, w, c = cc.segmentCost(4, 4)
	if r != 200 || w != 10 || c != 100 {
		t.Fatalf("T5 alone: R=%g W=%g C=%g", r, w, c)
	}
}

func TestSegmentTableMatchesDirect(t *testing.T) {
	s, pf := figure4Schedule(t)
	cc := newChainCosts(s, pf, s.Chains[0])
	span := cc.segmentTable()
	for i := 0; i < cc.n; i++ {
		for j := i; j < cc.n; j++ {
			r, w, c := cc.segmentCost(i, j)
			if got, want := span.at(i, j), r+w+c; math.Abs(got-want) > 1e-9 {
				t.Fatalf("span[%d][%d] = %g, direct = %g", i, j, got, want)
			}
		}
	}
}

func TestSegmentTableMatchesDirectOnRealWorkflows(t *testing.T) {
	for _, fam := range pegasus.PaperFamilies() {
		w, err := pegasus.Generate(fam, pegasus.Options{Tasks: 120, Seed: 8})
		if err != nil {
			t.Fatal(err)
		}
		pf := platform.New(4, 1e-6, 1e6)
		s, err := sched.Allocate(w, pf, sched.Options{Rng: rand.New(rand.NewSource(3))})
		if err != nil {
			t.Fatal(err)
		}
		for _, sc := range s.Chains {
			cc := newChainCosts(s, pf, sc)
			span := cc.segmentTable()
			for i := 0; i < cc.n; i++ {
				for j := i; j < cc.n; j++ {
					r, wgt, c := cc.segmentCost(i, j)
					if got, want := span.at(i, j), r+wgt+c; math.Abs(got-want) > 1e-6*math.Max(1, want) {
						t.Fatalf("%s chain %d span[%d][%d]: %g vs %g", fam, sc.Index, i, j, got, want)
					}
				}
			}
		}
	}
}

func TestSharedFileDedupInCosts(t *testing.T) {
	// One producer file consumed by two external successors must be
	// checkpointed once ("a checkpoint will save the file only once").
	g := wfdag.New()
	a := g.AddTask("a", "k", 10)
	b := g.AddTask("b", "k", 10)
	c := g.AddTask("c", "k", 10)
	f := g.AddFile("shared", 100, a)
	g.AddDependency(b, f)
	g.AddDependency(c, f)
	root := mspg.NewSerial(mspg.NewAtomic(a), mspg.NewParallel(mspg.NewAtomic(b), mspg.NewAtomic(c)))
	w := &mspg.Workflow{Name: "shared", G: g, Root: root}
	if err := w.Validate(); err != nil {
		t.Fatal(err)
	}
	pf := platform.New(2, 1e-6, 1)
	s, err := sched.Allocate(w, pf, sched.Options{})
	if err != nil {
		t.Fatal(err)
	}
	scA := chainOf(s, a)
	posA := slices.Index(scA.Tasks, a)
	_, _, cCost := newChainCosts(s, pf, scA).segmentCost(posA, posA)
	if cCost != 100 {
		t.Fatalf("shared file checkpointed twice? C = %g, want 100", cCost)
	}
	// And a reader that consumes the same file once pays it once.
	scB := chainOf(s, b)
	posB := slices.Index(scB.Tasks, b)
	r, _, _ := newChainCosts(s, pf, scB).segmentCost(posB, posB)
	if r != 100 {
		t.Fatalf("R = %g, want 100", r)
	}
}

func TestWorkflowInputsCountInR(t *testing.T) {
	g := wfdag.New()
	a := g.AddTask("a", "k", 10)
	in := g.AddFile("in", 50, wfdag.NoTask)
	g.AddDependency(a, in)
	w := &mspg.Workflow{Name: "in", G: g, Root: mspg.NewAtomic(a)}
	pf := platform.New(1, 1e-6, 1)
	s, err := sched.Allocate(w, pf, sched.Options{})
	if err != nil {
		t.Fatal(err)
	}
	cc := newChainCosts(s, pf, s.Chains[0])
	r, _, _ := cc.segmentCost(0, 0)
	if r != 50 {
		t.Fatalf("workflow input read R = %g, want 50", r)
	}
}

func TestWorkflowOutputsCountInC(t *testing.T) {
	g := wfdag.New()
	a := g.AddTask("a", "k", 10)
	g.AddFile("out", 70, a)
	w := &mspg.Workflow{Name: "out", G: g, Root: mspg.NewAtomic(a)}
	pf := platform.New(1, 1e-6, 1)
	s, err := sched.Allocate(w, pf, sched.Options{})
	if err != nil {
		t.Fatal(err)
	}
	cc := newChainCosts(s, pf, s.Chains[0])
	_, _, c := cc.segmentCost(0, 0)
	if c != 70 {
		t.Fatalf("workflow output write C = %g, want 70", c)
	}
}

// chainOf returns the superchain holding task t.
func chainOf(s *sched.Schedule, t wfdag.TaskID) *sched.Superchain {
	for _, sc := range s.Chains {
		if slices.Contains(sc.Tasks, t) {
			return sc
		}
	}
	panic("task in no superchain")
}
