package ckpt

import (
	"math"
	"testing"
)

func TestEvalDAGStructure(t *testing.T) {
	s, pf := realSchedule(t, "genome", 100, 5, 0.001, 0.01)
	p, err := BuildPlanWith(s, pf, CkptSome, ModelFirstOrder)
	if err != nil {
		t.Fatal(err)
	}
	g, err := EvalDAG(p)
	if err != nil {
		t.Fatal(err)
	}
	if g.Len() != len(p.Segments) {
		t.Fatalf("eval DAG has %d nodes, want %d segments", g.Len(), len(p.Segments))
	}
	if _, err := g.TopoOrder(); err != nil {
		t.Fatal(err)
	}
	// Each segment law has mean >= the failure-free span.
	laws := segmentLaws(p)
	for i, seg := range p.Segments {
		d := laws[i]
		if d.Mean() < seg.Span()-1e-9 {
			t.Fatalf("segment %d mean %g < span %g", i, d.Mean(), seg.Span())
		}
		if d.Min() != seg.Span() {
			t.Fatalf("segment %d base %g != span %g", i, d.Min(), seg.Span())
		}
	}
}

func TestSegmentDepsCoverTaskEdges(t *testing.T) {
	s, pf := realSchedule(t, "montage", 120, 7, 0.001, 0.1)
	p, err := BuildPlanWith(s, pf, CkptSome, ModelFirstOrder)
	if err != nil {
		t.Fatal(err)
	}
	deps := map[[2]int]bool{}
	for _, e := range SegmentDeps(p) {
		deps[e] = true
		if e[0] == e[1] {
			t.Fatal("self-dependency")
		}
	}
	wg := s.W.G
	for i := 0; i < wg.NumTasks(); i++ {
		for _, succ := range wg.SuccTasks(taskID(i)) {
			a, b := p.segOf[i], p.segOf[succ]
			if a != b && !deps[[2]int{a, b}] {
				t.Fatalf("task edge %d->%d not reflected in segment deps", i, succ)
			}
		}
	}
}

func TestSegmentDepsSequenceChains(t *testing.T) {
	s, pf := realSchedule(t, "genome", 100, 5, 0.001, 0.01)
	p, err := BuildPlanWith(s, pf, CkptSome, ModelFirstOrder)
	if err != nil {
		t.Fatal(err)
	}
	deps := map[[2]int]bool{}
	for _, e := range SegmentDeps(p) {
		deps[e] = true
	}
	prevByChain := map[int]int{}
	for i, seg := range p.Segments {
		if prev, ok := prevByChain[seg.Chain]; ok {
			if !deps[[2]int{prev, i}] {
				t.Fatalf("consecutive segments %d->%d of chain %d not sequenced", prev, i, seg.Chain)
			}
		}
		prevByChain[seg.Chain] = i
	}
}

func TestExpectedMakespanEstimatorsAgree(t *testing.T) {
	s, pf := realSchedule(t, "genome", 100, 5, 0.001, 0.01)
	p, err := BuildPlanWith(s, pf, CkptSome, ModelFirstOrder)
	if err != nil {
		t.Fatal(err)
	}
	pa, err := ExpectedMakespan(p, EvalOptions{Estimator: EstPathApprox})
	if err != nil {
		t.Fatal(err)
	}
	mc, err := ExpectedMakespan(p, EvalOptions{Estimator: EstMonteCarlo, MCTrials: 50000})
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(pa-mc)/mc > 0.01 {
		t.Fatalf("PathApprox %g vs MC %g disagree > 1%%", pa, mc)
	}
	no, err := ExpectedMakespan(p, EvalOptions{Estimator: EstNormal})
	if err != nil {
		t.Fatal(err)
	}
	do, err := ExpectedMakespan(p, EvalOptions{Estimator: EstDodin})
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(no-mc)/mc > 0.15 || math.Abs(do-mc)/mc > 0.15 {
		t.Fatalf("Normal %g / Dodin %g too far from MC %g", no, do, mc)
	}
	if _, err := ExpectedMakespan(p, EvalOptions{Estimator: Estimator("Bogus")}); err == nil {
		t.Fatal("unknown estimator must error")
	}
}

func TestExpectedMakespanAtLeastFailureFree(t *testing.T) {
	for _, fam := range []string{"genome", "montage", "ligo"} {
		s, pf := realSchedule(t, fam, 100, 5, 0.01, 0.1)
		p, err := BuildPlanWith(s, pf, CkptSome, ModelFirstOrder)
		if err != nil {
			t.Fatal(err)
		}
		em, err := ExpectedMakespan(p, EvalOptions{})
		if err != nil {
			t.Fatal(err)
		}
		// The expected makespan with I/O and failures is at least the
		// pure-compute failure-free makespan.
		if wpar := s.FailureFreeMakespan(); em < wpar-1e-9 {
			t.Fatalf("%s: E[M] %g < W_par %g", fam, em, wpar)
		}
	}
}

func TestTheorem1Formula(t *testing.T) {
	s, pf := realSchedule(t, "genome", 100, 5, 0.001, 0.01)
	wpar := s.FailureFreeMakespan()
	got := Theorem1(s, pf)
	q := float64(pf.Processors) * pf.Lambda * wpar
	want := (1-q)*wpar + q*1.5*wpar
	if math.Abs(got-want) > 1e-9 {
		t.Fatalf("Theorem1 = %g, want %g", got, want)
	}
	// The formula is unclamped: for q > 1 it keeps growing linearly,
	// W_par·(1 + q/2) — the paper's off-the-chart CkptNone behaviour.
	pfHot := pf
	pfHot.Lambda = 1
	qHot := float64(pfHot.Processors) * pfHot.Lambda * wpar
	if got := Theorem1(s, pfHot); math.Abs(got-wpar*(1+qHot/2)) > 1e-6*wpar {
		t.Fatalf("unclamped Theorem1 = %g, want %g", got, wpar*(1+qHot/2))
	}
	// Zero failure rate: exactly W_par.
	pfCold := pf
	pfCold.Lambda = 0
	if got := Theorem1(s, pfCold); math.Abs(got-wpar) > 1e-9 {
		t.Fatalf("lambda=0 Theorem1 = %g, want W_par %g", got, wpar)
	}
}

func TestRelativeTrendsVsCCR(t *testing.T) {
	// The paper's headline shapes: EM(CkptAll)/EM(CkptSome) >= 1 always,
	// -> 1 as CCR -> 0; EM(CkptNone)/EM(CkptSome) grows as CCR shrinks.
	type point struct{ relAll, relNone float64 }
	var pts []point
	for _, ccr := range []float64{1e-4, 1e-2, 1} {
		s, pf := realSchedule(t, "genome", 120, 5, 0.01, ccr)
		em := func(strat Strategy) float64 {
			p, err := BuildPlanWith(s, pf, strat, ModelFirstOrder)
			if err != nil {
				t.Fatal(err)
			}
			v, err := ExpectedMakespan(p, EvalOptions{})
			if err != nil {
				t.Fatal(err)
			}
			return v
		}
		some, all, none := em(CkptSome), em(CkptAll), em(CkptNone)
		if all < some-1e-9 {
			t.Fatalf("ccr=%g: CkptAll %g beat CkptSome %g", ccr, all, some)
		}
		pts = append(pts, point{all / some, none / some})
	}
	if pts[0].relAll > pts[2].relAll {
		t.Fatalf("relAll must grow with CCR: %v", pts)
	}
	if pts[0].relNone < pts[2].relNone {
		t.Fatalf("relNone must shrink with CCR: %v", pts)
	}
	if math.Abs(pts[0].relAll-1) > 0.01 {
		t.Fatalf("at tiny CCR CkptAll ~= CkptSome, got %g", pts[0].relAll)
	}
}
