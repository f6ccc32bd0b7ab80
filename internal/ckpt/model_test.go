package ckpt

import (
	"math"
	"testing"

	"repro/internal/dist"
)

// SegmentDist is one segment's law on its own, the reference for the
// block of laws EvalDAG builds at once (dist.TwoStates).
func (m CostModel) SegmentDist(span, lambda float64) *dist.Discrete {
	return dist.TwoState(m.segmentLaw(span, lambda))
}

func TestCostModelString(t *testing.T) {
	if ModelFirstOrder.String() != "FirstOrder" || ModelExact.String() != "Exact" {
		t.Fatal("model names")
	}
}

func TestModelsAgreeAtSmallLambda(t *testing.T) {
	for _, span := range []float64{1, 10, 100} {
		lam := 1e-6
		fo := ModelFirstOrder.ExpectedTime(span, lam)
		ex := ModelExact.ExpectedTime(span, lam)
		if math.Abs(fo-ex)/ex > 1e-6 {
			t.Fatalf("span %g: first-order %g vs exact %g", span, fo, ex)
		}
	}
}

func TestExactAboveFirstOrder(t *testing.T) {
	// (e^x − 1)/λ ≥ first-order for all λ, strict once λS is sizable.
	for _, lamS := range []float64{0.01, 0.1, 0.5, 1, 2} {
		span := 100.0
		lam := lamS / span
		fo := ModelFirstOrder.ExpectedTime(span, lam)
		ex := ModelExact.ExpectedTime(span, lam)
		if ex < fo-1e-9 {
			t.Fatalf("λS=%g: exact %g below first-order %g", lamS, ex, fo)
		}
		if lamS >= 0.5 && ex < fo*1.01 {
			t.Fatalf("λS=%g: exact %g should clearly exceed first-order %g", lamS, ex, fo)
		}
	}
}

func TestExactSegmentDistMatchesMean(t *testing.T) {
	for _, lamS := range []float64{1e-4, 0.05, 0.8} {
		span := 50.0
		lam := lamS / span
		d := ModelExact.SegmentDist(span, lam)
		want := dist.ExactRestartExpected(span, lam)
		if math.Abs(d.Mean()-want)/want > 1e-9 {
			t.Fatalf("λS=%g: dist mean %g vs exact %g", lamS, d.Mean(), want)
		}
		if d.Min() != span {
			t.Fatalf("base value must be the failure-free span, got %g", d.Min())
		}
		// P(no failure) = e^{-λS}.
		if p0 := d.Probs()[0]; math.Abs(p0-math.Exp(-lam*span)) > 1e-9 {
			t.Fatalf("no-failure mass %g", p0)
		}
	}
}

func TestBuildPlanWithExactModel(t *testing.T) {
	s, pf := realSchedule(t, "genome", 100, 5, 0.01, 0.05)
	fo, err := BuildPlanWith(s, pf, CkptSome, ModelFirstOrder)
	if err != nil {
		t.Fatal(err)
	}
	ex, err := BuildPlanWith(s, pf, CkptSome, ModelExact)
	if err != nil {
		t.Fatal(err)
	}
	if err := ex.Validate(); err != nil {
		t.Fatal(err)
	}
	// The exact model penalizes long segments more, so it never places
	// fewer checkpoints than the first-order model on the same schedule.
	if ex.NumCheckpoints() < fo.NumCheckpoints() {
		t.Fatalf("exact model placed fewer checkpoints (%d) than first-order (%d)",
			ex.NumCheckpoints(), fo.NumCheckpoints())
	}
	emFo, err := ExpectedMakespan(fo, EvalOptions{})
	if err != nil {
		t.Fatal(err)
	}
	emEx, err := ExpectedMakespan(ex, EvalOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if emFo <= 0 || emEx <= 0 {
		t.Fatal("bad estimates")
	}
}

func TestExactRestartExpectedClosedForm(t *testing.T) {
	// λ = 0.01, S = 100: E = (e − 1)/0.01.
	want := (math.E - 1) / 0.01
	if got := dist.ExactRestartExpected(100, 0.01); math.Abs(got-want) > 1e-9 {
		t.Fatalf("got %g, want %g", got, want)
	}
	if got := dist.ExactRestartExpected(100, 0); got != 100 {
		t.Fatalf("λ=0: %g", got)
	}
	if got := dist.ExactRestartExpected(0, 0.5); got != 0 {
		t.Fatalf("S=0: %g", got)
	}
}
