package sim

import (
	"context"
	"math"
	"math/rand"
	"testing"

	"repro/internal/ckpt"
	"repro/internal/dist"
	"repro/internal/mspg"
	"repro/internal/par"
	"repro/internal/pegasus"
	"repro/internal/platform"
	"repro/internal/sched"
	"repro/internal/wfdag"
)

// RunPlan simulates one execution of a segmented plan (CkptAll,
// CkptSome, ExitOnly, Periodic) under the given failure source through
// a fresh Runner, the reference the Runner's reuse is checked against.
func RunPlan(p *ckpt.Plan, fs FailureSource) (Result, error) {
	r, err := NewRunner(p)
	if err != nil {
		return Result{}, err
	}
	return r.RunWith(fs)
}

// RunWith simulates one execution against an arbitrary failure source
// (scripted traces, no failures, a Poisson source): the step loop from
// the first step, with no failure-free walk: the reference that Run's
// staged walk is checked against.
func (r *Runner) RunWith(fs FailureSource) (Result, error) {
	clear(r.finish)
	clear(r.clock)
	return r.runFrom(fs, 0), nil
}

// NewPoissonFailures returns a failure source for procs processors with
// rate lambda, drawing from rng.
func NewPoissonFailures(procs int, lambda float64, rng *rand.Rand) *PoissonFailures {
	p := &PoissonFailures{lambda: lambda, next: make([]float64, procs)}
	p.Reset(rng)
	return p
}

func chainPlan(t *testing.T, weights []float64, fileSize float64, lambda float64, strat ckpt.Strategy) *ckpt.Plan {
	t.Helper()
	g := wfdag.New()
	var ids []wfdag.TaskID
	var prev wfdag.TaskID
	for i, w := range weights {
		id := g.AddTask("t", "k", w)
		if i > 0 {
			g.Connect(prev, id, "f", fileSize)
		}
		prev = id
		ids = append(ids, id)
	}
	w := &mspg.Workflow{Name: "chain", G: g, Root: mspg.NewChain(ids...)}
	if err := w.Validate(); err != nil {
		t.Fatal(err)
	}
	pf := platform.New(1, lambda, 1)
	s, err := sched.Allocate(w, pf, sched.Options{Linearize: sched.DeterministicLinearizer})
	if err != nil {
		t.Fatal(err)
	}
	p, err := ckpt.BuildPlanWith(s, pf, strat, ckpt.ModelFirstOrder)
	if err != nil {
		t.Fatal(err)
	}
	return p
}

func TestRunPlanNoFailures(t *testing.T) {
	p := chainPlan(t, []float64{10, 20, 30}, 5, 0, ckpt.CkptAll)
	r, err := RunPlan(p, NoFailures{})
	if err != nil {
		t.Fatal(err)
	}
	// Sum of segment spans (single processor, sequential).
	want := 0.0
	for _, seg := range p.Segments {
		want += seg.Span()
	}
	if math.Abs(r.Makespan-want) > 1e-9 {
		t.Fatalf("makespan = %g, want %g", r.Makespan, want)
	}
	if r.Failures != 0 {
		t.Fatalf("failures = %d", r.Failures)
	}
}

func TestRunPlanScriptedFailureAccounting(t *testing.T) {
	// One 10s task, no files, exit checkpoint free. A failure at t=4
	// restarts the (only) segment: completion at 4 + 10 = 14.
	p := chainPlan(t, []float64{10}, 0, 0, ckpt.CkptSome)
	fs := &TraceFailures{Times: [][]float64{{4}}}
	r, err := RunPlan(p, fs)
	if err != nil {
		t.Fatal(err)
	}
	if r.Makespan != 14 || r.Failures != 1 {
		t.Fatalf("got makespan %g with %d failures, want 14 and 1", r.Makespan, r.Failures)
	}
}

func TestRunPlanRepeatedFailures(t *testing.T) {
	// Failures at 4 and 9: restart at 4, again at 9, finish 9+10=19.
	p := chainPlan(t, []float64{10}, 0, 0, ckpt.CkptSome)
	fs := &TraceFailures{Times: [][]float64{{4, 9}}}
	r, err := RunPlan(p, fs)
	if err != nil {
		t.Fatal(err)
	}
	if r.Makespan != 19 || r.Failures != 2 {
		t.Fatalf("got %g / %d, want 19 / 2", r.Makespan, r.Failures)
	}
}

func TestRunPlanCheckpointLimitsRework(t *testing.T) {
	// Two 10s tasks, each checkpointed (CkptAll, zero-size files): a
	// failure at t=15 loses only the second task's progress:
	// t0 done at 10; t1 restarts at 15, finishes at 25.
	p := chainPlan(t, []float64{10, 10}, 0, 0, ckpt.CkptAll)
	fs := &TraceFailures{Times: [][]float64{{15}}}
	r, err := RunPlan(p, fs)
	if err != nil {
		t.Fatal(err)
	}
	if r.Makespan != 25 || r.Failures != 1 {
		t.Fatalf("got %g / %d, want 25 / 1", r.Makespan, r.Failures)
	}
	// Without the checkpoint (ExitOnly: one segment of 20s), the same
	// failure forces a full restart: 15 + 20 = 35.
	p2 := chainPlan(t, []float64{10, 10}, 0, 0, ckpt.ExitOnly)
	r2, err := RunPlan(p2, &TraceFailures{Times: [][]float64{{15}}})
	if err != nil {
		t.Fatal(err)
	}
	if r2.Makespan != 35 || r2.Failures != 1 {
		t.Fatalf("got %g / %d, want 35 / 1", r2.Makespan, r2.Failures)
	}
}

func TestRunPlanIOCostsInAttempts(t *testing.T) {
	// Chain a->b with a 5-byte file at 1 B/s, both checkpointed. Segment
	// b costs R=5 (read) + W=10. A failure at t=21 (during b, which
	// started at 15) restarts b including the re-read: 21 + 15 = 36.
	p := chainPlan(t, []float64{10, 10}, 5, 0, ckpt.CkptAll)
	// Segment a: W=10 + C=5 -> finishes 15. b: R=5, W=10 -> would finish 30.
	fs := &TraceFailures{Times: [][]float64{{21}}}
	r, err := RunPlan(p, fs)
	if err != nil {
		t.Fatal(err)
	}
	if r.Makespan != 36 || r.Failures != 1 {
		t.Fatalf("got %g / %d, want 36 / 1", r.Makespan, r.Failures)
	}
}

func TestRunPlanIdleFailuresHarmless(t *testing.T) {
	// A failure before the work starts must not count or delay.
	p := chainPlan(t, []float64{10}, 0, 0, ckpt.CkptSome)
	fs := &TraceFailures{Times: [][]float64{{-1}}}
	r, err := RunPlan(p, fs)
	if err != nil {
		t.Fatal(err)
	}
	if r.Makespan != 10 || r.Failures != 0 {
		t.Fatalf("got %g / %d, want 10 / 0", r.Makespan, r.Failures)
	}
}

func TestRunPlanRejectsCkptNone(t *testing.T) {
	p := chainPlan(t, []float64{10}, 0, 0, ckpt.CkptSome)
	p2 := *p
	p2.Strategy = ckpt.CkptNone
	if _, err := RunPlan(&p2, NoFailures{}); err == nil {
		t.Fatal("CkptNone must be rejected by RunPlan")
	}
}

func TestRunNoneWholeRestart(t *testing.T) {
	w, err := pegasus.Generate("genome", pegasus.Options{Tasks: 50, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	pf := platform.New(5, 0, 1e8)
	s, err := sched.Allocate(w, pf, sched.Options{})
	if err != nil {
		t.Fatal(err)
	}
	r := runNone(s.FailureFreeMakespan(), dist.Exponential{Lambda: pf.Lambda * float64(pf.Processors)}, rand.New(rand.NewSource(1)))
	if r.Makespan != s.FailureFreeMakespan() || r.Failures != 0 {
		t.Fatalf("lambda=0 CkptNone: %+v", r)
	}
}

func TestRunNoneMatchesGeometricExpectation(t *testing.T) {
	// With attempt length T and platform rate Λ, the expected completion
	// time is E = (e^{ΛT} − 1)/Λ (memoryless restart process). Check the
	// simulator against the closed form.
	w, err := pegasus.Generate("genome", pegasus.Options{Tasks: 50, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	pf := platform.New(5, 0, 1e8)
	s, err := sched.Allocate(w, pf, sched.Options{})
	if err != nil {
		t.Fatal(err)
	}
	wpar := s.FailureFreeMakespan()
	pf.Lambda = 0.3 / wpar / 5 // Λ·T = 0.3
	lamAll := pf.Lambda * 5
	want := (math.Exp(lamAll*wpar) - 1) / lamAll
	sum := 0.0
	const trials = 20000
	rng := rand.New(rand.NewSource(2))
	e := dist.Exponential{Lambda: lamAll}
	for i := 0; i < trials; i++ {
		sum += runNone(wpar, e, rng).Makespan
	}
	got := sum / trials
	if dist.RelErr(got, want) > 0.02 {
		t.Fatalf("runNone mean %g vs closed form %g", got, want)
	}
}

func TestEstimateExpectedMatchesAnalytic(t *testing.T) {
	// At small lambda the DES mean matches the first-order analytic
	// estimate within a tight tolerance.
	for _, fam := range pegasus.PaperFamilies() {
		w, err := pegasus.Generate(fam, pegasus.Options{Tasks: 50, Seed: 5})
		if err != nil {
			t.Fatal(err)
		}
		pf := platform.New(5, 0, 1e8).WithLambdaForPFail(0.001, w.G)
		pf.ScaleToCCR(w.G, 0.01)
		s, err := sched.Allocate(w, pf, sched.Options{Rng: rand.New(rand.NewSource(4))})
		if err != nil {
			t.Fatal(err)
		}
		p, err := ckpt.BuildPlanWith(s, pf, ckpt.CkptSome, ckpt.ModelFirstOrder)
		if err != nil {
			t.Fatal(err)
		}
		analytic, err := ckpt.ExpectedMakespan(p, ckpt.EvalOptions{})
		if err != nil {
			t.Fatal(err)
		}
		sum, _, err := EstimateExpectedDetail(context.Background(), p, 3000, 9, 1)
		if err != nil {
			t.Fatal(err)
		}
		if dist.RelErr(analytic, sum.Mean) > 0.02 {
			t.Fatalf("%s: analytic %g vs DES %g ± %g", fam, analytic, sum.Mean, sum.CI95)
		}
	}
}

// TestEstimateExpectedWorkerInvariance pins the tentpole determinism
// contract: the chunked, sub-seeded trial fan-out must give bit-identical
// summaries and failure means for every worker count (run under -race in
// CI, which also proves the fan-out is data-race free).
func TestEstimateExpectedWorkerInvariance(t *testing.T) {
	w, err := pegasus.Generate("montage", pegasus.Options{Tasks: 60, Seed: 5})
	if err != nil {
		t.Fatal(err)
	}
	pf := platform.New(5, 0, 1e8).WithLambdaForPFail(0.003, w.G)
	pf.ScaleToCCR(w.G, 0.05)
	s, err := sched.Allocate(w, pf, sched.Options{Rng: rand.New(rand.NewSource(4))})
	if err != nil {
		t.Fatal(err)
	}
	p, err := ckpt.BuildPlanWith(s, pf, ckpt.CkptSome, ckpt.ModelFirstOrder)
	if err != nil {
		t.Fatal(err)
	}
	// Trial counts spanning one partial chunk, an exact chunk boundary
	// and several chunks with a ragged tail.
	for _, trials := range []int{300, par.Chunk, 2*par.Chunk + 17} {
		serialSum, serialFails, err := EstimateExpectedDetail(context.Background(), p, trials, 9, 1)
		if err != nil {
			t.Fatal(err)
		}
		serialNone, serialNoneFails, _ := EstimateExpectedNoneDetail(context.Background(), s, pf, trials, 9, 1)
		for _, workers := range []int{2, 7} {
			sum, fails, err := EstimateExpectedDetail(context.Background(), p, trials, 9, workers)
			if err != nil {
				t.Fatal(err)
			}
			if sum != serialSum || fails != serialFails {
				t.Fatalf("trials=%d workers=%d: %+v/%g != serial %+v/%g",
					trials, workers, sum, fails, serialSum, serialFails)
			}
			none, noneFails, _ := EstimateExpectedNoneDetail(context.Background(), s, pf, trials, 9, workers)
			if none != serialNone || noneFails != serialNoneFails {
				t.Fatalf("trials=%d workers=%d (none): %+v/%g != serial %+v/%g",
					trials, workers, none, noneFails, serialNone, serialNoneFails)
			}
		}
	}
}

// TestRunnerMatchesRunPlan checks that the reusable Runner and the
// one-shot RunPlan agree trial by trial on a shared generator stream.
func TestRunnerMatchesRunPlan(t *testing.T) {
	p := chainPlan(t, []float64{10, 20, 30}, 5, 0.02, ckpt.CkptSome)
	r, err := NewRunner(p)
	if err != nil {
		t.Fatal(err)
	}
	rngA := rand.New(rand.NewSource(17))
	rngB := rand.New(rand.NewSource(17))
	for trial := 0; trial < 200; trial++ {
		got, err := r.Run(rngA)
		if err != nil {
			t.Fatal(err)
		}
		want, err := RunPlan(p, NewPoissonFailures(p.Platform.Processors, p.Platform.Lambda, rngB))
		if err != nil {
			t.Fatal(err)
		}
		if got != want {
			t.Fatalf("trial %d: runner %+v != one-shot %+v", trial, got, want)
		}
	}
}

func TestPoissonFailuresMonotone(t *testing.T) {
	pfail := NewPoissonFailures(2, 0.1, rand.New(rand.NewSource(11)))
	prev := 0.0
	for i := 0; i < 100; i++ {
		next := pfail.NextAfter(0, prev)
		if next <= prev {
			t.Fatalf("failure times must be strictly increasing: %g <= %g", next, prev)
		}
		prev = next
	}
}

func TestPoissonFailuresRate(t *testing.T) {
	rng := rand.New(rand.NewSource(13))
	pfail := NewPoissonFailures(1, 0.01, rng)
	t0 := 0.0
	const n = 50000
	for i := 0; i < n; i++ {
		t0 = pfail.NextAfter(0, t0)
	}
	if got := float64(n) / t0; math.Abs(got-0.01)/0.01 > 0.05 {
		t.Fatalf("empirical rate %g, want 0.01", got)
	}
}

func TestPoissonZeroLambdaNeverFails(t *testing.T) {
	pfail := NewPoissonFailures(1, 0, rand.New(rand.NewSource(1)))
	if !math.IsInf(pfail.NextAfter(0, 5), 1) {
		t.Fatal("lambda=0 must never fail")
	}
}

func TestTraceFailuresOutOfRangeProc(t *testing.T) {
	tf := &TraceFailures{Times: [][]float64{{1}}}
	if !math.IsInf(tf.NextAfter(5, 0), 1) {
		t.Fatal("missing processor trace must never fail")
	}
}

func TestEstimateExpectedDetailCountsFailures(t *testing.T) {
	// λ·span ≈ 0.5: most runs see at least one failure.
	p := chainPlan(t, []float64{10}, 0, 0.05, ckpt.CkptSome)
	sum, fails, err := EstimateExpectedDetail(context.Background(), p, 500, 7, 1)
	if err != nil {
		t.Fatal(err)
	}
	if fails <= 0 {
		t.Fatalf("mean failures = %g, want > 0 at λ=0.05", fails)
	}
	if sum.Mean <= 10 {
		t.Fatalf("failures must lengthen the mean makespan: %g", sum.Mean)
	}
}
