package core

import (
	"context"
	"math"
	"reflect"
	"testing"

	"repro/internal/ckpt"
	"repro/internal/mspg"
	"repro/internal/pegasus"
	"repro/internal/platform"
	"repro/internal/sched"
)

func setup(t *testing.T, fam string, tasks, procs int, pfail, ccr float64) (*mspg.Workflow, platform.Platform) {
	t.Helper()
	w, err := pegasus.Generate(fam, pegasus.Options{Tasks: tasks, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	pf := platform.New(procs, 0, 1e8).WithLambdaForPFail(pfail, w.G)
	pf.ScaleToCCR(w.G, ccr)
	return w, pf
}

func TestRunDefaultsToCkptSome(t *testing.T) {
	w, pf := setup(t, "genome", 100, 5, 0.001, 0.01)
	res, err := Run(context.Background(), w, pf, Config{})
	if err != nil {
		t.Fatal(err)
	}
	if res.Strategy != ckpt.CkptSome {
		t.Fatalf("default strategy = %s", res.Strategy)
	}
	if res.ExpectedMakespan <= 0 || res.Checkpoints <= 0 || res.Superchains <= 0 || res.Segments <= 0 {
		t.Fatalf("result = %+v", res)
	}
	if res.ExpectedMakespan < res.FailureFreeMakespan {
		t.Fatal("E[M] below failure-free makespan")
	}
}

func TestRunAllStrategies(t *testing.T) {
	w, pf := setup(t, "montage", 100, 7, 0.001, 0.1)
	for _, strat := range []ckpt.Strategy{ckpt.CkptSome, ckpt.CkptAll, ckpt.CkptNone, ckpt.ExitOnly} {
		res, err := Run(context.Background(), w, pf, Config{Strategy: strat})
		if err != nil {
			t.Fatalf("%s: %v", strat, err)
		}
		if res.ExpectedMakespan <= 0 {
			t.Fatalf("%s: E[M] = %g", strat, res.ExpectedMakespan)
		}
	}
}

func TestRunAllEstimators(t *testing.T) {
	w, pf := setup(t, "genome", 100, 5, 0.001, 0.01)
	var values []float64
	for _, est := range []ckpt.Estimator{ckpt.EstPathApprox, ckpt.EstMonteCarlo, ckpt.EstNormal, ckpt.EstDodin} {
		res, err := Run(context.Background(), w, pf, Config{Estimator: est, MCTrials: 20000})
		if err != nil {
			t.Fatalf("%s: %v", est, err)
		}
		values = append(values, res.ExpectedMakespan)
	}
	for i := 1; i < len(values); i++ {
		if math.Abs(values[i]-values[0])/values[0] > 0.1 {
			t.Fatalf("estimators diverge: %v", values)
		}
	}
}

func TestCompareSharedSchedule(t *testing.T) {
	w, pf := setup(t, "ligo", 120, 7, 0.001, 0.05)
	s, err := BuildSchedule(w, pf, Config{})
	if err != nil {
		t.Fatal(err)
	}
	cmp, err := CompareOnSchedule(context.Background(), s, pf, Config{})
	if err != nil {
		t.Fatal(err)
	}
	// All three evaluated on the same schedule object.
	if cmp.Some.Schedule != cmp.All.Schedule || cmp.All.Schedule != cmp.None.Schedule {
		t.Fatal("CompareOnSchedule must reuse one schedule")
	}
	if cmp.RelAll() < 1-1e-9 {
		t.Fatalf("CkptAll beat CkptSome: %g", cmp.RelAll())
	}
	if cmp.None.Checkpoints != 0 {
		t.Fatal("CkptNone has checkpoints")
	}
}

func TestRunOnScheduleReuse(t *testing.T) {
	w, pf := setup(t, "genome", 100, 5, 0.001, 0.01)
	s, err := sched.Allocate(w, pf, sched.Options{})
	if err != nil {
		t.Fatal(err)
	}
	a, err := RunOnSchedule(context.Background(), s, pf, Config{Strategy: ckpt.CkptSome})
	if err != nil {
		t.Fatal(err)
	}
	b, err := RunOnSchedule(context.Background(), s, pf, Config{Strategy: ckpt.CkptSome})
	if err != nil {
		t.Fatal(err)
	}
	if a.ExpectedMakespan != b.ExpectedMakespan {
		t.Fatal("same schedule + strategy must be deterministic")
	}
}

func TestRunDeterministicAcrossCalls(t *testing.T) {
	w1, pf1 := setup(t, "montage", 150, 7, 0.001, 0.1)
	r1, err := Run(context.Background(), w1, pf1, Config{Seed: 5})
	if err != nil {
		t.Fatal(err)
	}
	w2, pf2 := setup(t, "montage", 150, 7, 0.001, 0.1)
	r2, err := Run(context.Background(), w2, pf2, Config{Seed: 5})
	if err != nil {
		t.Fatal(err)
	}
	if r1.ExpectedMakespan != r2.ExpectedMakespan || r1.Checkpoints != r2.Checkpoints {
		t.Fatal("same seed must reproduce the plan exactly")
	}
}

func TestSeedChangesLinearization(t *testing.T) {
	w1, pf1 := setup(t, "montage", 150, 7, 0.001, 0.1)
	r1, err := Run(context.Background(), w1, pf1, Config{Seed: 5})
	if err != nil {
		t.Fatal(err)
	}
	w2, pf2 := setup(t, "montage", 150, 7, 0.001, 0.1)
	r2, err := Run(context.Background(), w2, pf2, Config{Seed: 6})
	if err != nil {
		t.Fatal(err)
	}
	// Different random topological sorts usually give (slightly)
	// different plans; we only check the pipeline doesn't crash and
	// both are valid positive estimates.
	if r1.ExpectedMakespan <= 0 || r2.ExpectedMakespan <= 0 {
		t.Fatal("bad estimates")
	}
}

func TestMoreFailuresMoreCheckpoints(t *testing.T) {
	// Algorithm 2 checkpoints monotonically more as failures intensify
	// (same workflow, same schedule seed).
	var prev int
	first := true
	for _, pfail := range []float64{0.0001, 0.001, 0.01, 0.1} {
		w, pf := setup(t, "genome", 200, 5, pfail, 0.05)
		res, err := Run(context.Background(), w, pf, Config{Seed: 7})
		if err != nil {
			t.Fatal(err)
		}
		if !first && res.Checkpoints < prev {
			t.Fatalf("checkpoints fell from %d to %d as pfail rose to %g", prev, res.Checkpoints, pfail)
		}
		prev = res.Checkpoints
		first = false
	}
}

func TestCheaperIOMoreCheckpoints(t *testing.T) {
	var prev int
	first := true
	for _, ccr := range []float64{1, 0.1, 0.01, 0.001} {
		w, pf := setup(t, "montage", 200, 7, 0.001, ccr)
		res, err := Run(context.Background(), w, pf, Config{Seed: 7})
		if err != nil {
			t.Fatal(err)
		}
		if !first && res.Checkpoints < prev {
			t.Fatalf("checkpoints fell from %d to %d as CCR dropped to %g", prev, res.Checkpoints, ccr)
		}
		prev = res.Checkpoints
		first = false
	}
}

func TestCompareParallelMatchesSerial(t *testing.T) {
	w, pf := setup(t, "montage", 80, 5, 0.001, 0.05)
	s, err := BuildSchedule(w, pf, Config{Seed: 7})
	if err != nil {
		t.Fatal(err)
	}
	serial, err := CompareOnSchedule(context.Background(), s, pf, Config{Seed: 7, Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	for _, workers := range []int{-1, 3, 8} {
		par, err := CompareOnSchedule(context.Background(), s, pf, Config{Seed: 7, Workers: workers})
		if err != nil {
			t.Fatal(err)
		}
		for _, pair := range [][2]*Result{
			{par.Some, serial.Some}, {par.All, serial.All}, {par.None, serial.None},
		} {
			got, want := pair[0], pair[1]
			if got.ExpectedMakespan != want.ExpectedMakespan ||
				got.Checkpoints != want.Checkpoints ||
				got.Segments != want.Segments ||
				got.FailureFreeMakespan != want.FailureFreeMakespan {
				t.Fatalf("workers=%d %s: %+v != serial %+v", workers, got.Strategy, got, want)
			}
		}
	}
}

// TestConfigZeroValueDefaults pins the documented defaults: a zero
// Config plans bit-identically to Seed 1 under CkptSome, through Run
// and through RunOnSchedule. The Monte Carlo estimator makes the seed
// reach the evaluation as well as the linearization.
func TestConfigZeroValueDefaults(t *testing.T) {
	ctx := context.Background()
	w, pf := setup(t, "montage", 80, 5, 0.01, 0.1)
	zero := Config{Estimator: ckpt.EstMonteCarlo, MCTrials: 500}
	explicit := zero
	explicit.Seed, explicit.Strategy = 1, ckpt.CkptSome
	other := explicit
	other.Seed = 2
	same := func(a, b *Result) bool {
		return reflect.DeepEqual(a, b) && math.Float64bits(a.ExpectedMakespan) == math.Float64bits(b.ExpectedMakespan)
	}

	var runs [3]*Result
	for i, cfg := range []Config{zero, explicit, other} {
		r, err := Run(ctx, w, pf, cfg)
		if err != nil {
			t.Fatal(err)
		}
		runs[i] = r
	}
	if !same(runs[0], runs[1]) {
		t.Errorf("Run: Config{} differs from Seed 1 under CkptSome: EM %v vs %v", runs[0].ExpectedMakespan, runs[1].ExpectedMakespan)
	}
	if same(runs[1], runs[2]) {
		t.Fatal("seeds 1 and 2 plan identically; the pin above proves nothing")
	}

	s, err := BuildSchedule(w, pf, explicit)
	if err != nil {
		t.Fatal(err)
	}
	a, err := RunOnSchedule(ctx, s, pf, zero)
	if err != nil {
		t.Fatal(err)
	}
	b, err := RunOnSchedule(ctx, s, pf, explicit)
	if err != nil {
		t.Fatal(err)
	}
	if !same(a, b) {
		t.Errorf("RunOnSchedule: Config{} differs from Seed 1 under CkptSome: EM %v vs %v", a.ExpectedMakespan, b.ExpectedMakespan)
	}
}
