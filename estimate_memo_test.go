package hanccr

import (
	"context"
	"math"
	"sync"
	"testing"

	"repro/internal/ckpt"
)

// memoTrials keeps the Monte Carlo requests of the memo tests short;
// the deterministic methods ignore it.
var memoTrials = WithMCTrials(300)

// freshEstimates computes each method's estimate on its own newly
// built plan, so nothing is shared with the plan under test.
func freshEstimates(t *testing.T, sc Scenario) map[Method]float64 {
	t.Helper()
	want := make(map[Method]float64)
	for _, m := range Methods() {
		p, err := NewPlan(context.Background(), sc)
		if err != nil {
			t.Fatal(err)
		}
		if want[m], err = p.Estimate(context.Background(), m, memoTrials); err != nil {
			t.Fatal(err)
		}
	}
	return want
}

// hammer runs 8 goroutines that each ask every method several times
// through estimate, and fails unless every answer is bit-equal to
// want.
func hammer(t *testing.T, want map[Method]float64, estimate func(Method) (float64, error)) {
	t.Helper()
	var wg sync.WaitGroup
	errs := make(chan error, 8)
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for rep := 0; rep < 4; rep++ {
				methods := Methods()
				for i := range methods {
					m := methods[(i+g)%len(methods)]
					v, err := estimate(m)
					if err != nil {
						errs <- err
						return
					}
					if math.Float64bits(v) != math.Float64bits(want[m]) {
						t.Errorf("goroutine %d: %s = %v, fresh plan %v", g, m, v, want[m])
						return
					}
				}
			}
		}(g)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
}

// TestEstimateOncePerPlanConcurrent checks the per-plan estimate slots
// and the Monte Carlo kernel under concurrent first use: on one shared
// plan and through a Service on one cached key, every Dodin, Normal,
// PathApprox and Monte Carlo answer is bit-equal to a fresh plan's.
func TestEstimateOncePerPlanConcurrent(t *testing.T) {
	ctx := context.Background()
	sc := NewScenario(WithFamily("montage"), WithTasks(120), WithSeed(3))
	want := freshEstimates(t, sc)

	p, err := NewPlan(ctx, sc)
	if err != nil {
		t.Fatal(err)
	}
	hammer(t, want, func(m Method) (float64, error) { return p.Estimate(ctx, m, memoTrials) })

	svc := NewService()
	if _, err := svc.Plan(ctx, sc); err != nil {
		t.Fatal(err)
	}
	hammer(t, want, func(m Method) (float64, error) { return svc.Estimate(ctx, sc, m, memoTrials) })
}

// TestSimulateStepsOncePerPlanConcurrent checks the plan's step-list
// slot under concurrent first use: 8 goroutines simulate one shared
// plan with varied seeds and worker counts, and every summary is
// bit-equal to a fresh plan's.
func TestSimulateStepsOncePerPlanConcurrent(t *testing.T) {
	ctx := context.Background()
	sc := NewScenario(WithFamily("genome"), WithTasks(120), WithSeed(5), WithPFail(0.01))
	opts := func(g int) []SimOption {
		return []SimOption{WithSimTrials(200), WithSimSeed(int64(g % 3)), WithSimWorkers(1 + g%2)}
	}
	want := make([]SimResult, 8)
	for g := range want {
		fresh, err := NewPlan(ctx, sc)
		if err != nil {
			t.Fatal(err)
		}
		if want[g], err = fresh.Simulate(ctx, opts(g)...); err != nil {
			t.Fatal(err)
		}
	}
	p, err := NewPlan(ctx, sc)
	if err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for rep := 0; rep < 3; rep++ {
				got, err := p.Simulate(ctx, opts(g)...)
				if err != nil {
					t.Error(err)
					return
				}
				if got.Trials != want[g].Trials || math.Float64bits(got.Mean) != math.Float64bits(want[g].Mean) ||
					math.Float64bits(got.StdDev) != math.Float64bits(want[g].StdDev) ||
					math.Float64bits(got.CI95) != math.Float64bits(want[g].CI95) ||
					math.Float64bits(got.MeanFailures) != math.Float64bits(want[g].MeanFailures) {
					t.Errorf("goroutine %d: %+v, fresh plan %+v", g, got, want[g])
					return
				}
			}
		}(g)
	}
	wg.Wait()
}

// TestRepeatedDodinEstimateAllocs checks that a plan answers a repeated
// Dodin request from its slot without allocating.
func TestRepeatedDodinEstimateAllocs(t *testing.T) {
	ctx := context.Background()
	p, err := NewPlan(ctx, NewScenario(WithFamily("genome"), WithTasks(100)))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := p.Estimate(ctx, Dodin); err != nil {
		t.Fatal(err)
	}
	if allocs := testing.AllocsPerRun(100, func() {
		if _, err := p.Estimate(ctx, Dodin); err != nil {
			t.Fatal(err)
		}
	}); allocs != 0 {
		t.Fatalf("repeated Dodin estimate makes %v allocations, want 0", allocs)
	}
}

// TestCkptNoneEstimatesAreTheorem1 checks that every method, asked
// twice, still answers a CkptNone plan with Theorem 1's closed formula.
func TestCkptNoneEstimatesAreTheorem1(t *testing.T) {
	ctx := context.Background()
	p, err := NewPlan(ctx, NewScenario(WithFamily("ligo"), WithTasks(80), WithStrategy(CkptNone)))
	if err != nil {
		t.Fatal(err)
	}
	want := ckpt.Theorem1(p.res.Schedule, p.res.Schedule.P)
	for rep := 0; rep < 2; rep++ {
		for _, m := range Methods() {
			got, err := p.Estimate(ctx, m, WithMCTrials(50))
			if err != nil {
				t.Fatal(err)
			}
			if math.Float64bits(got) != math.Float64bits(want) {
				t.Fatalf("rep %d: %s = %v, Theorem 1 gives %v", rep, m, got, want)
			}
		}
	}
}
