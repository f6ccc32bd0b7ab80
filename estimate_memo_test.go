package hanccr

import (
	"context"
	"errors"
	"math"
	"sync"
	"sync/atomic"
	"testing"

	"repro/internal/ckpt"
	"repro/internal/par"
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

// TestEstimateOncePerPlanConcurrent checks the per-plan estimate slots,
// the Monte Carlo kernel and the Monte Carlo record under concurrent
// first use: on one shared plan and through a Service on one cached
// key, every Dodin, Normal, PathApprox and Monte Carlo answer is
// bit-equal to a fresh plan's.
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
// plan with varied seeds and worker counts, so the simulation record
// is replaced throughout, and every summary is bit-equal to a fresh
// plan's.
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

// sameSim reports whether two summaries are equal bit for bit in every
// field.
func sameSim(a, b SimResult) bool {
	return a.Trials == b.Trials && math.Float64bits(a.Mean) == math.Float64bits(b.Mean) &&
		math.Float64bits(a.StdDev) == math.Float64bits(b.StdDev) &&
		math.Float64bits(a.CI95) == math.Float64bits(b.CI95) &&
		math.Float64bits(a.MeanFailures) == math.Float64bits(b.MeanFailures)
}

// freshSimulate simulates sc on its own newly built plan.
func freshSimulate(t *testing.T, sc Scenario, opts ...SimOption) SimResult {
	t.Helper()
	p, err := NewPlan(context.Background(), sc)
	if err != nil {
		t.Fatal(err)
	}
	res, err := p.Simulate(context.Background(), opts...)
	if err != nil {
		t.Fatal(err)
	}
	return res
}

// TestSimulateMemoConcurrent checks the plan's simulation record under
// concurrent use: 8 goroutines ask one shared plan for the same trial
// count and seed at varied worker counts, so all but the first answers
// come from the record, and every summary equals a fresh plan's bit for
// bit in every field, under CkptSome and under CkptNone's whole-restart
// path; and through a Service on one cached key.
func TestSimulateMemoConcurrent(t *testing.T) {
	ctx := context.Background()
	for _, st := range []Strategy{CkptSome, CkptNone} {
		sc := NewScenario(WithFamily("ligo"), WithTasks(120), WithSeed(4), WithPFail(0.01), WithStrategy(st))
		trials := WithSimTrials(300)
		want := freshSimulate(t, sc, trials)
		p, err := NewPlan(ctx, sc)
		if err != nil {
			t.Fatal(err)
		}
		svc := NewService()
		for name, simulate := range map[string]func(workers int) (SimResult, error){
			"plan":    func(w int) (SimResult, error) { return p.Simulate(ctx, trials, WithSimWorkers(w)) },
			"service": func(w int) (SimResult, error) { return svc.Simulate(ctx, sc, trials, WithSimWorkers(w)) },
		} {
			var wg sync.WaitGroup
			for g := 0; g < 8; g++ {
				wg.Add(1)
				go func(g int) {
					defer wg.Done()
					for rep := 0; rep < 4; rep++ {
						got, err := simulate(1 + g%3)
						if err != nil {
							t.Error(err)
							return
						}
						if !sameSim(got, want) {
							t.Errorf("%s %s goroutine %d: %+v, fresh plan %+v", st, name, g, got, want)
							return
						}
					}
				}(g)
			}
			wg.Wait()
		}
	}
}

// TestMemoKeyedByTrialsAndSeed checks what the Monte Carlo and
// simulation records answer: a changed trial count or seed is computed
// afresh (a new record, equal to a fresh plan's answer) rather than
// served the held one, switching back computes the original bits again,
// and a different worker count is answered from the record.
func TestMemoKeyedByTrialsAndSeed(t *testing.T) {
	ctx := context.Background()
	sc := NewScenario(WithFamily("montage"), WithTasks(100), WithSeed(2), WithPFail(0.01))
	p, err := NewPlan(ctx, sc)
	if err != nil {
		t.Fatal(err)
	}
	fresh, err := NewPlan(ctx, sc)
	if err != nil {
		t.Fatal(err)
	}
	mc := func(pl *Plan, opts ...EstimateOption) float64 {
		t.Helper()
		v, err := pl.Estimate(ctx, MonteCarlo, opts...)
		if err != nil {
			t.Fatal(err)
		}
		return v
	}
	simulate := func(pl *Plan, opts ...SimOption) SimResult {
		t.Helper()
		v, err := pl.Simulate(ctx, opts...)
		if err != nil {
			t.Fatal(err)
		}
		return v
	}
	mcKeys := [][]EstimateOption{
		{WithMCTrials(300), WithMCSeed(1)},
		{WithMCTrials(400), WithMCSeed(1)},
		{WithMCTrials(300), WithMCSeed(2)},
		{WithMCTrials(300), WithMCSeed(1)},
	}
	first := mc(p, mcKeys[0]...)
	for i, opts := range mcKeys {
		before := p.mc.Load()
		got := mc(p, opts...)
		if want := mc(fresh, opts...); math.Float64bits(got) != math.Float64bits(want) {
			t.Fatalf("Monte Carlo key %d: %v, fresh plan %v", i, got, want)
		}
		if i > 0 && p.mc.Load() == before {
			t.Fatalf("Monte Carlo key %d was answered from the record of another key", i)
		}
	}
	if last := mc(p, mcKeys[3]...); math.Float64bits(last) != math.Float64bits(first) {
		t.Fatalf("switching back to the first key: %v, first answer %v", last, first)
	}
	before := p.mc.Load()
	if got := mc(p, append(mcKeys[0], WithEstimateWorkers(3))...); math.Float64bits(got) != math.Float64bits(first) || p.mc.Load() != before {
		t.Fatalf("3 workers: %v (record replaced: %v), want the held %v", got, p.mc.Load() != before, first)
	}

	simKeys := [][]SimOption{
		{WithSimTrials(200), WithSimSeed(1)},
		{WithSimTrials(250), WithSimSeed(1)},
		{WithSimTrials(200), WithSimSeed(2)},
		{WithSimTrials(200), WithSimSeed(1)},
	}
	firstSim := simulate(p, simKeys[0]...)
	for i, opts := range simKeys {
		before := p.sim.Load()
		got := simulate(p, opts...)
		if want := simulate(fresh, opts...); !sameSim(got, want) {
			t.Fatalf("simulation key %d: %+v, fresh plan %+v", i, got, want)
		}
		if i > 0 && p.sim.Load() == before {
			t.Fatalf("simulation key %d was answered from the record of another key", i)
		}
	}
	if last := simulate(p, simKeys[3]...); !sameSim(last, firstSim) {
		t.Fatalf("switching back to the first key: %+v, first answer %+v", last, firstSim)
	}
	beforeSim := p.sim.Load()
	if got := simulate(p, append(simKeys[0], WithSimWorkers(3))...); !sameSim(got, firstSim) || p.sim.Load() != beforeSim {
		t.Fatalf("3 workers: %+v (record replaced: %v), want the held %+v", got, p.sim.Load() != beforeSim, firstSim)
	}
}

// errAfterCtx is a context whose Err reports nothing for its first
// left calls and context.Canceled from then on: a request cancelled
// while its trials run.
type errAfterCtx struct {
	context.Context
	left atomic.Int32
}

func (c *errAfterCtx) Err() error {
	if c.left.Add(-1) >= 0 {
		return nil
	}
	return context.Canceled
}

// TestMemoCancelled checks that a cancelled request gets
// context.Canceled even when the plan holds the answer it asks for,
// and that a computation cancelled while its trials run leaves the
// held record in place.
func TestMemoCancelled(t *testing.T) {
	ctx := context.Background()
	p, err := NewPlan(ctx, NewScenario(WithFamily("genome"), WithTasks(80), WithPFail(0.01)))
	if err != nil {
		t.Fatal(err)
	}
	mcOpts := []EstimateOption{WithMCTrials(200), WithEstimateWorkers(1)}
	simOpts := []SimOption{WithSimTrials(200), WithSimWorkers(1)}
	if _, err := p.Estimate(ctx, MonteCarlo, mcOpts...); err != nil {
		t.Fatal(err)
	}
	if _, err := p.Simulate(ctx, simOpts...); err != nil {
		t.Fatal(err)
	}
	mcHeld, simHeld := p.mc.Load(), p.sim.Load()

	cancelled, cancel := context.WithCancel(ctx)
	cancel()
	if _, err := p.Estimate(cancelled, MonteCarlo, mcOpts...); !errors.Is(err, context.Canceled) {
		t.Fatalf("Monte Carlo on a cancelled context with its answer held: %v, want context.Canceled", err)
	}
	if _, err := p.Simulate(cancelled, simOpts...); !errors.Is(err, context.Canceled) {
		t.Fatalf("Simulate on a cancelled context with its answer held: %v, want context.Canceled", err)
	}

	// Several chunks of trials, cancelled after the first one runs.
	many := 4 * par.Chunk
	mid := &errAfterCtx{Context: ctx}
	mid.left.Store(2)
	if _, err := p.Estimate(mid, MonteCarlo, WithMCTrials(many), WithEstimateWorkers(1)); !errors.Is(err, context.Canceled) {
		t.Fatalf("Monte Carlo cancelled mid-run: %v, want context.Canceled", err)
	}
	mid.left.Store(2)
	if _, err := p.Simulate(mid, WithSimTrials(many), WithSimWorkers(1)); !errors.Is(err, context.Canceled) {
		t.Fatalf("Simulate cancelled mid-run: %v, want context.Canceled", err)
	}
	if p.mc.Load() != mcHeld || p.sim.Load() != simHeld {
		t.Fatal("a cancelled computation replaced the held record")
	}
}

// TestRepeatedMonteCarloAndSimulateAllocs checks that a plan answers a
// repeated Monte Carlo or simulation request from its record without
// allocating, under CkptSome and CkptNone.
func TestRepeatedMonteCarloAndSimulateAllocs(t *testing.T) {
	ctx := context.Background()
	for _, st := range []Strategy{CkptSome, CkptNone} {
		p, err := NewPlan(ctx, NewScenario(WithFamily("genome"), WithTasks(100), WithStrategy(st)))
		if err != nil {
			t.Fatal(err)
		}
		if _, err := p.Estimate(ctx, MonteCarlo); err != nil {
			t.Fatal(err)
		}
		if _, err := p.Simulate(ctx); err != nil {
			t.Fatal(err)
		}
		if allocs := testing.AllocsPerRun(100, func() {
			if _, err := p.Estimate(ctx, MonteCarlo); err != nil {
				t.Fatal(err)
			}
			if _, err := p.Simulate(ctx); err != nil {
				t.Fatal(err)
			}
		}); allocs != 0 {
			t.Fatalf("%s: a repeated Monte Carlo and simulation request make %v allocations, want 0", st, allocs)
		}
	}
}
