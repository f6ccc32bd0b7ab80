package probdag

import (
	"context"
	"math/rand"
	"testing"

	"repro/internal/dist"
	"repro/internal/par"
)

// TestEvaluatorMatchesOneShotEstimators checks that repeated calls on
// one Evaluator stay bit-identical to one-shot estimates through a
// fresh Evaluator: buffer reuse must not leak state.
func TestEvaluatorMatchesOneShotEstimators(t *testing.T) {
	rng := rand.New(rand.NewSource(31))
	for trial := 0; trial < 10; trial++ {
		g := randomProbDAG(rng, 4+rng.Intn(20), 0.3)
		ev, err := NewEvaluator(g)
		if err != nil {
			t.Fatal(err)
		}
		for rep := 0; rep < 3; rep++ {
			if got, want := ev.PathApprox(), mustEvaluator(g).PathApprox(); got != want {
				t.Fatalf("trial %d rep %d: evaluator PathApprox %g != %g", trial, rep, got, want)
			}
			em, es := ev.NormalMoments()
			wm, ws := mustEvaluator(g).NormalMoments()
			if em != wm || es != ws {
				t.Fatalf("trial %d rep %d: evaluator Normal (%g,%g) != (%g,%g)", trial, rep, em, es, wm, ws)
			}
		}
		// Same seed => bit-identical Monte Carlo summaries.
		a := ev.MonteCarlo(500, 9)
		b := mustEvaluator(g).MonteCarlo(500, 9)
		if a != b {
			t.Fatalf("trial %d: evaluator MC %+v != %+v", trial, a, b)
		}
	}
}

func TestEvaluatorRejectsCycles(t *testing.T) {
	g, err := FromEdges([]*dist.Discrete{dist.Point(1), dist.Point(1)}, [][2]int{{0, 1}, {1, 0}})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := NewEvaluator(g); err == nil {
		t.Fatal("cyclic graph must be rejected")
	}
}

func TestEvaluatorEmptyGraph(t *testing.T) {
	g, err := FromEdges(nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	ev, err := NewEvaluator(g)
	if err != nil {
		t.Fatal(err)
	}
	if ev.PathApprox() != 0 || ev.Normal() != 0 {
		t.Fatal("empty graph estimates must be 0")
	}
	if s := ev.MonteCarlo(10, 1); s.Mean != 0 || s.N != 10 {
		t.Fatalf("empty graph MC: %+v", s)
	}
}

func TestMonteCarloSeededWorkerInvariance(t *testing.T) {
	rng := rand.New(rand.NewSource(41))
	g := randomProbDAG(rng, 12, 0.3)
	// Trials chosen to exercise several chunks plus a ragged final one.
	for _, trials := range []int{100, par.Chunk, 3*par.Chunk + 17} {
		serial, err := MonteCarloSeededCtx(context.Background(), g, trials, 7, 1)
		if err != nil {
			t.Fatal(err)
		}
		for _, workers := range []int{2, 4, 9} {
			fanned, err := MonteCarloSeededCtx(context.Background(), g, trials, 7, workers)
			if err != nil {
				t.Fatal(err)
			}
			if fanned != serial {
				t.Fatalf("trials=%d workers=%d: %+v != serial %+v", trials, workers, fanned, serial)
			}
		}
	}
}

func TestMonteCarloSeededMatchesLaw(t *testing.T) {
	g := chainGraph(6, 10, 15, 0.3)
	exact, ok := Exact(g, 1<<20)
	if !ok {
		t.Fatal("budget")
	}
	s, err := MonteCarloSeededCtx(context.Background(), g, 60000, 3, 4)
	if err != nil {
		t.Fatal(err)
	}
	if s.N != 60000 {
		t.Fatalf("N = %d", s.N)
	}
	if diff := s.Mean - exact; diff > 4*s.CI95+1e-9 || diff < -4*s.CI95-1e-9 {
		t.Fatalf("seeded MC %g ± %g vs exact %g", s.Mean, s.CI95, exact)
	}
	if z, err := MonteCarloSeededCtx(context.Background(), g, 0, 3, 4); err != nil || z != (dist.Summary{}) {
		t.Fatalf("0 trials: %+v, %v", z, err)
	}
}

func BenchmarkEvaluatorPathApproxReuse(b *testing.B) {
	rng := rand.New(rand.NewSource(5))
	g := randomProbDAG(rng, 400, 0.3)
	ev, err := NewEvaluator(g)
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		ev.PathApprox()
	}
}
