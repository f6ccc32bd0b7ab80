package probdag

import (
	"math/rand"
	"testing"

	"repro/internal/dist"
	"repro/internal/par"
)

func TestEvaluatorMatchesOneShotEstimators(t *testing.T) {
	rng := rand.New(rand.NewSource(31))
	for trial := 0; trial < 10; trial++ {
		g := randomProbDAG(rng, 4+rng.Intn(20), 0.3)
		ev, err := NewEvaluator(g)
		if err != nil {
			t.Fatal(err)
		}
		// Repeated calls on the same evaluator stay bit-identical to the
		// one-shot functions (buffer reuse must not leak state).
		for rep := 0; rep < 3; rep++ {
			if got, want := ev.PathApprox(), PathApprox(g); got != want {
				t.Fatalf("trial %d rep %d: evaluator PathApprox %g != %g", trial, rep, got, want)
			}
			em, es := ev.NormalMoments()
			wm, ws := NormalMoments(g)
			if em != wm || es != ws {
				t.Fatalf("trial %d rep %d: evaluator Normal (%g,%g) != (%g,%g)", trial, rep, em, es, wm, ws)
			}
			if got, want := ev.CriticalPathBase(), CriticalPathBase(g); got != want {
				t.Fatalf("trial %d rep %d: evaluator CPB %g != %g", trial, rep, got, want)
			}
		}
		// Same rng state => bit-identical Monte Carlo summaries.
		a := ev.MonteCarlo(500, rand.New(rand.NewSource(9)))
		b := MonteCarlo(g, 500, rand.New(rand.NewSource(9)))
		if a != b {
			t.Fatalf("trial %d: evaluator MC %+v != %+v", trial, a, b)
		}
	}
}

func TestEvaluatorRejectsCycles(t *testing.T) {
	g := NewGraph()
	a := g.AddNode(dist.Point(1))
	b := g.AddNode(dist.Point(1))
	g.AddEdge(a, b)
	g.AddEdge(b, a)
	if _, err := NewEvaluator(g); err == nil {
		t.Fatal("cyclic graph must be rejected")
	}
}

func TestEvaluatorEmptyGraph(t *testing.T) {
	ev, err := NewEvaluator(NewGraph())
	if err != nil {
		t.Fatal(err)
	}
	if ev.PathApprox() != 0 || ev.Normal() != 0 {
		t.Fatal("empty graph estimates must be 0")
	}
	if s := ev.MonteCarlo(10, rand.New(rand.NewSource(1))); s.Mean != 0 || s.N != 10 {
		t.Fatalf("empty graph MC: %+v", s)
	}
}

func TestMonteCarloSeededWorkerInvariance(t *testing.T) {
	rng := rand.New(rand.NewSource(41))
	g := randomProbDAG(rng, 12, 0.3)
	// Trials chosen to exercise several chunks plus a ragged final one.
	for _, trials := range []int{100, par.Chunk, 3*par.Chunk + 17} {
		serial := MonteCarloSeeded(g, trials, 7, 1)
		for _, workers := range []int{2, 4, 9} {
			fanned := MonteCarloSeeded(g, trials, 7, workers)
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
	s := MonteCarloSeeded(g, 60000, 3, 4)
	if s.N != 60000 {
		t.Fatalf("N = %d", s.N)
	}
	if diff := s.Mean - exact; diff > 4*s.CI95+1e-9 || diff < -4*s.CI95-1e-9 {
		t.Fatalf("seeded MC %g ± %g vs exact %g", s.Mean, s.CI95, exact)
	}
	if z := MonteCarloSeeded(g, 0, 3, 4); z != (dist.Summary{}) {
		t.Fatalf("0 trials: %+v", z)
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
