package probdag

import (
	"math"
	"math/rand"
	"slices"
	"testing"
	"testing/quick"

	"repro/internal/dist"
)

// mustEvaluator returns a fresh Evaluator for g, so that an estimate
// through it is a one-shot estimate. It panics if g is cyclic.
func mustEvaluator(g *Graph) *Evaluator {
	e, err := NewEvaluator(g)
	if err != nil {
		panic(err)
	}
	return e
}

// Exact is the small-DAG oracle: the exact expected makespan, by
// enumerating every joint realization of the node durations. The
// number of combinations is the product of support sizes; Exact returns
// ok=false when it exceeds maxCombos.
func Exact(g *Graph, maxCombos int) (mean float64, ok bool) {
	combos := 1
	for _, d := range g.dists {
		combos *= d.Len()
		if combos > maxCombos {
			return 0, false
		}
	}
	order, err := g.TopoOrder()
	if err != nil {
		panic(err)
	}
	n := g.Len()
	durs := make([]float64, n)
	finish := make([]float64, n)
	var rec func(i int, p float64)
	total := 0.0
	rec = func(i int, p float64) {
		if i == n {
			max := 0.0
			for _, v := range order {
				start := 0.0
				for _, pr := range g.pred[v] {
					if finish[pr] > start {
						start = finish[pr]
					}
				}
				finish[v] = start + durs[int(v)]
				if finish[v] > max {
					max = finish[v]
				}
			}
			total += p * max
			return
		}
		vals, probs := g.dists[i].Support(), g.dists[i].Probs()
		for j := range vals {
			durs[i] = vals[j]
			rec(i+1, p*probs[j])
		}
	}
	rec(0, 1)
	return total, true
}

func TestExactSingleNode(t *testing.T) {
	var b graphBuilder
	b.node(dist.TwoState(10, 15, 0.2))
	mean, ok := Exact(b.graph(), 1<<20)
	if !ok {
		t.Fatal("exact must handle one node")
	}
	if want := 0.8*10 + 0.2*15; math.Abs(mean-want) > 1e-12 {
		t.Fatalf("exact = %g, want %g", mean, want)
	}
}

func TestExactChainIsSumOfMeans(t *testing.T) {
	g := chainGraph(6, 10, 15, 0.3)
	mean, ok := Exact(g, 1<<20)
	if !ok {
		t.Fatal("exact budget")
	}
	want := 6 * (0.7*10 + 0.3*15)
	if math.Abs(mean-want) > 1e-9 {
		t.Fatalf("chain exact = %g, want %g", mean, want)
	}
}

func TestExactRefusesHugeDAGs(t *testing.T) {
	g := chainGraph(40, 1, 2, 0.5)
	if _, ok := Exact(g, 1000); ok {
		t.Fatal("must refuse 2^40 combinations")
	}
}

func TestExactDiamondByHand(t *testing.T) {
	// Deterministic a and d; b, c two-state. Makespan = a + max(b, c) + d.
	b := dist.TwoState(2, 4, 0.5)
	c := dist.TwoState(3, 5, 0.5)
	g := diamondGraph(dist.Point(1), b, c, dist.Point(1))
	mean, ok := Exact(g, 1<<20)
	if !ok {
		t.Fatal("budget")
	}
	// max(b,c): (2,3)->3, (2,5)->5, (4,3)->4, (4,5)->5, each 1/4.
	want := 1 + (3+5+4+5)/4.0 + 1
	if math.Abs(mean-want) > 1e-12 {
		t.Fatalf("exact diamond = %g, want %g", mean, want)
	}
}

func TestMonteCarloMatchesExact(t *testing.T) {
	rng := rand.New(rand.NewSource(13))
	for trial := 0; trial < 10; trial++ {
		g := randomProbDAG(rng, 8, 0.3)
		exact, ok := Exact(g, 1<<20)
		if !ok {
			t.Fatal("budget")
		}
		mc := mustEvaluator(g).MonteCarlo(60000, int64(trial))
		if math.Abs(mc.Mean-exact) > 4*mc.CI95+1e-9 {
			t.Fatalf("trial %d: MC %g ± %g vs exact %g", trial, mc.Mean, mc.CI95, exact)
		}
	}
}

func TestPathApproxExactToFirstOrder(t *testing.T) {
	// For small p the error of PathApprox vs Exact must shrink like p².
	rng := rand.New(rand.NewSource(19))
	g0 := randomProbDAG(rng, 9, 0.25)
	rebuild := func(p float64) *Graph {
		var b graphBuilder
		for i := 0; i < g0.Len(); i++ {
			base := g0.dists[i].Min()
			b.node(dist.TwoState(base, 1.5*base, p))
		}
		for i := 0; i < g0.Len(); i++ {
			for _, s := range g0.succ[i] {
				b.edge(NodeID(i), s)
			}
		}
		return b.graph()
	}
	var prevErr float64
	for i, p := range []float64{0.1, 0.01, 0.001} {
		g := rebuild(p)
		exact, ok := Exact(g, 1<<20)
		if !ok {
			t.Fatal("budget")
		}
		err := math.Abs(mustEvaluator(g).PathApprox() - exact)
		if i > 0 && prevErr > 1e-12 {
			// Error should fall at least ~50x for a 10x drop in p (p² scaling,
			// with slack).
			if err > prevErr/20 {
				t.Fatalf("PathApprox error not second-order: p=%g err=%g, prev=%g", p, err, prevErr)
			}
		}
		prevErr = err
	}
}

func TestPathApproxAtLeastCriticalPath(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		g := randomProbDAG(rng, 3+rng.Intn(20), 0.3)
		return mustEvaluator(g).PathApprox() >= g.MakespanGiven(g.BaseDurations())-1e-9
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}

func TestPathApproxChainClosedForm(t *testing.T) {
	// Chain of n identical 2-state tasks: E[M] = n·b + n·p·(i−b) exactly
	// (each inflation adds independently on a chain).
	g := chainGraph(7, 10, 15, 0.01)
	want := 7*10 + 7*0.01*5
	if got := mustEvaluator(g).PathApprox(); math.Abs(got-want) > 1e-9 {
		t.Fatalf("chain PathApprox = %g, want %g", got, want)
	}
	// And the chain case is *exact*: every inflation contributes linearly.
	exact, _ := Exact(g, 1<<20)
	if math.Abs(exact-want) > 1e-9 {
		t.Fatalf("chain exact = %g, want %g", exact, want)
	}
}

func TestNormalChain(t *testing.T) {
	// On a pure chain Sculli is exact for the mean (sum of means).
	g := chainGraph(9, 10, 15, 0.2)
	want := 9 * (0.8*10 + 0.2*15)
	if got := mustEvaluator(g).Normal(); math.Abs(got-want) > 1e-9 {
		t.Fatalf("Sculli chain = %g, want %g", got, want)
	}
}

func TestNormalUpwardBiasOnWideJoin(t *testing.T) {
	// Sculli/Clark is exact-ish for 2 branches and biased for many; it
	// must at least exceed the base critical path and stay sane.
	var b graphBuilder
	src := b.node(dist.Point(0))
	sink := b.node(dist.Point(0))
	for i := 0; i < 20; i++ {
		n := b.node(dist.TwoState(10, 15, 0.1))
		b.edge(src, n)
		b.edge(n, sink)
	}
	g := b.graph()
	exact := mustEvaluator(g).MonteCarlo(200000, 1).Mean
	got := mustEvaluator(g).Normal()
	if got < 10 || got > 16 {
		t.Fatalf("Sculli wide join = %g out of range", got)
	}
	// Known bias direction for max of many variables via pairwise Clark
	// maxima: do not assert tightly, just closeness.
	if math.Abs(got-exact) > 2.5 {
		t.Fatalf("Sculli too far from MC: %g vs %g", got, exact)
	}
}

func TestDodinExactOnSeriesParallel(t *testing.T) {
	// A pure series-parallel DAG reduces without duplication, so Dodin
	// (with ample bins) is exact.
	b := dist.TwoState(2, 4, 0.5)
	c := dist.TwoState(3, 5, 0.5)
	g := diamondGraph(dist.Point(1), b, c, dist.Point(1))
	got, err := mustEvaluator(g).Dodin(DodinOptions{MaxBins: 1024})
	if err != nil {
		t.Fatal(err)
	}
	want, _ := Exact(g, 1<<20)
	if math.Abs(got-want) > 1e-9 {
		t.Fatalf("Dodin SP = %g, want %g", got, want)
	}
}

func TestDodinChainExact(t *testing.T) {
	g := chainGraph(5, 10, 15, 0.25)
	got, err := mustEvaluator(g).Dodin(DodinOptions{MaxBins: 4096})
	if err != nil {
		t.Fatal(err)
	}
	want, _ := Exact(g, 1<<20)
	if math.Abs(got-want) > 1e-9 {
		t.Fatalf("Dodin chain = %g, want %g", got, want)
	}
}

func TestDodinHandlesNonSP(t *testing.T) {
	// The N-graph needs a duplication step.
	law := dist.TwoState(1, 2, 0.3)
	g, err := FromEdges([]*dist.Discrete{law, law, law, law}, [][2]int{{0, 2}, {1, 2}, {1, 3}})
	if err != nil {
		t.Fatal(err)
	}
	got, err := mustEvaluator(g).Dodin(DodinOptions{MaxBins: 512})
	if err != nil {
		t.Fatal(err)
	}
	exact, _ := Exact(g, 1<<20)
	// Duplication assumes independence: upward bias, bounded.
	if got < exact-1e-9 {
		t.Fatalf("Dodin must not underestimate the N-graph: %g < %g", got, exact)
	}
	if got > exact*1.2 {
		t.Fatalf("Dodin bias too large: %g vs %g", got, exact)
	}
}

func TestDodinRandomAgainstExact(t *testing.T) {
	rng := rand.New(rand.NewSource(29))
	for trial := 0; trial < 12; trial++ {
		g := randomProbDAG(rng, 9, 0.3)
		got, err := mustEvaluator(g).Dodin(DodinOptions{MaxBins: 256})
		if err != nil {
			t.Fatal(err)
		}
		exact, ok := Exact(g, 1<<20)
		if !ok {
			t.Fatal("budget")
		}
		if dist.RelErr(got, exact) > 0.15 {
			t.Fatalf("trial %d: Dodin %g vs exact %g", trial, got, exact)
		}
	}
}

// TestDodinDeterministic pins the reducer's determinism after the
// sorted-slice rewrite: repeated reductions of one graph — through a
// fresh Evaluator, and through a reused Evaluator whose convolution
// pool has already served other graphs — must return the bit-identical
// distribution.
func TestDodinDeterministic(t *testing.T) {
	rng := rand.New(rand.NewSource(59))
	for trial := 0; trial < 8; trial++ {
		g := randomProbDAG(rng, 12, 0.4)
		want, err := mustEvaluator(g).DodinDistribution(DodinOptions{})
		if err != nil {
			t.Fatal(err)
		}
		ev, err := NewEvaluator(g)
		if err != nil {
			t.Fatal(err)
		}
		for rep := 0; rep < 3; rep++ {
			got, err := ev.DodinDistribution(DodinOptions{})
			if err != nil {
				t.Fatal(err)
			}
			if !slices.Equal(got.Support(), want.Support()) || !slices.Equal(got.Probs(), want.Probs()) {
				t.Fatalf("trial %d rep %d: reused evaluator's Dodin diverged from a fresh one's", trial, rep)
			}
		}
	}
}

func TestDodinBudgetError(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	g := randomProbDAG(rng, 30, 0.5)
	if _, err := mustEvaluator(g).Dodin(DodinOptions{Budget: 3}); err == nil {
		t.Fatal("tiny budget must error")
	}
}

func TestDodinEmptyGraph(t *testing.T) {
	g, err := FromEdges(nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	d, err := mustEvaluator(g).DodinDistribution(DodinOptions{})
	if err != nil || d.Mean() != 0 {
		t.Fatalf("empty graph: %v, %v", d, err)
	}
}

func TestEstimatorsOnPointDistributions(t *testing.T) {
	// All estimators agree with the deterministic critical path.
	g := diamondGraph(dist.Point(1), dist.Point(2), dist.Point(3), dist.Point(4))
	want := 8.0
	if got := mustEvaluator(g).PathApprox(); got != want {
		t.Fatalf("PathApprox = %g", got)
	}
	if got := mustEvaluator(g).Normal(); math.Abs(got-want) > 1e-9 {
		t.Fatalf("Normal = %g", got)
	}
	if got, err := mustEvaluator(g).Dodin(DodinOptions{}); err != nil || math.Abs(got-want) > 1e-9 {
		t.Fatalf("Dodin = %g, %v", got, err)
	}
	mc := mustEvaluator(g).MonteCarlo(100, 1)
	if mc.Mean != want || mc.StdDev != 0 {
		t.Fatalf("MC = %+v", mc)
	}
}

// All four estimators within tolerance of exact on random small DAGs.
func TestEstimatorConsistencyProperty(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		g := randomProbDAG(rng, 4+rng.Intn(6), 0.35)
		exact, ok := Exact(g, 1<<22)
		if !ok {
			return true // skip
		}
		pa := mustEvaluator(g).PathApprox()
		no := mustEvaluator(g).Normal()
		do, err := mustEvaluator(g).Dodin(DodinOptions{MaxBins: 128})
		if err != nil {
			return false
		}
		return dist.RelErr(pa, exact) < 0.2 && dist.RelErr(no, exact) < 0.2 && dist.RelErr(do, exact) < 0.2
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 25}); err != nil {
		t.Fatal(err)
	}
}

// The clamped union-bound PathApprox is bracketed by the base critical
// path and the all-inflated makespan, and reduces to the plain
// first-order sum when the total deviation mass is below 1.
func TestPathApproxBounds(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		g := randomProbDAG(rng, 3+rng.Intn(25), 0.3)
		pa := mustEvaluator(g).PathApprox()
		if pa < g.MakespanGiven(g.BaseDurations())-1e-9 {
			return false
		}
		// Upper bound: every node at its maximum.
		upper := make([]float64, g.Len())
		for i := 0; i < g.Len(); i++ {
			upper[i] = g.dists[i].Max()
		}
		return pa <= g.MakespanGiven(upper)+1e-9
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 80}); err != nil {
		t.Fatal(err)
	}
}

func TestPathApproxMatchesPlainSumAtLowMass(t *testing.T) {
	// With tiny per-node probabilities the clamp is inactive and the
	// estimate equals the unclamped first-order sum computed by hand.
	rng := rand.New(rand.NewSource(71))
	for trial := 0; trial < 20; trial++ {
		var b graphBuilder
		n := 3 + rng.Intn(10)
		for i := 0; i < n; i++ {
			base := 1 + 9*rng.Float64()
			b.node(dist.TwoState(base, 1.5*base, 1e-4*rng.Float64()))
		}
		for i := 0; i < n; i++ {
			for j := i + 1; j < n; j++ {
				if rng.Float64() < 0.3 {
					b.edge(NodeID(i), NodeID(j))
				}
			}
		}
		g := b.graph()
		// Hand computation of the plain first-order sum.
		base := g.BaseDurations()
		m0 := g.MakespanGiven(base)
		sum := m0
		for v := 0; v < n; v++ {
			durs := append([]float64(nil), base...)
			vals, probs := g.dists[v].Support(), g.dists[v].Probs()
			for j := range vals {
				if vals[j] == base[v] {
					continue
				}
				durs[v] = vals[j]
				mv := g.MakespanGiven(durs)
				if mv < m0 {
					mv = m0
				}
				sum += probs[j] * (mv - m0)
				durs[v] = base[v]
			}
		}
		if got := mustEvaluator(g).PathApprox(); math.Abs(got-sum) > 1e-9*math.Max(1, sum) {
			t.Fatalf("trial %d: PathApprox %g vs plain sum %g", trial, got, sum)
		}
	}
}

// Monotonicity: raising a single node's deviation probability never
// decreases the estimate.
func TestPathApproxMonotoneInProbability(t *testing.T) {
	rng := rand.New(rand.NewSource(73))
	for trial := 0; trial < 20; trial++ {
		n := 4 + rng.Intn(8)
		edges := [][2]int{}
		for i := 0; i < n; i++ {
			for j := i + 1; j < n; j++ {
				if rng.Float64() < 0.3 {
					edges = append(edges, [2]int{i, j})
				}
			}
		}
		build := func(pv float64, target int) *Graph {
			var b graphBuilder
			for i := 0; i < n; i++ {
				p := 0.05
				if i == target {
					p = pv
				}
				b.node(dist.TwoState(10, 15, p))
			}
			b.edges = edges
			return b.graph()
		}
		target := rng.Intn(n)
		prev := -1.0
		for _, p := range []float64{0.01, 0.05, 0.2, 0.5} {
			got := mustEvaluator(build(p, target)).PathApprox()
			if got < prev-1e-9 {
				t.Fatalf("trial %d: estimate fell from %g to %g as p rose", trial, prev, got)
			}
			prev = got
		}
	}
}
