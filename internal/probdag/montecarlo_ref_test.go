package probdag

import (
	"context"
	"math"
	"math/rand"
	"testing"

	"repro/internal/dist"
	"repro/internal/par"
)

// refMakespan is the full forward pass the Monte Carlo sampler ran per
// trial before the incremental kernel: the longest path under durs, in
// the graph's topological order.
func refMakespan(g *Graph, order []NodeID, durs, finish []float64) float64 {
	max := 0.0
	for _, v := range order {
		start := 0.0
		for _, p := range g.pred[v] {
			if finish[p] > start {
				start = finish[p]
			}
		}
		finish[v] = start + durs[int(v)]
		if finish[v] > max {
			max = finish[v]
		}
	}
	return max
}

// sample maps a uniform variate u in [0, 1) onto d's support by
// inverse CDF, accumulating the probabilities in support order.
func sample(d *dist.Discrete, u float64) float64 {
	c := 0.0
	vals := d.Support()
	for i, p := range d.Probs() {
		c += p
		if u < c {
			return vals[i]
		}
	}
	return vals[len(vals)-1]
}

// refMCFill is the sampler the incremental kernel replaced: every trial
// draws every node through sample, in ID order, and recomputes the
// whole longest path.
func refMCFill(g *Graph, out []float64, rng *rand.Rand) {
	order, err := g.TopoOrder()
	if err != nil {
		panic(err)
	}
	n := g.Len()
	durs, finish := make([]float64, n), make([]float64, n)
	for t := range out {
		for i := 0; i < n; i++ {
			durs[i] = sample(g.dists[i], rng.Float64())
		}
		out[t] = refMakespan(g, order, durs, finish)
	}
}

// refMonteCarloSeeded is MonteCarloSeededCtx on the reference sampler,
// chunk by chunk on one goroutine.
func refMonteCarloSeeded(g *Graph, trials int, seed int64) dist.Summary {
	samples := make([]float64, trials)
	for c := 0; c < par.Chunks(trials); c++ {
		lo, hi := par.ChunkBounds(c, trials)
		refMCFill(g, samples[lo:hi], rand.New(rand.NewSource(par.SubSeed(seed, c))))
	}
	return dist.Summarize(samples)
}

// randomLaw returns a point mass, a 2-state law or a 3-4 state law.
// Some of the multi-state laws have probabilities that, summed the way
// sample sums them, stay below 1, so the last support value
// is also reached by falling off the end.
func randomLaw(rng *rand.Rand) *dist.Discrete {
	base := 1 + 9*rng.Float64()
	switch rng.Intn(4) {
	case 0:
		return dist.Point(base)
	case 1:
		return dist.TwoState(base, base*(1+rng.Float64()), 0.02+0.5*rng.Float64())
	}
	k := 3 + rng.Intn(2)
	vals, probs := make([]float64, k), make([]float64, k)
	for j := range vals {
		// Integer-valued supports make ties between finish times, so the
		// running maximum sees equal values from different paths.
		vals[j] = math.Floor(base + 4*rng.Float64())
		probs[j] = 0.05 + rng.Float64()
	}
	return dist.New(vals, probs)
}

// belowOne reports whether d's probabilities, accumulated as sample
// accumulates them, sum to less than 1.
func belowOne(d *dist.Discrete) bool {
	c := 0.0
	for _, p := range d.Probs() {
		c += p
	}
	return c < 1
}

// randomShuffledDAG returns a DAG on n nodes whose edges follow a random
// permutation of the IDs, so the topological order is not ID order.
func randomShuffledDAG(rng *rand.Rand, n int, p float64) *Graph {
	dists := make([]*dist.Discrete, n)
	for i := range dists {
		dists[i] = randomLaw(rng)
	}
	perm := rng.Perm(n)
	var edges [][2]int
	for a := 0; a < n; a++ {
		for b := a + 1; b < n; b++ {
			if rng.Float64() < p {
				edges = append(edges, [2]int{perm[a], perm[b]})
			}
		}
	}
	rng.Shuffle(len(edges), func(i, j int) { edges[i], edges[j] = edges[j], edges[i] })
	g, err := FromEdges(dists, edges)
	if err != nil {
		panic(err)
	}
	return g
}

// streamSource reads an mcStream through math/rand's Source
// interface, so the reference sampler can draw, through
// rand.(*Rand).Float64, the very raw values a hand-written stream
// holds. The stream itself is pinned to math/rand by
// TestMCStreamMatchesMathRand.
type streamSource struct{ st *mcStream }

func (s streamSource) Int63() int64 { return int64(s.st.int63()) }

func (s streamSource) Seed(int64) { panic("streamSource: Seed") }

// edgeValues lists raw 63-bit values on the inverse-CDF boundaries of
// g's laws: for each threshold c below 1, c·2^63 and that value minus
// 1 024, and the kernel's integer threshold and the value below it;
// then the bounds of the 63-bit range, the largest value whose uniform
// is below 1 and the values Float64 draws again.
func edgeValues(g *Graph) []uint64 {
	edges := []uint64{0, 1, mcRedraw - 1, mcRedraw, mcMask}
	for _, d := range g.dists {
		c := 0.0
		for _, p := range d.Probs() {
			c += p
			if c < 1 {
				x := uint64(c * (1 << 63))
				edges = append(edges, x, x-1024)
			}
			if x := rawThreshold(c); x > 0 {
				edges = append(edges, x, x-1)
			}
		}
	}
	return edges
}

// writeEdgeCycle makes the stream's next 607 raw values hand-written:
// a third of them drawn from edges, the rest from rng, each with a
// random top bit, which Int63 masks off.
func writeEdgeCycle(st *mcStream, edges []uint64, rng *rand.Rand) {
	for j := range st.reg {
		x := rng.Uint64()
		if rng.Intn(3) == 0 {
			x = edges[rng.Intn(len(edges))] | x&^mcMask
		}
		st.reg[j] = x
	}
	st.replay()
}

// TestMonteCarloMatchesReference checks the incremental kernel against
// the full-pass sampler it replaced, trial by trial, bit for bit: on
// random DAGs of 1-150 nodes whose IDs are not in topological order,
// with point masses, 2-state and 3-4 state laws (some summing below 1).
// The kernel draws from its stream, the reference through
// rand.(*Rand).Float64: from rand.NewSource(seed), and from hand-written
// cycles whose raw values land on the laws' boundaries and on the
// values Float64 draws again. The kernel must also consume exactly the
// draws the reference does.
func TestMonteCarloMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(77))
	sawBelowOne := false
	for trial := 0; trial < 120; trial++ {
		n := 1 + rng.Intn(150)
		if trial < 10 {
			n = 1 + trial
		}
		g := randomShuffledDAG(rng, n, 4/float64(n+1))
		for _, d := range g.dists {
			sawBelowOne = sawBelowOne || belowOne(d)
		}
		k := g.mustKernel()
		s := k.newScratch()
		const trials = 300
		check := func(src string, got, want []float64) {
			t.Helper()
			for i := range want {
				if math.Float64bits(got[i]) != math.Float64bits(want[i]) {
					t.Fatalf("graph %d (n=%d) %s trial %d: kernel %v, reference %v", trial, n, src, i, got[i], want[i])
				}
			}
		}

		got, want := make([]float64, trials), make([]float64, trials)
		seed := int64(trial)
		s.rng.seed(seed)
		k.fill(got, s)
		refMCFill(g, want, rand.New(rand.NewSource(seed)))
		check("seeded", got, want)

		edges := edgeValues(g)
		per := max(1, mcLen/n) // trials per hand-written cycle
		for lo := 0; lo < trials; lo += per {
			hi := min(trials, lo+per)
			writeEdgeCycle(&s.rng, edges, rng)
			ref := s.rng
			k.fill(got[lo:hi], s)
			refMCFill(g, want[lo:hi], rand.New(streamSource{&ref}))
			if s.rng.p != ref.p || s.rng.reg != ref.reg {
				t.Fatalf("graph %d (n=%d) trials [%d,%d): kernel stopped at draw %d, reference at %d", trial, n, lo, hi, s.rng.p, ref.p)
			}
		}
		check("edges", got, want)
	}
	if !sawBelowOne {
		t.Fatal("no law with probabilities summing below 1 was generated")
	}
}

// TestEvaluatorMonteCarloMatchesReference checks the one-stream entry
// point: Evaluator.MonteCarlo(trials, seed) summarizes exactly the
// samples the reference draws from rand.New(rand.NewSource(seed)),
// across several stream cycles per call and with the Evaluator's
// stream reseeded between calls.
func TestEvaluatorMonteCarloMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	for trial := 0; trial < 6; trial++ {
		g := randomShuffledDAG(rng, 5+rng.Intn(60), 0.1)
		ev := mustEvaluator(g)
		for _, seed := range []int64{int64(trial), -int64(trial) - 1} {
			want := make([]float64, 700)
			refMCFill(g, want, rand.New(rand.NewSource(seed)))
			if got := ev.MonteCarlo(len(want), seed); got != dist.Summarize(want) {
				t.Fatalf("graph %d seed %d: %+v, reference %+v", trial, seed, got, dist.Summarize(want))
			}
		}
	}
}

// TestMonteCarloSeededMatchesReference checks the chunked entry point,
// for several worker counts, against the reference sampler's summary.
func TestMonteCarloSeededMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	for trial := 0; trial < 4; trial++ {
		g := randomShuffledDAG(rng, 20+rng.Intn(60), 0.08)
		trials := 2*par.Chunk + 123
		want := refMonteCarloSeeded(g, trials, int64(trial))
		for _, workers := range []int{1, 3} {
			got, err := MonteCarloSeededCtx(context.Background(), g, trials, int64(trial), workers)
			if err != nil {
				t.Fatal(err)
			}
			if got != want {
				t.Fatalf("graph %d workers %d: %+v, reference %+v", trial, workers, got, want)
			}
		}
	}
}
