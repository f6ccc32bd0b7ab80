package probdag

import (
	"context"
	"math/rand"

	"repro/internal/dist"
	"repro/internal/par"
)

// MonteCarlo estimates the expected makespan by sampling: each trial
// draws every node duration independently from its distribution and
// computes the longest path. The paper uses 300,000 trials as the
// ground truth. The returned Summary includes a 95% confidence interval
// on the mean.
//
// MonteCarlo consumes rng sequentially, trial by trial, which pins it to
// a single goroutine; MonteCarloSeeded is the parallel form.
func MonteCarlo(g *Graph, trials int, rng *rand.Rand) dist.Summary {
	return mustEvaluator(g).MonteCarlo(trials, rng)
}

// MonteCarloSeeded estimates the expected makespan from trials samples
// split into fixed-size chunks (par.Chunk trials each), each drawn from
// its own deterministic sub-seeded generator and written into its own
// slice of the sample buffer. Chunks are executed by up to workers
// goroutines (0 means GOMAXPROCS) with one Evaluator of scratch per
// goroutine, and because neither the chunk boundaries nor the sub-seeds
// depend on scheduling, the returned Summary is bit-identical for every
// worker count — the serial path is simply workers = 1.
func MonteCarloSeeded(g *Graph, trials int, seed int64, workers int) dist.Summary {
	s, _ := MonteCarloSeededCtx(context.Background(), g, trials, seed, workers)
	return s
}

// MonteCarloSeededCtx is MonteCarloSeeded under a context: cancellation
// is observed between chunks and reported as an error (the summary is
// meaningless in that case).
func MonteCarloSeededCtx(ctx context.Context, g *Graph, trials int, seed int64, workers int) (dist.Summary, error) {
	if trials <= 0 {
		return dist.Summary{}, nil
	}
	samples := make([]float64, trials)
	// The graph is shared read-only; each goroutine gets its own scratch.
	err := par.ForEachWithCtx(ctx, workers, par.Chunks(trials),
		func() *Evaluator { return mustEvaluator(g) },
		func(ev *Evaluator, c int) error {
			lo, hi := par.ChunkBounds(c, trials)
			ev.mcFill(samples[lo:hi], rand.New(rand.NewSource(par.SubSeed(seed, c))))
			return nil
		})
	if err != nil {
		return dist.Summary{}, err
	}
	return dist.Summarize(samples), nil
}

// Exact computes the exact expected makespan by enumerating every joint
// realization of the node durations. The number of combinations is the
// product of support sizes; Exact returns ok=false when it exceeds
// maxCombos (use it only as a small-DAG test oracle).
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
