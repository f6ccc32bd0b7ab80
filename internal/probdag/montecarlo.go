package probdag

import (
	"context"
	"math"
	"math/rand"
	"slices"

	"repro/internal/dist"
	"repro/internal/par"
)

// MonteCarloSeededCtx estimates the expected makespan by sampling: each
// trial draws every node duration independently from its distribution
// and computes the longest path. The paper uses 300,000 trials as the
// ground truth. The returned Summary includes a 95% confidence interval
// on the mean.
//
// The trials are split into fixed-size chunks (par.Chunk trials each),
// each drawn from its own deterministic sub-seeded generator and written
// into its own slice of the sample buffer. Chunks are executed by up to
// workers goroutines (0 means GOMAXPROCS) that share the graph's
// sampling kernel and own only its duration and finish-time scratch,
// and because neither the chunk boundaries nor the sub-seeds depend on
// scheduling, the returned Summary is bit-identical for every worker
// count — the serial path is simply workers = 1. Cancellation is
// observed between chunks and reported as an error (the summary is
// meaningless in that case).
//
// A trial draws one uniform per node in ID order, the order the
// package has always consumed the generator in, so a given generator
// state yields the same samples bit for bit. The longest path is
// computed incrementally (see mcKernel): the forward pass with every
// node at its first support value is done once per graph, and a trial
// recomputes finish times only from the first topological position
// whose draw left that value. Discrete keeps its support ascending, so
// the first value is the shortest and, for the paper's 2-state laws,
// the failure-free one that most draws land on; a trial with no
// deviation costs its draws alone. Exactness does not rest on that
// order: the recomputation resumes the running maximum of the
// untouched prefix, the same comparisons in the same order as a full
// pass, so every sample is bit-identical to the full pass's.
func MonteCarloSeededCtx(ctx context.Context, g *Graph, trials int, seed int64, workers int) (dist.Summary, error) {
	if trials <= 0 {
		return dist.Summary{}, nil
	}
	k := g.mustKernel()
	samples := make([]float64, trials)
	err := par.ForEachWithCtx(ctx, workers, par.Chunks(trials), k.newScratch,
		func(s *mcScratch, c int) error {
			lo, hi := par.ChunkBounds(c, trials)
			k.fill(samples[lo:hi], rand.New(rand.NewSource(par.SubSeed(seed, c))), s)
			return nil
		})
	if err != nil {
		return dist.Summary{}, err
	}
	return dist.Summarize(samples), nil
}

// mcKernel is the flat form of a graph that Monte Carlo trials walk. It
// is immutable once built, and every goroutine sampling the graph
// shares it; each owns only an mcScratch.
//
// Per node, in ID order: node i's inverse-CDF thresholds are
// thr[cut[i]:cut[i+1]], the running sums of all but its last
// probability, accumulated as an inverse-CDF draw accumulates them, and its
// support is vals[cut[i]+i : cut[i+1]+i+1]. first[i] repeats its first
// threshold (+Inf for a point mass), so the common draw, one that
// stays on the first value, reads one float. Everything else is
// indexed by topological position: pos maps a node ID to its position,
// and position q's predecessors are the positions pred[off[q]:off[q+1]],
// in the graph's Pred order.
type mcKernel struct {
	pos              []int32
	cut              []int32
	first, thr, vals []float64
	off, pred        []int32
	// dur0 holds every node at its first support value and fin0 the
	// finish times of that forward pass; run0[q] is the running maximum
	// of fin0 over the positions before q, so run0[n] is its makespan.
	dur0, fin0, run0 []float64
}

// mcScratch is one goroutine's trial state: durations and finish times
// by topological position, equal to the kernel's dur0 and fin0 between
// trials.
type mcScratch struct{ dur, fin []float64 }

// newMCKernel flattens g. It fails if g is cyclic.
func newMCKernel(g *Graph) (*mcKernel, error) {
	order, err := g.TopoOrder()
	if err != nil {
		return nil, err
	}
	n := len(order)
	k := &mcKernel{
		pos:   make([]int32, n),
		cut:   make([]int32, n+1),
		first: make([]float64, n),
		off:   make([]int32, n+1),
		dur0:  make([]float64, n),
		fin0:  make([]float64, n),
		run0:  make([]float64, n+1),
	}
	for q, v := range order {
		k.pos[v] = int32(q)
		k.off[q+1] = k.off[q] + int32(len(g.pred[v]))
	}
	for i, d := range g.dists {
		k.cut[i+1] = k.cut[i] + int32(d.Len()-1)
	}
	k.thr = make([]float64, k.cut[n])
	k.vals = make([]float64, 0, int(k.cut[n])+n)
	for i, d := range g.dists {
		c := 0.0
		probs := d.Probs()
		for j, p := range probs[:len(probs)-1] {
			c += p
			k.thr[int(k.cut[i])+j] = c
		}
		k.first[i] = math.Inf(1)
		if k.cut[i] < k.cut[i+1] {
			k.first[i] = k.thr[k.cut[i]]
		}
		k.vals = append(k.vals, d.Support()...)
		k.dur0[k.pos[i]] = d.Min()
	}
	k.pred = make([]int32, 0, k.off[n])
	for _, v := range order {
		for _, p := range g.pred[v] {
			k.pred = append(k.pred, k.pos[p])
		}
	}
	k.forward(k.dur0, k.fin0, 0, 0)
	m := 0.0
	for q, f := range k.fin0 {
		k.run0[q] = m
		if f > m {
			m = f
		}
	}
	k.run0[n] = m
	return k, nil
}

// newScratch returns trial state at the all-first-value pass.
func (k *mcKernel) newScratch() *mcScratch {
	return &mcScratch{dur: slices.Clone(k.dur0), fin: slices.Clone(k.fin0)}
}

// forward recomputes fin from position from onward under dur and
// returns the running maximum of those finish times, started at m.
func (k *mcKernel) forward(dur, fin []float64, from int, m float64) float64 {
	for q := from; q < len(dur); q++ {
		start := 0.0
		for _, p := range k.pred[k.off[q]:k.off[q+1]] {
			if fin[p] > start {
				start = fin[p]
			}
		}
		fin[q] = start + dur[q]
		if fin[q] > m {
			m = fin[q]
		}
	}
	return m
}

// fill draws one makespan sample per out slot. A trial whose draws all
// land on first support values is the all-first-value makespan; any
// other recomputes the suffix from its first deviating position,
// resuming the prefix's running maximum, then restores that suffix.
func (k *mcKernel) fill(out []float64, rng *rand.Rand, s *mcScratch) {
	n := len(k.pos)
	dur, fin := s.dur, s.fin
	for t := range out {
		from := n
		for i := 0; i < n; i++ {
			u := rng.Float64()
			if u < k.first[i] {
				continue
			}
			j, hi := int(k.cut[i])+1, int(k.cut[i+1])
			for j < hi && u >= k.thr[j] {
				j++
			}
			q := int(k.pos[i])
			dur[q] = k.vals[j+i]
			from = min(from, q)
		}
		if from == n {
			out[t] = k.run0[n]
			continue
		}
		out[t] = k.forward(dur, fin, from, k.run0[from])
		copy(dur[from:], k.dur0[from:])
		copy(fin[from:], k.fin0[from:])
	}
}
