package probdag

import (
	"context"
	"math"

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
// each drawn from its own deterministic sub-seeded stream and written
// into its own slice of the sample buffer. Chunks are executed by up to
// workers goroutines (0 means GOMAXPROCS) that share the graph's
// sampling kernel and own only its scratch (durations, finish times
// and the stream, reseeded per chunk), and because neither the chunk
// boundaries nor the sub-seeds depend on scheduling, the returned
// Summary is bit-identical for every worker count — the serial path is
// simply workers = 1. Cancellation is observed between chunks and
// reported as an error (the summary is meaningless in that case).
//
// A chunk's uniforms are the values rand.New(rand.NewSource(subseed))
// would return from Float64, in the same order: the stream (mcStream)
// reproduces math/rand's Int63 sequence, and a trial consumes one
// uniform per node in ID order, plus one more for each raw value that
// Float64 would draw again because it rounds to 1. So every sample is
// bit for bit the one the package drew through *rand.Rand. Most draws
// are settled on the raw integer (see mcKernel). The longest path is
// computed incrementally: the forward pass with every node at its
// first support value is done once per graph, and a trial recomputes
// finish times only from the first topological position whose draw
// left that value. Discrete keeps its support ascending, so the first
// value is the shortest and, for the paper's 2-state laws, the
// failure-free one that most draws land on; a trial with no deviation
// costs its draws alone. Exactness does not rest on that order: the
// recomputation resumes the running maximum of the untouched prefix,
// the same comparisons in the same order as a full pass, so every
// sample is bit-identical to the full pass's.
func MonteCarloSeededCtx(ctx context.Context, g *Graph, trials int, seed int64, workers int) (dist.Summary, error) {
	if trials <= 0 {
		return dist.Summary{}, nil
	}
	k := g.mustKernel()
	samples := make([]float64, trials)
	err := par.ForEachWithCtx(ctx, workers, par.Chunks(trials), k.newScratch,
		func(s *mcScratch, c int) error {
			lo, hi := par.ChunkBounds(c, trials)
			s.rng.seed(par.SubSeed(seed, c))
			k.fill(samples[lo:hi], s)
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
// threshold (+Inf for a point mass). ifirst[i] is that threshold on
// the raw stream: the least 63-bit x whose uniform float64(x)/2^63 is
// not below first[i], clamped to mcRedraw. So the common draw, one
// that stays on the first value, is the integer test x < ifirst[i];
// any other x takes the float path, which draws again while the
// uniform is 1, as rand.(*Rand).Float64 does, and then walks the
// thresholds. The clamp sends every raw value that rounds to 1, and
// every draw of a point mass, down that path. Everything else is
// indexed by topological position: pos maps a node ID to its position,
// and position q's predecessors are the positions pred[off[q]:off[q+1]],
// in the graph's Pred order.
type mcKernel struct {
	pos              []int32
	cut              []int32
	first, thr, vals []float64
	ifirst           []uint64
	off, pred        []int32
	// dur0 holds every node at its first support value and fin0 the
	// finish times of that forward pass; run0[q] is the running maximum
	// of fin0 over the positions before q, so run0[n] is its makespan.
	dur0, fin0, run0 []float64
}

// mcScratch is one goroutine's trial state: durations and finish times
// by topological position, equal to the kernel's dur0 and fin0 between
// trials, and the stream the trials draw from.
type mcScratch struct {
	dur, fin []float64
	rng      mcStream
}

// mcRedraw is the least 63-bit x with float64(x)/2^63 == 1: from it
// on, the conversion rounds up to 2^63 and Float64 draws again.
const mcRedraw = 1<<63 - 512

// rawThreshold returns the least x in [0, mcRedraw] for which
// float64(x)/2^63 < t is false, or mcRedraw if there is none below it.
// The uniform is monotone in x, so a binary search finds it.
func rawThreshold(t float64) uint64 {
	lo, hi := uint64(0), uint64(mcRedraw)
	for lo < hi {
		mid := lo + (hi-lo)/2
		if float64(mid)/(1<<63) < t {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	return lo
}

// newMCKernel flattens g. It fails if g is cyclic.
func newMCKernel(g *Graph) (*mcKernel, error) {
	order, err := g.TopoOrder()
	if err != nil {
		return nil, err
	}
	n := len(order)
	k := &mcKernel{
		pos:    make([]int32, n),
		cut:    make([]int32, n+1),
		first:  make([]float64, n),
		ifirst: make([]uint64, n),
		off:    make([]int32, n+1),
		dur0:   make([]float64, n),
		fin0:   make([]float64, n),
		run0:   make([]float64, n+1),
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
		k.ifirst[i] = rawThreshold(k.first[i])
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
	n := len(k.dur0)
	buf := make([]float64, 2*n)
	copy(buf, k.dur0)
	copy(buf[n:], k.fin0)
	return &mcScratch{dur: buf[:n:n], fin: buf[n:]}
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

// scanFirst computes the run's outputs in order (out[r] += lag[r]) up
// to the first whose raw value is not below its threshold in lim, and
// returns that one's index, or len(out) if there is none.
func scanFirst(out, lag, lim []uint64) int {
	lag, lim = lag[:len(out)], lim[:len(out)]
	for r := range out {
		out[r] += lag[r]
		if out[r]&mcMask >= lim[r] {
			return r
		}
	}
	return len(out)
}

// fill draws one makespan sample per out slot from s.rng, as seeded
// by the caller. A trial whose draws all land on first support values
// is the all-first-value makespan; any other recomputes the suffix from
// its first deviating position, resuming the prefix's running maximum,
// then restores that suffix. Draws are claimed from the stream in runs
// that end at the trial's end or the stream's half cycle; scanFirst
// computes each output as it reads it and stops at the first that
// needs the float path, so the common draw costs one add, one mask and
// one integer compare.
func (k *mcKernel) fill(out []float64, s *mcScratch) {
	n := len(k.pos)
	dur, fin, st := s.dur, s.fin, &s.rng
	for t := range out {
		from := n
		for i := 0; i < n; {
			run, lag := st.run(n - i)
			r := scanFirst(run, lag, k.ifirst[i:i+len(run)])
			i += r
			if r == len(run) {
				continue
			}
			// Draw r takes the float path. Hand back the unread rest of
			// the run: a redraw consumes the next output.
			st.p -= len(run) - r - 1
			u := float64(run[r]&mcMask) / (1 << 63)
			if u == 1 {
				u = st.float64()
			}
			if !(u < k.first[i]) {
				j, hi := int(k.cut[i])+1, int(k.cut[i+1])
				for j < hi && u >= k.thr[j] {
					j++
				}
				q := int(k.pos[i])
				dur[q] = k.vals[j+i]
				from = min(from, q)
			}
			i++
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
