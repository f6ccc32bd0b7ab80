package probdag

import (
	"slices"

	"repro/internal/dist"
)

// Evaluator owns the scratch state the estimators need — the topological
// order plus top/bottom longest-path, deviation, moment and Monte Carlo
// trial buffers — so repeated evaluations of the same graph stop
// allocating. The experiment grids of §VI evaluate thousands of segment
// DAGs; the per-call slices of the naive implementations dominated
// their profile.
//
// An Evaluator is bound to the Graph it was built from, which must not
// gain nodes or edges afterwards. Evaluators are not safe for concurrent
// use; create one per goroutine (the graph itself may be shared — it is
// read-only to the estimators).
type Evaluator struct {
	g     *Graph
	order []NodeID

	base   []float64 // most likely duration per node
	top    []float64 // longest base path ending at v, inclusive
	bottom []float64 // longest base path starting at v, inclusive
	tails  []deviation

	mc      *mcScratch
	samples []float64

	normals []dist.Normal

	comb dist.Combiner // pooled combine scratch for Dodin
}

// deviation is one (node, non-base value) pair of the PathApprox sweep:
// the makespan rises to u with probability p.
type deviation struct{ u, p float64 }

// NewEvaluator prepares reusable scratch state for g. It fails if g is
// cyclic.
func NewEvaluator(g *Graph) (*Evaluator, error) {
	order, err := g.TopoOrder()
	if err != nil {
		return nil, err
	}
	n := g.Len()
	return &Evaluator{
		g:      g,
		order:  order,
		base:   make([]float64, n),
		top:    make([]float64, n),
		bottom: make([]float64, n),
	}, nil
}

// PathApprox implements the longest-path first-order approximation of
// the expected makespan (the reconstruction of the method of [23] that
// §VI-B selects as the method of choice).
//
// Writing M(x) for the makespan when node v lasts x_v, let b be the
// base (most likely) duration vector and M₀ = M(b). A single-node
// deviation only matters through the longest path crossing that node:
// with L_v the longest base-duration path through v, deviation (v, x)
// raises the makespan to U = L_v + (x − b_v) when U > M₀. Writing the
// expectation through the tail integral E[M] − M₀ = ∫ P(M > t) dt and
// union-bounding the tail by the sum of single-deviation tails,
//
//	E[M] ≈ M₀ + ∫_{M₀}^∞ min(1, Σ_{(v,x): U_{v,x} > t} P[X_v = x]) dt ,
//
// which expands to the plain first-order sum
// Σ p_{v,x}·(max(M₀, U_{v,x}) − M₀) whenever the deviation
// probabilities are small (error Θ(λ²), the same order as the paper's
// task-weight model), while the min(1, ·) clamp keeps the estimate
// below the all-deviations horizon when λ·n is no longer small —
// without it the additive form diverges in the high-failure panels.
// All L_v come from forward ("top") and backward ("bottom") longest-
// path sweeps; total cost O(V + E + D log D) for D deviation terms.
// Repeated calls reuse the Evaluator's buffers and do not allocate.
func (e *Evaluator) PathApprox() float64 {
	g := e.g
	n := g.Len()
	if n == 0 {
		return 0
	}
	base, top, bottom := e.base, e.top, e.bottom
	e.baseTop()
	for i := len(e.order) - 1; i >= 0; i-- {
		v := e.order[i]
		tail := 0.0
		for _, s := range g.succ[v] {
			if bottom[s] > tail {
				tail = bottom[s]
			}
		}
		bottom[v] = tail + base[int(v)]
	}
	m0 := 0.0
	for v := 0; v < n; v++ {
		if top[v] > m0 {
			m0 = top[v]
		}
	}

	// Collect deviation tails: each (node, non-base value) pair raises
	// the makespan to u with probability p when u > M₀.
	tails := e.tails[:0]
	for v := 0; v < n; v++ {
		lv := top[v] + bottom[v] - base[v] // longest base path through v
		vals, probs := g.dists[v].Support(), g.dists[v].Probs()
		for j := range vals {
			if vals[j] == base[v] {
				continue
			}
			if u := lv + (vals[j] - base[v]); u > m0 {
				tails = append(tails, deviation{u, probs[j]})
			}
		}
	}
	e.tails = tails
	if len(tails) == 0 {
		return m0
	}
	// Integrate min(1, Σ active p) from M₀ to the largest U: sweep the
	// endpoints in ascending order, shedding each tail's mass as t
	// passes its endpoint.
	slices.SortFunc(tails, func(a, b deviation) int {
		switch {
		case a.u < b.u:
			return -1
		case a.u > b.u:
			return 1
		default:
			return 0
		}
	})
	active := 0.0
	for _, tl := range tails {
		active += tl.p
	}
	em := m0
	t := m0
	for _, tl := range tails {
		w := active
		if w > 1 {
			w = 1
		}
		em += w * (tl.u - t)
		t = tl.u
		active -= tl.p
	}
	return em
}

// baseTop fills base with every node's base duration and top with the
// longest base path ending at each node.
func (e *Evaluator) baseTop() {
	g, base, top := e.g, e.base, e.top
	for i, d := range g.dists {
		base[i] = d.Base()
	}
	for _, v := range e.order {
		start := 0.0
		for _, p := range g.pred[v] {
			if top[p] > start {
				start = top[p]
			}
		}
		top[v] = start + base[int(v)]
	}
}

// NormalMoments returns the mean and standard deviation of the makespan
// under Sculli's method (Sculli 1983, as described by Canon & Jeannot
// 2016): every completion time is approximated by a normal
// distribution identified by its first two moments. In topological
// order, a node's start time is the maximum of its predecessors'
// completion times — maxima are folded pairwise with Clark's formulas
// assuming independence — and its completion time adds the node's
// duration moments. The makespan is the pairwise maximum over all sink
// completions. Repeated calls reuse the moment buffer.
func (e *Evaluator) NormalMoments() (mean, sigma float64) {
	g := e.g
	if len(e.order) == 0 {
		return 0, 0
	}
	if e.normals == nil {
		e.normals = make([]dist.Normal, g.Len())
	}
	completion := e.normals
	for _, v := range e.order {
		start := dist.PointNormal(0)
		for i, p := range g.pred[v] {
			if i == 0 {
				start = completion[p]
			} else {
				start = start.MaxClark(completion[p])
			}
		}
		completion[v] = start.AddN(dist.NormalFromDiscrete(g.dists[v]))
	}
	overall := dist.PointNormal(0)
	first := true
	for i := range g.succ {
		if len(g.succ[i]) == 0 {
			if first {
				overall = completion[i]
				first = false
			} else {
				overall = overall.MaxClark(completion[i])
			}
		}
	}
	return overall.Mu, overall.Sigma
}

// Normal returns Sculli's expected makespan.
func (e *Evaluator) Normal() float64 {
	m, _ := e.NormalMoments()
	return m
}

// Dodin estimates the expected makespan with Dodin's series-parallel
// approximation (Dodin 1985, as described by Möhring 2001 and Canon &
// Jeannot 2016), adapted to activity-on-node networks:
//
//   - serial reduction: a node v with a single predecessor u, where u has
//     a single successor, merges into u with the convolved distribution;
//   - parallel reduction: two nodes with identical predecessor and
//     successor sets merge into one with the max distribution (product of
//     CDFs — exact under independence);
//   - when the graph is not series-parallel reducible, a node with
//     in-degree >= 2 is duplicated, one copy per predecessor, and the
//     copies are treated as independent. This is the approximation step:
//     it preserves the set of paths but ignores the positive correlation
//     induced by the shared node, biasing the estimated maximum upward.
//
// Intermediate supports are quantized to MaxBins points. Dodin returns
// an error if the step budget is exhausted.
//
// Every reduction step folds two supports through the Evaluator's
// pooled dist.Combiner — a sorted-merge convolution for serial steps, a
// two-pointer max for parallel ones — so one scratch buffer serves
// every step of every call. Parallel passes only revisit the nodes
// whose neighbourhood changed since the previous one.
func (e *Evaluator) Dodin(opts DodinOptions) (float64, error) {
	d, err := e.DodinDistribution(opts)
	if err != nil {
		return 0, err
	}
	return d.Mean(), nil
}

// DodinDistribution is Dodin returning the full approximated makespan
// distribution.
func (e *Evaluator) DodinDistribution(opts DodinOptions) (*dist.Discrete, error) {
	return dodinDistribution(e.g, opts, &e.comb)
}

// MonteCarlo estimates the expected makespan from trials realizations
// drawn sequentially with the graph's incremental kernel (see
// MonteCarloSeededCtx), reusing the trial and sample buffers and the
// stream. The uniforms are those rand.New(rand.NewSource(seed)) would
// return from Float64, one stream for all trials, so a seed gives the
// same samples bit for bit as drawing through that generator.
// MonteCarloSeededCtx is the chunked, parallel form.
func (e *Evaluator) MonteCarlo(trials int, seed int64) dist.Summary {
	if trials <= 0 {
		return dist.Summary{}
	}
	if cap(e.samples) < trials {
		e.samples = make([]float64, trials)
	}
	samples := e.samples[:trials]
	k := e.g.mustKernel()
	if e.mc == nil {
		e.mc = k.newScratch()
	}
	e.mc.rng.seed(seed)
	k.fill(samples, e.mc)
	return dist.Summarize(samples)
}
