package probdag

import (
	"math/rand"
	"slices"

	"repro/internal/dist"
)

// Evaluator owns the scratch state the estimators need — the topological
// order plus top/bottom longest-path, duration, finish-time, deviation
// and moment buffers — so repeated evaluations of the same graph stop
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

	durs    []float64
	finish  []float64
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
		durs:   make([]float64, n),
		finish: make([]float64, n),
	}, nil
}

// mustEvaluator backs the package-level one-shot wrappers, which keep
// the historical panic-on-cycle contract.
func mustEvaluator(g *Graph) *Evaluator {
	e, err := NewEvaluator(g)
	if err != nil {
		panic(err)
	}
	return e
}

// makespan computes the longest path under the given durations, reusing
// the finish buffer. durs must have one entry per node.
func (e *Evaluator) makespan(durs []float64) float64 {
	g, finish := e.g, e.finish
	max := 0.0
	for _, v := range e.order {
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

// PathApprox is the allocation-free form of the package-level PathApprox
// (see pathapprox.go for the derivation of the clamped first-order
// tail-integral estimate).
func (e *Evaluator) PathApprox() float64 {
	g := e.g
	n := g.Len()
	if n == 0 {
		return 0
	}
	base, top, bottom := e.base, e.top, e.bottom
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

// CriticalPathBase returns the makespan with every node at its base
// duration, without allocating.
func (e *Evaluator) CriticalPathBase() float64 {
	for i, d := range e.g.dists {
		e.durs[i] = d.Base()
	}
	return e.makespan(e.durs)
}

// NormalMoments is the reusable-buffer form of the package-level
// NormalMoments (Sculli's method).
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

// Dodin runs Dodin's series-parallel reduction with the Evaluator's
// pooled dist.Combiner: every serial (convolution) and parallel (max)
// step of every call reuses one scratch buffer, so repeated estimates of
// segment DAGs stop paying the per-step allocations the one-shot path
// does. Results are bit-identical to the package-level Dodin.
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

// MonteCarlo estimates the expected makespan by sampling trials
// realizations from rng, reusing the duration/finish/sample buffers. The
// sampling order is identical to the historical package-level MonteCarlo,
// so a given (graph, rng state) pair yields bit-identical summaries.
func (e *Evaluator) MonteCarlo(trials int, rng *rand.Rand) dist.Summary {
	if trials <= 0 {
		return dist.Summary{}
	}
	if cap(e.samples) < trials {
		e.samples = make([]float64, trials)
	}
	samples := e.samples[:trials]
	e.mcFill(samples, rng)
	return dist.Summarize(samples)
}

// mcFill draws one makespan sample per out slot.
func (e *Evaluator) mcFill(out []float64, rng *rand.Rand) {
	g, durs := e.g, e.durs
	n := g.Len()
	for t := range out {
		for i := 0; i < n; i++ {
			durs[i] = g.dists[i].Sample(rng.Float64())
		}
		out[t] = e.makespan(durs)
	}
}
