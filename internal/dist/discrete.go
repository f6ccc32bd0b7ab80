// Package dist is the probability toolbox shared by every layer of the
// reproduction: finite discrete distributions (the 2-state segment laws
// of §II-C and the convolutions/maxima Dodin's method folds them with),
// normal moment arithmetic for Sculli's estimator (Clark's maximum
// formulas), exponential fail-stop processes, sample summaries with
// confidence intervals, and the paper's segment cost formulas — the
// first-order Eq. (2) model and the exact restart expectation.
package dist

import (
	"fmt"
	"sort"
)

// Discrete is a finite discrete distribution: a sorted support of
// distinct values, each with strictly positive probability summing to 1.
// Discrete values are immutable by convention — every operation returns
// a new distribution — so they can be shared freely across goroutines.
type Discrete struct {
	vals  []float64
	probs []float64
}

// New builds a distribution from parallel value/probability slices.
// Values are sorted, duplicates merged, non-positive masses dropped and
// the result renormalized. It panics if no positive mass remains.
func New(vals, probs []float64) *Discrete {
	if len(vals) != len(probs) {
		panic(fmt.Sprintf("dist: %d values but %d probabilities", len(vals), len(probs)))
	}
	type vp struct{ v, p float64 }
	pairs := make([]vp, 0, len(vals))
	for i := range vals {
		if probs[i] > 0 {
			pairs = append(pairs, vp{vals[i], probs[i]})
		}
	}
	if len(pairs) == 0 {
		panic("dist: distribution has no positive mass")
	}
	sort.Slice(pairs, func(i, j int) bool { return pairs[i].v < pairs[j].v })
	d := &Discrete{
		vals:  make([]float64, 0, len(pairs)),
		probs: make([]float64, 0, len(pairs)),
	}
	total := 0.0
	for _, q := range pairs {
		n := len(d.vals)
		if n > 0 && d.vals[n-1] == q.v {
			d.probs[n-1] += q.p
		} else {
			d.vals = append(d.vals, q.v)
			d.probs = append(d.probs, q.p)
		}
		total += q.p
	}
	if total != 1 {
		for i := range d.probs {
			d.probs[i] /= total
		}
	}
	return d
}

// Point returns the deterministic distribution concentrated on x.
func Point(x float64) *Discrete {
	return &Discrete{vals: []float64{x}, probs: []float64{1}}
}

// TwoState returns the paper's 2-state law: value hi with probability
// pHi, value lo otherwise. Degenerate parameters (pHi outside (0,1), or
// lo == hi) collapse to a Point distribution.
func TwoState(lo, hi float64, pHi float64) *Discrete {
	if pHi <= 0 || lo == hi {
		return Point(lo)
	}
	if pHi >= 1 {
		return Point(hi)
	}
	if lo > hi {
		lo, hi = hi, lo
		pHi = 1 - pHi
	}
	return &Discrete{vals: []float64{lo, hi}, probs: []float64{1 - pHi, pHi}}
}

// Len returns the support size.
func (d *Discrete) Len() int { return len(d.vals) }

// Support returns the sorted support values. The slice is owned by the
// distribution and must not be modified.
func (d *Discrete) Support() []float64 { return d.vals }

// Probs returns the probabilities aligned with Support. The slice is
// owned by the distribution and must not be modified.
func (d *Discrete) Probs() []float64 { return d.probs }

// Min returns the smallest support value.
func (d *Discrete) Min() float64 { return d.vals[0] }

// Max returns the largest support value.
func (d *Discrete) Max() float64 { return d.vals[len(d.vals)-1] }

// Base returns the most likely value, ties broken toward the smaller
// value. For the paper's 2-state segment laws this is the failure-free
// duration.
func (d *Discrete) Base() float64 {
	best := 0
	for j := 1; j < len(d.vals); j++ {
		if d.probs[j] > d.probs[best] {
			best = j
		}
	}
	return d.vals[best]
}

// Mean returns the expectation.
func (d *Discrete) Mean() float64 {
	m := 0.0
	for i, v := range d.vals {
		m += v * d.probs[i]
	}
	return m
}

// Variance returns the variance.
func (d *Discrete) Variance() float64 {
	mean := d.Mean()
	v := 0.0
	for i, x := range d.vals {
		dx := x - mean
		v += dx * dx * d.probs[i]
	}
	return v
}

// CDF returns P(X <= x).
func (d *Discrete) CDF(x float64) float64 {
	c := 0.0
	for i, v := range d.vals {
		if v > x {
			break
		}
		c += d.probs[i]
	}
	return c
}

// Sample maps a uniform variate u in [0, 1) onto the support by inverse
// CDF. It performs no allocation.
func (d *Discrete) Sample(u float64) float64 {
	c := 0.0
	for i, p := range d.probs {
		c += p
		if u < c {
			return d.vals[i]
		}
	}
	return d.vals[len(d.vals)-1]
}

// Add returns the distribution of the sum of two independent variables
// (the convolution), used by Dodin's serial reduction. Loops combining
// many distributions should hold a Combiner to reuse its scratch.
func (d *Discrete) Add(o *Discrete) *Discrete {
	var c Combiner
	return c.Add(d, o)
}

// MaxWith returns the distribution of the maximum of two independent
// variables (product of CDFs), used by Dodin's parallel reduction.
func (d *Discrete) MaxWith(o *Discrete) *Discrete {
	var c Combiner
	return c.MaxWith(d, o)
}

// combineMap is the historical map-accumulator combine, superseded by
// the Combiner. It is retained as the independent reference
// implementation the property-based equivalence tests compare against;
// the two must stay bit-identical. Each atom keeps the first value
// inserted into its class, as the Combiner does: Go's map assignment
// overwrites a float key with the one being stored, so on a -0/+0 tie
// the map alone would keep the last one.
func (d *Discrete) combineMap(o *Discrete, f func(a, b float64) float64) *Discrete {
	acc := make(map[float64]float64, len(d.vals)*len(o.vals))
	out := &Discrete{}
	for i, a := range d.vals {
		for j, b := range o.vals {
			v := f(a, b)
			if _, ok := acc[v]; !ok {
				out.vals = append(out.vals, v)
			}
			acc[v] += d.probs[i] * o.probs[j]
		}
	}
	sort.Float64s(out.vals)
	for _, v := range out.vals {
		out.probs = append(out.probs, acc[v])
	}
	return out
}

// QuantizeNearest caps the support at maxBins points by snapping values
// onto a uniform grid over [Min, Max]. Values are rounded upward to the
// next grid line, so the quantized variable stochastically dominates the
// original and estimates built on it stay upper-biased (the bias
// direction Dodin's duplication step already has). Distributions within
// the cap are returned unchanged.
func (d *Discrete) QuantizeNearest(maxBins int) *Discrete {
	if maxBins <= 0 || len(d.vals) <= maxBins {
		return d
	}
	lo, hi := d.Min(), d.Max()
	step := (hi - lo) / float64(maxBins)
	if step <= 0 {
		return Point(lo)
	}
	out := &Discrete{}
	for i, v := range d.vals {
		// Round up to the next grid line (bin 0 keeps the exact minimum).
		bin := int((v - lo) / step)
		snapped := lo + float64(bin)*step
		if snapped < v {
			bin++
			snapped = lo + float64(bin)*step
		}
		if snapped > hi {
			snapped = hi
		}
		n := len(out.vals)
		if n > 0 && out.vals[n-1] == snapped {
			out.probs[n-1] += d.probs[i]
		} else {
			out.vals = append(out.vals, snapped)
			out.probs = append(out.probs, d.probs[i])
		}
	}
	return out
}

// String implements fmt.Stringer.
func (d *Discrete) String() string {
	return fmt.Sprintf("dist.Discrete{%d points, [%g, %g], mean %g}",
		d.Len(), d.Min(), d.Max(), d.Mean())
}
