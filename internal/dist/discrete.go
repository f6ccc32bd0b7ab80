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
//
//hanccr:allow deadapi the dist and probdag tests build arbitrary multi-atom laws with it; production laws come from TwoState, TwoStates and the Combiner
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
//
//hanccr:allow deadapi tests across the module build single 2-state laws with it; production builds them in blocks with TwoStates
func TwoState(lo, hi float64, pHi float64) *Discrete {
	d := new(Discrete)
	d.setTwoState(make([]float64, 4), lo, hi, pHi)
	return d
}

// TwoStates returns n 2-state laws, law i equal to TwoState(law(i)),
// backed by one []Discrete and one []float64 instead of three heap
// objects each. Every law's support and probabilities are capped
// windows of the shared block, so the laws are as independent as
// TwoState's.
func TwoStates(n int, law func(i int) (lo, hi, pHi float64)) []*Discrete {
	ds, buf, out := make([]Discrete, n), make([]float64, 4*n), make([]*Discrete, n)
	for i := range ds {
		lo, hi, pHi := law(i)
		ds[i].setTwoState(buf[4*i:4*i+4], lo, hi, pHi)
		out[i] = &ds[i]
	}
	return out
}

// setTwoState makes d the law TwoState(lo, hi, pHi), storing its
// support and probabilities in buf (4 slots).
func (d *Discrete) setTwoState(buf []float64, lo, hi, pHi float64) {
	switch {
	case pHi <= 0 || lo == hi:
		buf[0], buf[1] = lo, 1
		d.vals, d.probs = buf[0:1:1], buf[1:2:2]
		return
	case pHi >= 1:
		buf[0], buf[1] = hi, 1
		d.vals, d.probs = buf[0:1:1], buf[1:2:2]
		return
	case lo > hi:
		lo, hi = hi, lo
		pHi = 1 - pHi
	}
	buf[0], buf[1], buf[2], buf[3] = lo, hi, 1-pHi, pHi
	d.vals, d.probs = buf[0:2:2], buf[2:4:4]
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

// String implements fmt.Stringer.
func (d *Discrete) String() string {
	return fmt.Sprintf("dist.Discrete{%d points, [%g, %g], mean %g}",
		d.Len(), d.Min(), d.Max(), d.Mean())
}
