package dist

import (
	"fmt"
	"math"
	"math/rand"
	"sort"
	"testing"
)

// randomLaw builds a Discrete from raw (value, probability) pairs drawn
// on a coarse grid, so the canonicalized support has up to maxSupport
// points and the inputs exercise ties (duplicate raw values) and
// zero-probability atoms (dropped by New).
func randomLaw(rng *rand.Rand, maxSupport int) *Discrete {
	n := 1 + rng.Intn(maxSupport)
	vals := make([]float64, 0, n+2)
	probs := make([]float64, 0, n+2)
	for i := 0; i < n; i++ {
		// A grid of quarter-integers makes collisions (both within one
		// law and between combined values) common.
		vals = append(vals, float64(rng.Intn(4*maxSupport))/4)
		probs = append(probs, rng.Float64())
	}
	// Zero- and duplicate-mass atoms: New must drop/merge them.
	vals = append(vals, vals[0], float64(rng.Intn(4*maxSupport))/4)
	probs = append(probs, rng.Float64(), 0)
	return New(vals, probs)
}

// Add is AddQuantized without a cap: the exact convolution.
func (c *Combiner) Add(a, b *Discrete) *Discrete {
	return c.AddQuantized(a, b, 0)
}

// MaxWith is MaxQuantized without a cap: the exact maximum.
func (c *Combiner) MaxWith(a, b *Discrete) *Discrete {
	return c.MaxQuantized(a, b, 0)
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

// requireIdentical fails unless the two distributions are bit-for-bit
// equal — the Combiner's contract against the historical map combine.
// Atoms are compared as bits, so -0 and +0 differ.
func requireIdentical(t *testing.T, tag string, got, want *Discrete) {
	t.Helper()
	if got.Len() != want.Len() {
		t.Fatalf("%s: support size %d != %d", tag, got.Len(), want.Len())
	}
	for i := range want.vals {
		if math.Float64bits(got.vals[i]) != math.Float64bits(want.vals[i]) ||
			math.Float64bits(got.probs[i]) != math.Float64bits(want.probs[i]) {
			t.Fatalf("%s: atom %d: got (%v, %v), want (%v, %v)",
				tag, i, got.vals[i], got.probs[i], want.vals[i], want.probs[i])
		}
	}
}

// TestCombinerMatchesMapCombine is the property-based equivalence test:
// on randomized discrete laws (support sizes 1–64, ties, zero-mass
// atoms), the Combiner's Add/MaxWith must reproduce the historical
// map-accumulator combine exactly, including the float summation order
// of tied values.
func TestCombinerMatchesMapCombine(t *testing.T) {
	rng := rand.New(rand.NewSource(71))
	add := func(a, b float64) float64 { return a + b }
	var comb Combiner // shared across trials: the pool must not leak state
	for trial := 0; trial < 300; trial++ {
		a := randomLaw(rng, 64)
		b := randomLaw(rng, 64)
		requireIdentical(t, "add", comb.Add(a, b), a.combineMap(b, add))
		requireIdentical(t, "max", comb.MaxWith(a, b), a.combineMap(b, maxOf))
	}
}

// TestCombinerQuantizedMatchesTwoStep pins the fused quantization: for
// random maxBins, AddQuantized/MaxQuantized must equal the historical
// combine followed by QuantizeNearest, bit for bit.
func TestCombinerQuantizedMatchesTwoStep(t *testing.T) {
	rng := rand.New(rand.NewSource(72))
	add := func(a, b float64) float64 { return a + b }
	var comb Combiner
	for trial := 0; trial < 300; trial++ {
		a := randomLaw(rng, 48)
		b := randomLaw(rng, 48)
		bins := 1 + rng.Intn(96)
		requireIdentical(t, "addq",
			comb.AddQuantized(a, b, bins),
			a.combineMap(b, add).QuantizeNearest(bins))
		requireIdentical(t, "maxq",
			comb.MaxQuantized(a, b, bins),
			a.combineMap(b, maxOf).QuantizeNearest(bins))
	}
}

// maxOf is the pairwise max of the historical map combine: b's value
// unless a's is greater.
func maxOf(a, b float64) float64 {
	if a > b {
		return a
	}
	return b
}

// TestCombinerDegenerateSupports covers the merge-skip fast paths of Add
// (|a| = 1, |b| = 1, both) and the edge cases of the two-pointer max —
// a point against a wide law, every atom tied, disjoint supports in
// both orders, and ties between -0 and +0, whose stored sign depends on
// which pair reaches the atom first — against the reference
// implementation.
func TestCombinerDegenerateSupports(t *testing.T) {
	rng := rand.New(rand.NewSource(73))
	add := func(a, b float64) float64 { return a + b }
	var comb Combiner
	wide := randomLaw(rng, 32)
	point := Point(2.5)
	for _, c := range []struct {
		name string
		a, b *Discrete
	}{
		{"point+wide", point, wide},
		{"wide+point", wide, point},
		{"point+point", point, Point(1.25)},
	} {
		requireIdentical(t, c.name, comb.Add(c.a, c.b), c.a.combineMap(c.b, add))
	}
	negZero := math.Copysign(0, -1)
	low := New([]float64{1, 2, 3}, []float64{0.2, 0.3, 0.5})
	high := New([]float64{4, 5, 7}, []float64{0.6, 0.1, 0.3})
	for _, c := range []struct {
		name string
		a, b *Discrete
	}{
		{"point|wide", point, wide},
		{"wide|point", wide, point},
		{"point|equal point", point, Point(2.5)},
		{"point|lower point", point, Point(1.25)},
		{"wide|wide", wide, wide},
		{"low|high", low, high},
		{"high|low", high, low},
		{"-0|+0", Point(negZero), Point(0)},
		{"+0|-0", Point(0), Point(negZero)},
		{"{-0,2}|{-1,+0}", TwoState(negZero, 2, 0.4), TwoState(-1, 0, 0.7)},
		{"{-1,+0}|{-0,2}", TwoState(-1, 0, 0.7), TwoState(negZero, 2, 0.4)},
		{"{-1,-0}|{+0,3}", TwoState(-1, negZero, 0.5), TwoState(0, 3, 0.2)},
		{"{+0,3}|{-1,-0}", TwoState(0, 3, 0.2), TwoState(-1, negZero, 0.5)},
	} {
		want := c.a.combineMap(c.b, maxOf)
		requireIdentical(t, c.name, comb.MaxWith(c.a, c.b), want)
		for _, bins := range []int{1, 2, 3} {
			requireIdentical(t, fmt.Sprintf("%s bins %d", c.name, bins),
				comb.MaxQuantized(c.a, c.b, bins), want.QuantizeNearest(bins))
		}
	}
}

// fuzzLaw decodes one law of up to 12 atoms from data: two bytes per
// atom, a value on a grid of halves in [-2, 5.5] (so ties within and
// between laws are common, and a zero takes its sign from the byte's
// high bit) and a positive weight. It returns the law and the bytes
// left, or nil when data holds no whole atom.
func fuzzLaw(data []byte) (*Discrete, []byte) {
	n := 0
	if len(data) > 0 {
		n = 1 + int(data[0])%12
		data = data[1:]
	}
	if n > len(data)/2 {
		n = len(data) / 2
	}
	if n == 0 {
		return nil, data
	}
	vals, probs := make([]float64, n), make([]float64, n)
	for k := 0; k < n; k++ {
		v, w := data[2*k], data[2*k+1]
		vals[k] = float64(int(v%16)-4) / 2
		if vals[k] == 0 && v >= 128 {
			vals[k] = math.Copysign(0, -1)
		}
		probs[k] = float64(w) + 1
	}
	return New(vals, probs), data[2*n:]
}

// FuzzCombinerMax requires the two-pointer MaxQuantized to equal the
// historical map combine followed by QuantizeNearest, bit for bit, on
// small coarse-grid laws and caps from none to 20 bins.
func FuzzCombinerMax(f *testing.F) {
	f.Add([]byte{3, 0, 10, 4, 20, 6, 30, 2, 4, 40, 8, 50, 5})
	f.Add([]byte{1, 4, 1, 1, 132, 1, 0})
	f.Add([]byte{11, 0, 1, 1, 2, 2, 3, 3, 4, 4, 5, 5, 6, 6, 7, 7, 8, 8, 9, 9, 10, 10, 11, 11, 12, 11, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13, 14, 15, 16, 17, 18, 19, 20, 21, 22, 23, 24, 3})
	f.Fuzz(func(t *testing.T, data []byte) {
		a, data := fuzzLaw(data)
		b, data := fuzzLaw(data)
		if a == nil || b == nil {
			return
		}
		bins := 0
		if len(data) > 0 {
			bins = int(data[0]) % 21
		}
		var comb Combiner
		requireIdentical(t, "max", comb.MaxQuantized(a, b, bins), a.combineMap(b, maxOf).QuantizeNearest(bins))
	})
}
