package dist

// Combiner holds the reusable scratch of Add/MaxWith — the inner loop of
// Dodin's reducer, which folds thousands of pairwise combinations per
// estimate. The historical implementation accumulated the product
// distribution in a map[float64]float64 and sorted its keys, allocating
// on every bucket. The Combiner reproduces it bit for bit without the
// map:
//
//   - Add writes all |a|·|b| (value, probability) pairs of the
//     convolution into a pooled buffer — one already-sorted run per value
//     of a, since both supports are sorted — stable-merges the runs
//     bottom-up and coalesces equal values in place. The pairs are
//     generated in the map version's (i, j) order and the merge is
//     stable, so tied values sum their probabilities in the identical
//     order.
//   - MaxWith needs no pair grid: max(a_i, b_j) is always an atom of a
//     or of b, so a two-pointer walk over the two sorted supports emits
//     the output support in order and sums each atom's mass in the same
//     (i, j) order (see maxInto).
//
// A Combiner is not safe for concurrent use; create one per goroutine.
// The zero value is ready to use — the scratch grows to the largest
// product seen and is retained across calls, so steady-state combines
// allocate only the exact-size output distribution.
type Combiner struct {
	pairs pairBuf
	tmp   pairBuf // ping-pong scratch of the bottom-up run merge
}

// pairBuf is a value-sorted buffer of (value, probability) pairs.
type pairBuf struct {
	vals  []float64
	probs []float64
}

// grow resizes the scratch to exactly n pairs, reusing capacity.
func (p *pairBuf) grow(n int) {
	if cap(p.vals) < n {
		p.vals = make([]float64, n)
		p.probs = make([]float64, n)
	}
	p.vals = p.vals[:n]
	p.probs = p.probs[:n]
}

// Add returns the distribution of the sum of two independent variables
// (the convolution).
func (c *Combiner) Add(a, b *Discrete) *Discrete {
	return c.AddQuantized(a, b, 0)
}

// MaxWith returns the distribution of the maximum of two independent
// variables, walking both sorted supports once (no pair grid, no sort).
func (c *Combiner) MaxWith(a, b *Discrete) *Discrete {
	return c.MaxQuantized(a, b, 0)
}

// AddQuantized is Add followed by QuantizeNearest(maxBins) (maxBins <= 0
// skips the cap), fused so no intermediate distribution is built. The
// quantization arithmetic is identical to Discrete.QuantizeNearest.
func (c *Combiner) AddQuantized(a, b *Discrete, maxBins int) *Discrete {
	p := &c.pairs
	p.grow(len(a.vals) * len(b.vals))
	k := 0
	for i, av := range a.vals {
		pa := a.probs[i]
		for j, bv := range b.vals {
			p.vals[k] = av + bv
			p.probs[k] = pa * b.probs[j]
			k++
		}
	}
	// |b| = 1 degenerates every run to a single pair whose values are
	// already globally non-decreasing (a's support is sorted), so only
	// genuine grids need the run merge; |a| = 1 is the one-run case
	// mergeRuns skips on its own.
	if len(b.vals) > 1 {
		// mergeRuns always leaves the merged pairs in c.pairs.
		c.mergeRuns(len(a.vals), len(b.vals))
	}
	return p.emit(p.coalesce(len(p.vals)), maxBins)
}

// MaxQuantized is MaxWith followed by QuantizeNearest(maxBins), fused.
// It costs |a|·|b| multiply-adds over at most |a|+|b| atoms of scratch,
// with no sort.
func (c *Combiner) MaxQuantized(a, b *Discrete, maxBins int) *Discrete {
	p := &c.pairs
	p.grow(len(a.vals) + len(b.vals))
	return p.emit(p.maxInto(a, b), maxBins)
}

// emit quantizes the first n coalesced pairs when they exceed maxBins
// and copies them into an exact-size distribution.
func (p *pairBuf) emit(n, maxBins int) *Discrete {
	if maxBins > 0 && n > maxBins {
		n = p.quantize(n, maxBins)
	}
	out := &Discrete{
		vals:  make([]float64, n),
		probs: make([]float64, n),
	}
	copy(out.vals, p.vals[:n])
	copy(out.probs, p.probs[:n])
	return out
}

// maxInto writes the coalesced distribution of max(a, b) into the
// buffer, which must hold |a|+|b| pairs, and returns its support size.
//
// It walks both sorted supports at once. While a_i and b_j are the
// heads, every a_i' (i' < i) is below b_j and every b_j' (j' < j) is
// below a_i, so each output atom's contributing pairs are known, and
// their masses are summed in the (i, j) order that the map combine
// (and a stable sort of its pairs followed by coalesce) uses:
//
//   - a_i alone: p_i·q_j' over j' < j, ascending j';
//   - b_j alone: p_i'·q_j over i' < i, ascending i';
//   - a_i == b_j: first p_i'·q_j for i' < i, then p_i·q_j' for j' < j,
//     then p_i·q_j.
//
// A head with no contributing pair (j = 0, resp. i = 0) is no atom.
// Sums start from +0, which is exact because no probability is -0. A
// tie keeps the value of its first contributing pair, as the stable
// merge and coalesce of the pair grid did. A pair takes b's value
// unless a's is greater, so that is b_j, except when i = 0 < j: then
// the first pair is (0, 0), whose value is a_0. This only matters for
// a -0/+0 tie.
func (p *pairBuf) maxInto(a, b *Discrete) int {
	av, ap := a.vals, a.probs
	bv, bp := b.vals, b.probs
	m, i, j := 0, 0, 0
	for i < len(av) || j < len(bv) {
		x, s := 0.0, 0.0
		switch {
		case j == len(bv) || (i < len(av) && av[i] < bv[j]):
			x = av[i]
			for _, q := range bp[:j] {
				s += ap[i] * q
			}
			i++
			if j == 0 {
				continue
			}
		case i == len(av) || bv[j] < av[i]:
			x = bv[j]
			for _, pa := range ap[:i] {
				s += pa * bp[j]
			}
			j++
			if i == 0 {
				continue
			}
		default: // av[i] == bv[j]
			x = bv[j]
			if i == 0 && j > 0 {
				x = av[i]
			}
			for _, pa := range ap[:i] {
				s += pa * bp[j]
			}
			for _, q := range bp[:j] {
				s += ap[i] * q
			}
			s += ap[i] * bp[j]
			i++
			j++
		}
		p.vals[m] = x
		p.probs[m] = s
		m++
	}
	return m
}

// mergeRuns stable-sorts the pair buffer, which holds nRuns
// consecutive pre-sorted runs of runLen pairs each, by merging adjacent
// runs bottom-up into the ping-pong scratch. Ties take the
// lower-indexed run's pair first, so the overall order is exactly what
// a stable sort of the generation order produces.
func (c *Combiner) mergeRuns(nRuns, runLen int) {
	if nRuns <= 1 {
		return
	}
	n := nRuns * runLen
	c.tmp.grow(n)
	src, dst := &c.pairs, &c.tmp
	for width := runLen; width < n; width *= 2 {
		for lo := 0; lo < n; lo += 2 * width {
			mid := lo + width
			if mid > n {
				mid = n
			}
			hi := lo + 2*width
			if hi > n {
				hi = n
			}
			mergeInto(dst, src, lo, mid, hi)
		}
		src, dst = dst, src
	}
	if src != &c.pairs {
		c.pairs, c.tmp = c.tmp, c.pairs
	}
}

// mergeInto merges src's sorted ranges [lo, mid) and [mid, hi) into
// dst[lo:hi], taking from the left range on ties.
func mergeInto(dst, src *pairBuf, lo, mid, hi int) {
	i, j, k := lo, mid, lo
	for i < mid && j < hi {
		if src.vals[j] < src.vals[i] {
			dst.vals[k] = src.vals[j]
			dst.probs[k] = src.probs[j]
			j++
		} else {
			dst.vals[k] = src.vals[i]
			dst.probs[k] = src.probs[i]
			i++
		}
		k++
	}
	copy(dst.vals[k:hi], src.vals[i:mid])
	copy(dst.probs[k:hi], src.probs[i:mid])
	k += mid - i
	copy(dst.vals[k:hi], src.vals[j:hi])
	copy(dst.probs[k:hi], src.probs[j:hi])
}

// coalesce merges runs of equal values among the first n sorted pairs in
// place, summing their probabilities in ascending buffer order, and
// returns the merged count.
func (p *pairBuf) coalesce(n int) int {
	m := 0
	for i := 0; i < n; i++ {
		if m > 0 && p.vals[m-1] == p.vals[i] {
			p.probs[m-1] += p.probs[i]
		} else {
			p.vals[m] = p.vals[i]
			p.probs[m] = p.probs[i]
			m++
		}
	}
	return m
}

// quantize snaps the first n coalesced pairs onto QuantizeNearest's
// upward-rounding uniform grid in place and returns the resulting
// support size. The write index never passes the read index, so reading
// and writing the same buffer is safe.
func (p *pairBuf) quantize(n, maxBins int) int {
	lo, hi := p.vals[0], p.vals[n-1]
	step := (hi - lo) / float64(maxBins)
	if step <= 0 {
		// All mass collapses onto the minimum — QuantizeNearest returns
		// Point(lo) here, whose probability is exactly 1.
		p.vals[0] = lo
		p.probs[0] = 1
		return 1
	}
	m := 0
	for i := 0; i < n; i++ {
		v := p.vals[i]
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
		if m > 0 && p.vals[m-1] == snapped {
			p.probs[m-1] += p.probs[i]
		} else {
			p.vals[m] = snapped
			p.probs[m] = p.probs[i]
			m++
		}
	}
	return m
}
