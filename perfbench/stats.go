package main

import (
	"math"
	"sort"
)

// minBeyond is how many samples must lie beyond a reported tail
// percentile for it to mean more than one outlier.
const minBeyond = 10

// rank is the 1-based nearest rank of the q-th percentile among n
// samples; the tolerance keeps q*n/100 that is an integer in exact
// arithmetic (99.9 of 10000) from rounding up a rank.
func rank(n int, q float64) int {
	r := int(math.Ceil(q*float64(n)/100 - 1e-9))
	return max(r, 1)
}

// percentile is the nearest-rank q-th percentile of sorted values.
func percentile(sorted []float64, q float64) float64 {
	return sorted[rank(len(sorted), q)-1]
}

// beyond counts the samples of n that rank above the q-th percentile.
func beyond(n int, q float64) int {
	return n - rank(n, q)
}

// tailLadder lists the tail percentiles a run may report, highest first.
var tailLadder = []float64{99.9, 99, 95, 90, 75, 50}

// tailPercentile returns the highest percentile of tailLadder with at
// least minBeyond of n samples beyond it.
func tailPercentile(n int) (float64, bool) {
	for _, q := range tailLadder {
		if beyond(n, q) >= minBeyond {
			return q, true
		}
	}
	return 0, false
}

// median of values (the mean of the middle two for an even count).
func median(values []float64) float64 {
	s := append([]float64(nil), values...)
	sort.Float64s(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// quartiles returns the first and third quartile exactly as Python's
// statistics.quantiles(values, n=4) does (the "exclusive" method).
// values needs at least two entries.
func quartiles(values []float64) (q1, q3 float64) {
	s := append([]float64(nil), values...)
	sort.Float64s(s)
	ld := len(s)
	m := ld + 1
	cut := func(i int) float64 {
		j := i * m / 4
		if j < 1 {
			j = 1
		} else if j > ld-1 {
			j = ld - 1
		}
		delta := i*m - j*4
		return (s[j-1]*float64(4-delta) + s[j]*float64(delta)) / 4
	}
	return cut(1), cut(3)
}

// spread is the quartile distance of values as a share of their median.
func spread(values []float64) float64 {
	q1, q3 := quartiles(values)
	return (q3 - q1) / median(values)
}
