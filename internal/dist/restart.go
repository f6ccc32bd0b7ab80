package dist

import "math"

// FirstOrderExpected is the paper's Eq. (2): the expected execution time
// of a segment of failure-free span S under failure rate λ, assuming at
// most one failure per segment (probability λS, expected penalty S/2).
// Accurate to Θ(λ²).
func FirstOrderExpected(span, lambda float64) float64 {
	return span * (1 + lambda*span/2)
}

// FirstOrderLaw returns the 2-state node law induced by Eq. (2) as
// TwoState's parameters: the segment lasts S with probability 1 − λS
// and 1.5·S (the single-failure average) with probability λS, so the
// mean equals FirstOrderExpected. The failure probability is clamped
// to 1 when λS exceeds it.
func FirstOrderLaw(span, lambda float64) (lo, hi, pHi float64) {
	if span <= 0 {
		return 0, 0, 0
	}
	p := lambda * span
	if p <= 0 {
		return span, span, 0
	}
	if p > 1 {
		p = 1
	}
	return span, 1.5 * span, p
}

// ExactRestartExpected is the exact restart expectation (e^{λS} − 1)/λ:
// the expected time to complete S seconds of work when every failure
// (rate λ) restarts the segment from scratch, accounting for arbitrarily
// many successive failures. λ = 0 yields S.
func ExactRestartExpected(span, lambda float64) float64 {
	if span == 0 {
		return 0
	}
	if lambda <= 0 {
		return span
	}
	return math.Expm1(lambda*span) / lambda
}

// ExactRestartLaw returns the 2-state node law matching the exact
// restart model as TwoState's parameters: the base value is the
// failure-free span S with the true no-failure mass e^{−λS}, and the
// inflated value is chosen so the mean equals ExactRestartExpected.
func ExactRestartLaw(span, lambda float64) (lo, hi, pHi float64) {
	if span == 0 {
		return 0, 0, 0
	}
	if lambda <= 0 {
		return span, span, 0
	}
	p := -math.Expm1(-lambda * span) // 1 − e^{−λS}
	e := ExactRestartExpected(span, lambda)
	return span, span + (e-span)/p, p
}
