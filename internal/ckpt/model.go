package ckpt

import (
	"fmt"

	"repro/internal/dist"
)

// CostModel selects how the expected execution time of a segment (span
// S = R + W + C, failure rate λ) is estimated, both inside Algorithm 2's
// dynamic program and in the evaluation DAG's node distributions.
type CostModel int

const (
	// ModelFirstOrder is the paper's Eq. (2): at most one failure per
	// segment, probability λS, expected penalty S/2. Accurate to Θ(λ²)
	// and what all the paper's experiments use.
	ModelFirstOrder CostModel = iota
	// ModelExact uses the exact restart expectation (e^{λS} − 1)/λ,
	// which accounts for arbitrarily many successive failures. This is
	// the natural fix for the paper's stated limitation ("in case of
	// multiple successive failures, T(i,j) is underestimated") and
	// matters when λ·S approaches 1 — see ablation A4.
	ModelExact
)

// String implements fmt.Stringer.
func (m CostModel) String() string {
	switch m {
	case ModelFirstOrder:
		return "FirstOrder"
	case ModelExact:
		return "Exact"
	default:
		return fmt.Sprintf("CostModel(%d)", int(m))
	}
}

// ExpectedTime returns the model's expected segment execution time.
func (m CostModel) ExpectedTime(span, lambda float64) float64 {
	switch m {
	case ModelExact:
		return dist.ExactRestartExpected(span, lambda)
	default:
		return dist.FirstOrderExpected(span, lambda)
	}
}

// segmentLaw returns the model's two-point duration law for a segment,
// the node weight of the evaluation DAG: the law is
// dist.TwoState(lo, hi, pHi).
func (m CostModel) segmentLaw(span, lambda float64) (lo, hi, pHi float64) {
	switch m {
	case ModelExact:
		return dist.ExactRestartLaw(span, lambda)
	default:
		return dist.FirstOrderLaw(span, lambda)
	}
}
