// Package sim is the discrete-event fail-stop simulator used to
// cross-validate the analytic first-order estimates: it executes a
// checkpoint plan (or a CkptNone schedule) against actual exponential
// failure injection and measures the achieved makespan, including every
// re-execution, storage re-read and checkpoint re-write.
package sim

import (
	"math"
	"math/rand"

	"repro/internal/dist"
)

// FailureSource yields, per processor, the strictly increasing sequence
// of failure instants. NextAfter(proc, t) returns the first failure of
// proc strictly after time t; implementations must be monotone (calls
// with non-decreasing t per processor).
type FailureSource interface {
	NextAfter(proc int, t float64) float64
}

// PoissonFailures injects exponential (rate λ) failures independently on
// each processor — the paper's fail-stop model. The exponential
// distribution is memoryless, so skipping failure candidates that fall
// into idle periods does not bias the process.
type PoissonFailures struct {
	lambda float64
	rng    *rand.Rand
	next   []float64
}

// Reset rebinds the source to rng and redraws every processor's first
// failure instant in place, making one allocation of per-processor state
// serve any number of simulated trials.
func (p *PoissonFailures) Reset(rng *rand.Rand) {
	p.rng = rng
	e := dist.Exponential{Lambda: p.lambda}
	for i := range p.next {
		p.next[i] = e.Draw(rng)
	}
}

// NextAfter implements FailureSource.
func (p *PoissonFailures) NextAfter(proc int, t float64) float64 {
	if p.lambda <= 0 {
		return math.Inf(1)
	}
	e := dist.Exponential{Lambda: p.lambda}
	for p.next[proc] <= t {
		p.next[proc] += e.Draw(p.rng)
	}
	return p.next[proc]
}

// TraceFailures replays a scripted failure trace (per-processor sorted
// instants); used by failure-injection tests to check exact recovery
// accounting.
type TraceFailures struct {
	Times [][]float64
}

// NextAfter implements FailureSource.
func (tf *TraceFailures) NextAfter(proc int, t float64) float64 {
	if proc >= len(tf.Times) {
		return math.Inf(1)
	}
	for _, x := range tf.Times[proc] {
		if x > t {
			return x
		}
	}
	return math.Inf(1)
}

// NoFailures never fails.
type NoFailures struct{}

// NextAfter implements FailureSource.
func (NoFailures) NextAfter(int, float64) float64 { return math.Inf(1) }
