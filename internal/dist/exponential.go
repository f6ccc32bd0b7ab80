package dist

import (
	"math"
	"math/rand"
)

// Exponential is the memoryless fail-stop law of the paper's platform
// model: each processor fails at rate Lambda (failures per second).
type Exponential struct {
	Lambda float64
}

// Draw samples an inter-failure time from rng. A non-positive rate never
// fails and yields +Inf.
func (e Exponential) Draw(rng *rand.Rand) float64 {
	if e.Lambda <= 0 {
		return math.Inf(1)
	}
	return rng.ExpFloat64() / e.Lambda
}

// LambdaForPFail inverts the §VI-A calibration pfail = 1 − e^(−λ·w̄):
// it returns the failure rate at which a task of mean weight meanWeight
// fails with probability pfail. Degenerate inputs yield 0.
func LambdaForPFail(pfail, meanWeight float64) float64 {
	if pfail <= 0 || pfail >= 1 || meanWeight <= 0 {
		return 0
	}
	return -math.Log1p(-pfail) / meanWeight
}
