// Package platform models the execution environment of the paper: a set
// of identical fail-stop processors with an exponential failure rate,
// connected to a stable storage of fixed bandwidth. It also provides the
// experiment-calibration helpers from §VI-A: the pfail → λ conversion and
// the Communication-to-Computation Ratio (CCR) computation and targeting.
package platform

import (
	"fmt"

	"repro/internal/dist"
	"repro/internal/wfdag"
)

// Platform describes the machine the workflow runs on.
type Platform struct {
	// Processors is the number of identical processors, p.
	Processors int
	// Lambda is the exponential fail-stop failure rate of each
	// processor, in failures per second.
	Lambda float64
	// Bandwidth is the stable-storage bandwidth in bytes per second;
	// reading or writing a file of size s costs s/Bandwidth seconds.
	Bandwidth float64
}

// New returns a platform with the given processor count, failure rate
// and storage bandwidth.
func New(processors int, lambda, bandwidth float64) Platform {
	return Platform{Processors: processors, Lambda: lambda, Bandwidth: bandwidth}
}

// Validate reports configuration errors.
func (p Platform) Validate() error {
	if p.Processors < 1 {
		return fmt.Errorf("platform: need at least one processor, got %d", p.Processors)
	}
	if p.Lambda < 0 {
		return fmt.Errorf("platform: negative failure rate %g", p.Lambda)
	}
	if p.Bandwidth <= 0 {
		return fmt.Errorf("platform: non-positive bandwidth %g", p.Bandwidth)
	}
	return nil
}

// IOCost returns the time in seconds to read or write `bytes` bytes of
// data from/to stable storage.
func (p Platform) IOCost(bytes float64) float64 { return bytes / p.Bandwidth }

// FileCost returns the storage I/O time of file f in graph g.
func (p Platform) FileCost(g *wfdag.Graph, f wfdag.FileID) float64 {
	return p.IOCost(g.File(f).Size)
}

// WithLambdaForPFail returns a copy of the platform whose λ is calibrated
// so that a task of mean weight w̄ fails with probability pfail
// (pfail = 1 − e^(−λ·w̄), §VI-A).
func (p Platform) WithLambdaForPFail(pfail float64, g *wfdag.Graph) Platform {
	p.Lambda = dist.LambdaForPFail(pfail, g.MeanWeight())
	return p
}

// CCR returns the Communication-to-Computation Ratio of workflow g on
// this platform: the time needed to store every file the workflow
// handles (inputs, outputs and intermediates, each counted once) divided
// by the time needed to run all its computation on one processor.
func (p Platform) CCR(g *wfdag.Graph) float64 {
	w := g.TotalWeight()
	if w == 0 {
		return 0
	}
	return p.IOCost(g.TotalFileBytes()) / w
}

// ScaleToCCR rescales every file size of g (in place) so that the
// workflow's CCR on this platform equals target. It returns the factor
// applied. A workflow with no file bytes is left unchanged.
func (p Platform) ScaleToCCR(g *wfdag.Graph, target float64) float64 {
	cur := p.CCR(g)
	if cur == 0 {
		return 1
	}
	factor := target / cur
	g.ScaleFileSizes(factor)
	return factor
}
