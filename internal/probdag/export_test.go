package probdag

import "repro/internal/dist"

// Read access for the external test package: dodin_ref_test.go reads
// the graph it reduces through these, montecarlo_hot_test.go the
// Monte Carlo kernel's thresholds.

func (g *Graph) Dist(n NodeID) *dist.Discrete { return g.dists[n] }

func (g *Graph) Succ(n NodeID) []NodeID { return g.succ[n] }

func (g *Graph) Pred(n NodeID) []NodeID { return g.pred[n] }

// MCThresholds returns, per node, the Monte Carlo kernel's first
// inverse-CDF threshold and its raw-stream form.
func (g *Graph) MCThresholds() (first []float64, raw []uint64) {
	k := g.mustKernel()
	return k.first, k.ifirst
}

// RawThresholdErr checks a raw threshold against the first
// inverse-CDF threshold it stands for.
var RawThresholdErr = rawThresholdErr
