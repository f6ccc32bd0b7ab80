package probdag

import "repro/internal/dist"

// Read access for the external test package: dodin_ref_test.go reads
// the graph it reduces through these.

func (g *Graph) Dist(n NodeID) *dist.Discrete { return g.dists[n] }

func (g *Graph) Succ(n NodeID) []NodeID { return g.succ[n] }

func (g *Graph) Pred(n NodeID) []NodeID { return g.pred[n] }
