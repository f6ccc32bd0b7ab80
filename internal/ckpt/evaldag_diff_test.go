package ckpt

import (
	"fmt"
	"math/rand"
	"slices"
	"testing"

	"repro/internal/pegasus"
	"repro/internal/probdag"
)

// TestEvalDAGMatchesReference pins the one-pass segment DAG (laws in
// one block, edges packed by probdag.FromEdges) to the node-by-node
// AddNode/AddEdge build over the map-based reference edges, on every
// family × {CkptSome, CkptAll, ExitOnly} × both cost models × three
// seeds: every node's Succ and Pred lists in order, bit-equal supports
// and probabilities, and bit-equal PathApprox, Normal, Dodin and seeded
// Monte Carlo estimates, both on the graph and through ExpectedMakespan.
func TestEvalDAGMatchesReference(t *testing.T) {
	const trials, mcSeed = 500, 7
	for _, fam := range pegasus.Families() {
		for seed := int64(1); seed <= 3; seed++ {
			s, pf := diffSchedule(t, fam, 300, seed)
			for _, model := range []CostModel{ModelFirstOrder, ModelExact} {
				for _, strat := range []Strategy{CkptSome, CkptAll, ExitOnly} {
					where := fmt.Sprintf("%s/seed%d %s/%s", fam, seed, strat, model)
					p, err := BuildPlanWith(s, pf, strat, model)
					if err != nil {
						t.Fatal(err)
					}
					g, err := EvalDAG(p)
					if err != nil {
						t.Fatal(err)
					}
					ref := refSegmentDAG(p, refSegmentDeps(p))
					diffSegmentDAG(t, where, g, ref)

					refDodin, err := probdag.Dodin(ref, probdag.DodinOptions{})
					if err != nil {
						t.Fatal(err)
					}
					want := map[Estimator]float64{
						EstPathApprox: probdag.PathApprox(ref),
						EstNormal:     probdag.Normal(ref),
						EstDodin:      refDodin,
						EstMonteCarlo: probdag.MonteCarlo(ref, trials, rand.New(rand.NewSource(mcSeed))).Mean,
					}
					gotDodin, err := probdag.Dodin(g, probdag.DodinOptions{})
					if err != nil {
						t.Fatal(err)
					}
					got := map[Estimator]float64{
						EstPathApprox: probdag.PathApprox(g),
						EstNormal:     probdag.Normal(g),
						EstDodin:      gotDodin,
						EstMonteCarlo: probdag.MonteCarlo(g, trials, rand.New(rand.NewSource(mcSeed))).Mean,
					}
					for _, est := range []Estimator{EstPathApprox, EstNormal, EstDodin, EstMonteCarlo} {
						if !sameBits(got[est], want[est]) {
							t.Fatalf("%s: %s on the graph = %v, reference %v", where, est, got[est], want[est])
						}
						em, err := ExpectedMakespan(p, EvalOptions{Estimator: est, MCTrials: trials, MCSeed: mcSeed})
						if err != nil {
							t.Fatal(err)
						}
						if !sameBits(em, want[est]) {
							t.Fatalf("%s: ExpectedMakespan with %s = %v, reference %v", where, est, em, want[est])
						}
					}
				}
			}
		}
	}
}

func diffSegmentDAG(t *testing.T, where string, g, ref *probdag.Graph) {
	t.Helper()
	if g.Len() != ref.Len() {
		t.Fatalf("%s: %d segment nodes, reference %d", where, g.Len(), ref.Len())
	}
	for i := 0; i < g.Len(); i++ {
		v := probdag.NodeID(i)
		if !slices.Equal(g.Succ(v), ref.Succ(v)) || !slices.Equal(g.Pred(v), ref.Pred(v)) {
			t.Fatalf("%s: node %d has succ %v pred %v, reference succ %v pred %v",
				where, i, g.Succ(v), g.Pred(v), ref.Succ(v), ref.Pred(v))
		}
		d, rd := g.Dist(v), ref.Dist(v)
		if !slices.EqualFunc(d.Support(), rd.Support(), sameBits) || !slices.EqualFunc(d.Probs(), rd.Probs(), sameBits) {
			t.Fatalf("%s: node %d law %v/%v, reference %v/%v", where, i, d.Support(), d.Probs(), rd.Support(), rd.Probs())
		}
	}
}
