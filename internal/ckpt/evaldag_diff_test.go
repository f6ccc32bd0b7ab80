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
// one block, edges packed by probdag.FromEdges) to the reference built
// from one SegmentDist law per segment and the map-based reference
// edges, on every family × {CkptSome, CkptAll, ExitOnly} × both cost
// models × three seeds: the edges in order, bit-equal supports and
// probabilities, and bit-equal PathApprox, Normal, Dodin and seeded
// Monte Carlo estimates, both on the graph and through
// ExpectedMakespan.
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
					refDeps := refSegmentDeps(p)
					diffSegmentDAG(t, where, p, refDeps)
					want := estimates(t, refSegmentDAG(p, refDeps), trials, mcSeed)
					got := estimates(t, g, trials, mcSeed)
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

// estimates runs the four estimators on g, Monte Carlo from seed.
func estimates(t *testing.T, g *probdag.Graph, trials int, seed int64) map[Estimator]float64 {
	t.Helper()
	ev, err := probdag.NewEvaluator(g)
	if err != nil {
		t.Fatal(err)
	}
	dodin, err := ev.Dodin(probdag.DodinOptions{})
	if err != nil {
		t.Fatal(err)
	}
	return map[Estimator]float64{
		EstPathApprox: ev.PathApprox(),
		EstNormal:     ev.Normal(),
		EstDodin:      dodin,
		EstMonteCarlo: ev.MonteCarlo(trials, rand.New(rand.NewSource(seed))).Mean,
	}
}

// diffSegmentDAG checks what EvalDAG hands probdag.FromEdges: the
// segment edges in order, and each segment's law bit for bit against
// SegmentDist.
func diffSegmentDAG(t *testing.T, where string, p *Plan, refDeps [][2]int) {
	t.Helper()
	if deps := SegmentDeps(p); !slices.Equal(deps, refDeps) {
		t.Fatalf("%s: segment edges differ from the reference (%d vs %d)", where, len(deps), len(refDeps))
	}
	laws := segmentLaws(p)
	if len(laws) != len(p.Segments) {
		t.Fatalf("%s: %d segment laws, %d segments", where, len(laws), len(p.Segments))
	}
	for i, d := range laws {
		rd := p.Model.SegmentDist(p.Segments[i].Span(), p.Platform.Lambda)
		if !slices.EqualFunc(d.Support(), rd.Support(), sameBits) || !slices.EqualFunc(d.Probs(), rd.Probs(), sameBits) {
			t.Fatalf("%s: node %d law %v/%v, reference %v/%v", where, i, d.Support(), d.Probs(), rd.Support(), rd.Probs())
		}
	}
}
