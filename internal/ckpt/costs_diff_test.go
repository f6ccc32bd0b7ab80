package ckpt

import (
	"fmt"
	"math"
	"math/rand"
	"slices"
	"testing"

	"repro/internal/dist"
	"repro/internal/pegasus"
	"repro/internal/platform"
	"repro/internal/probdag"
	"repro/internal/sched"
)

// TestChainCostsMatchReference pins the one-table-per-chain cost
// bookkeeping bit-for-bit to the map-based reference of
// costs_ref_test.go on every family at 50 and 300 tasks and three
// seeds: span tables and segment R/W/C per chain, then whole plans
// (marks, segments, segment edges, expected makespan) for CkptSome,
// CkptAll, ExitOnly and Periodic(3) under both cost models.
func TestChainCostsMatchReference(t *testing.T) {
	for _, fam := range pegasus.Families() {
		for _, tasks := range []int{50, 300} {
			for seed := int64(1); seed <= 3; seed++ {
				name := fmt.Sprintf("%s/%d/seed%d", fam, tasks, seed)
				s, pf := diffSchedule(t, fam, tasks, seed)
				for _, sc := range s.Chains {
					diffChainCosts(t, name, s, pf, sc)
				}
				for _, model := range []CostModel{ModelFirstOrder, ModelExact} {
					for _, strat := range []Strategy{CkptSome, CkptAll, ExitOnly} {
						got, err := BuildPlanWith(s, pf, strat, model)
						if err != nil {
							t.Fatal(err)
						}
						where := fmt.Sprintf("%s %s/%s", name, strat, model)
						diffPlans(t, where, got, refPlan(s, pf, strat, model, 0))
					}
					got, err := PeriodicPlan(s, pf, 3)
					if err != nil {
						t.Fatal(err)
					}
					got.Model = model
					want := refPlan(s, pf, got.Strategy, model, 3)
					diffPlans(t, fmt.Sprintf("%s %s/%s", name, got.Strategy, model), got, want)
				}
			}
		}
	}
}

// diffSchedule allocates seed's workflow on the paper's smallest
// processor count for its size (the longest superchains), at a pfail
// and CCR that vary with the seed.
func diffSchedule(t *testing.T, fam string, tasks int, seed int64) (*sched.Schedule, platform.Platform) {
	t.Helper()
	w, err := pegasus.Generate(fam, pegasus.Options{Tasks: tasks, Seed: seed})
	if err != nil {
		t.Fatal(err)
	}
	pfail := []float64{1e-4, 1e-3, 1e-2}[seed%3]
	ccr := []float64{1e-3, 1e-1, 1}[seed%3]
	pf := platform.New(pegasus.PaperProcessorCounts(tasks)[0], 0, 1e8).WithLambdaForPFail(pfail, w.G)
	pf.ScaleToCCR(w.G, ccr)
	s, err := sched.Allocate(w, pf, sched.Options{Rng: rand.New(rand.NewSource(seed))})
	if err != nil {
		t.Fatal(err)
	}
	return s, pf
}

func diffChainCosts(t *testing.T, name string, s *sched.Schedule, pf platform.Platform, sc *sched.Superchain) {
	t.Helper()
	cc, ref := newChainCosts(s, pf, sc), newRefChainCosts(s, pf, sc)
	if cc.n != ref.n {
		t.Fatalf("%s chain %d: %d positions, reference %d", name, sc.Index, cc.n, ref.n)
	}
	span, refSpan := cc.segmentTable(), ref.segmentTable()
	for i := 0; i < cc.n; i++ {
		for j := i; j < cc.n; j++ {
			if got, want := span.at(i, j), refSpan[i][j-i]; !sameBits(got, want) {
				t.Fatalf("%s chain %d: span[%d][%d] = %v, reference %v", name, sc.Index, i, j, got, want)
			}
			r, w, c := cc.segmentCost(i, j)
			rr, rw, rc := ref.segmentCost(i, j)
			if !sameBits(r, rr) || !sameBits(w, rw) || !sameBits(c, rc) {
				t.Fatalf("%s chain %d: segment [%d,%d] R/W/C = %v/%v/%v, reference %v/%v/%v",
					name, sc.Index, i, j, r, w, c, rr, rw, rc)
			}
		}
	}
}

func diffPlans(t *testing.T, where string, got, want *Plan) {
	t.Helper()
	if !slices.Equal(got.CheckpointAfter, want.CheckpointAfter) {
		t.Fatalf("%s: checkpoint marks differ from the reference", where)
	}
	if !slices.Equal(got.segOf, want.segOf) || len(got.Segments) != len(want.Segments) {
		t.Fatalf("%s: %d segments, reference %d", where, len(got.Segments), len(want.Segments))
	}
	for i, g := range got.Segments {
		w := want.Segments[i]
		if g.Index != w.Index || g.Chain != w.Chain || g.Proc != w.Proc || !slices.Equal(g.Tasks, w.Tasks) ||
			!sameBits(g.R, w.R) || !sameBits(g.W, w.W) || !sameBits(g.C, w.C) {
			t.Fatalf("%s: segment %d = %+v, reference %+v", where, i, g, w)
		}
	}
	deps, refDeps := SegmentDeps(got), refSegmentDeps(want)
	if !slices.Equal(deps, refDeps) {
		t.Fatalf("%s: segment edges differ from the reference (%d vs %d)", where, len(deps), len(refDeps))
	}
	em, err := ExpectedMakespan(got, EvalOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if refEM := refExpectedMakespan(want, refDeps); !sameBits(em, refEM) {
		t.Fatalf("%s: expected makespan %v, reference %v", where, em, refEM)
	}
}

// refExpectedMakespan is ExpectedMakespan's PathApprox path over the
// reference segment edges.
func refExpectedMakespan(p *Plan, deps [][2]int) float64 {
	ev, err := probdag.NewEvaluator(refSegmentDAG(p, deps))
	if err != nil {
		panic(err)
	}
	return ev.PathApprox()
}

// refSegmentDAG builds the segment DAG from one SegmentDist law per
// segment and the given edges.
func refSegmentDAG(p *Plan, deps [][2]int) *probdag.Graph {
	laws := make([]*dist.Discrete, len(p.Segments))
	for i, seg := range p.Segments {
		laws[i] = p.Model.SegmentDist(seg.Span(), p.Platform.Lambda)
	}
	g, err := probdag.FromEdges(laws, deps)
	if err != nil {
		panic(err)
	}
	return g
}

func sameBits(a, b float64) bool { return math.Float64bits(a) == math.Float64bits(b) }
