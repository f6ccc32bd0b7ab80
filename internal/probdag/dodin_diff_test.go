package probdag_test

import (
	"context"
	"fmt"
	"math"
	"math/rand"
	"testing"

	"repro/internal/ckpt"
	"repro/internal/core"
	"repro/internal/dist"
	"repro/internal/pegasus"
	"repro/internal/platform"
	"repro/internal/probdag"
)

// requireSameDodin runs the reducer and the full-sort reference on g and
// fails unless both return the same error text or distributions whose
// atoms agree bit for bit.
func requireSameDodin(t *testing.T, tag string, g *probdag.Graph, opts probdag.DodinOptions) {
	t.Helper()
	got, err := probdag.DodinDistribution(g, opts)
	want, wantErr := refDodinDistribution(g, opts)
	if fmt.Sprint(err) != fmt.Sprint(wantErr) {
		t.Fatalf("%s: error %v, reference %v", tag, err, wantErr)
	}
	if wantErr != nil {
		return
	}
	gv, gp := got.Support(), got.Probs()
	wv, wp := want.Support(), want.Probs()
	if len(gv) != len(wv) {
		t.Fatalf("%s: %d atoms, reference %d", tag, len(gv), len(wv))
	}
	for i := range wv {
		if math.Float64bits(gv[i]) != math.Float64bits(wv[i]) ||
			math.Float64bits(gp[i]) != math.Float64bits(wp[i]) {
			t.Fatalf("%s: atom %d is (%v, %v), reference (%v, %v)", tag, i, gv[i], gp[i], wv[i], wp[i])
		}
	}
}

// segmentDAG plans one generated workflow the way the daemon's defaults
// do and returns its segment DAG.
func segmentDAG(t *testing.T, family string, tasks int, seed int64, strategy ckpt.Strategy) *probdag.Graph {
	t.Helper()
	w, err := pegasus.Generate(family, pegasus.Options{Tasks: tasks, Seed: seed})
	if err != nil {
		t.Fatal(err)
	}
	pf := platform.New(35, 0, 1e8).WithLambdaForPFail(0.001, w.G)
	pf.ScaleToCCR(w.G, 0.01)
	res, err := core.Run(context.Background(), w, pf, core.Config{Strategy: strategy, Seed: seed})
	if err != nil {
		t.Fatal(err)
	}
	g, err := ckpt.EvalDAG(res.Plan)
	if err != nil {
		t.Fatal(err)
	}
	return g
}

// TestDodinMatchesFullSortReducer is the differential test of the
// incremental parallel pass: on real segment DAGs of every family, both
// strategies and three MaxBins, Dodin must reproduce the full-sort
// reducer bit for bit, and a tiny Budget must fail with the same text.
// -short keeps one seed and the 50-task workflows.
func TestDodinMatchesFullSortReducer(t *testing.T) {
	sizes, seeds := []int{50, 300}, []int64{1, 2, 3}
	if testing.Short() {
		sizes, seeds = sizes[:1], seeds[:1]
	}
	for _, family := range pegasus.Families() {
		for _, tasks := range sizes {
			for _, seed := range seeds {
				for _, strategy := range []ckpt.Strategy{ckpt.CkptSome, ckpt.CkptAll} {
					g := segmentDAG(t, family, tasks, seed, strategy)
					for _, bins := range []int{16, 64, 256} {
						tag := fmt.Sprintf("%s/%d/seed%d/%v/bins%d", family, tasks, seed, strategy, bins)
						requireSameDodin(t, tag, g, probdag.DodinOptions{MaxBins: bins})
					}
					for _, budget := range []int{1, 7, 40} {
						tag := fmt.Sprintf("%s/%d/seed%d/%v/budget%d", family, tasks, seed, strategy, budget)
						requireSameDodin(t, tag, g, probdag.DodinOptions{Budget: budget})
					}
				}
			}
		}
	}
}

// randomForest builds a DAG of several components, each with its own
// sources and sinks and some of them single isolated nodes. Ids are
// shuffled so they do not follow the topological order, and the laws
// sit on a coarse grid so parallel folds meet tied atoms.
func randomForest(rng *rand.Rand) *probdag.Graph {
	g := probdag.NewGraph()
	n := 2 + rng.Intn(28)
	for i := 0; i < n; i++ {
		k := 1 + rng.Intn(3)
		vals, probs := make([]float64, k), make([]float64, k)
		for j := range vals {
			vals[j] = float64(1 + rng.Intn(12))
			probs[j] = 0.1 + rng.Float64()
		}
		g.AddNode("t", dist.New(vals, probs))
	}
	perm := rng.Perm(n)
	comps := 1 + rng.Intn(5)
	comp := make([]int, n)
	for i := range comp {
		comp[i] = rng.Intn(comps)
	}
	p := 0.1 + 0.3*rng.Float64()
	for i := 0; i < n; i++ {
		for j := i + 1; j < n; j++ {
			if comp[i] == comp[j] && rng.Float64() < p {
				g.AddEdge(probdag.NodeID(perm[i]), probdag.NodeID(perm[j]))
			}
		}
	}
	return g
}

// TestDodinMatchesFullSortReducerRandom runs the differential test on
// random multi-component DAGs, which reach the isolated-node groups that
// segment DAGs (one component) never form.
func TestDodinMatchesFullSortReducerRandom(t *testing.T) {
	rng := rand.New(rand.NewSource(83))
	for trial := 0; trial < 2000; trial++ {
		g := randomForest(rng)
		for _, opts := range []probdag.DodinOptions{{MaxBins: 16}, {}, {Budget: 1 + rng.Intn(30)}} {
			requireSameDodin(t, fmt.Sprintf("trial %d %+v", trial, opts), g, opts)
		}
	}
}
