package ckpt

import (
	"math"
	"math/rand"
	"testing"

	"repro/internal/dist"
	"repro/internal/mspg"
	"repro/internal/pegasus"
	"repro/internal/platform"
	"repro/internal/sched"
	"repro/internal/wfdag"
)

// OptimalCheckpoints is Algorithm 2 on superchain sc under the
// first-order model.
func OptimalCheckpoints(s *sched.Schedule, p platform.Platform, sc *sched.Superchain) ChainDP {
	return optimalCheckpointsFromCosts(newChainCosts(s, p, sc), p.Lambda, ModelFirstOrder)
}

// SegmentsOf splits positions 0..n-1 into maximal runs ending at a
// checkpointed position. checkpointAfter[n-1] must be true.
func SegmentsOf(checkpointAfter []bool) [][2]int {
	var out [][2]int
	start := 0
	for pos, ck := range checkpointAfter {
		if ck {
			out = append(out, [2]int{start, pos})
			start = pos + 1
		}
	}
	return out
}

// ExpectedChainTime returns the first-order expected execution time of a
// superchain for a given checkpoint placement (not necessarily optimal):
// the sum over segments of T(i, j).
func ExpectedChainTime(cc *chainCosts, lambda float64, checkpointAfter []bool) float64 {
	total := 0.0
	for _, seg := range SegmentsOf(checkpointAfter) {
		r, w, c := cc.segmentCost(seg[0], seg[1])
		total += ModelFirstOrder.ExpectedTime(r+w+c, lambda)
	}
	return total
}

// bruteForceBest enumerates every checkpoint placement (last position
// forced) and returns the minimal expected chain time.
func bruteForceBest(cc *chainCosts, lambda float64) (float64, []bool) {
	n := cc.n
	best := math.Inf(1)
	var bestCk []bool
	for mask := 0; mask < 1<<(n-1); mask++ {
		ck := make([]bool, n)
		ck[n-1] = true
		for i := 0; i < n-1; i++ {
			ck[i] = mask&(1<<i) != 0
		}
		et := ExpectedChainTime(cc, lambda, ck)
		if et < best {
			best = et
			bestCk = ck
		}
	}
	return best, bestCk
}

func buildChainWorkflow(t *testing.T, rng *rand.Rand, n int) (*sched.Schedule, platform.Platform) {
	t.Helper()
	g := wfdag.New()
	var prev wfdag.TaskID
	var ids []wfdag.TaskID
	for i := 0; i < n; i++ {
		id := g.AddTask("t", "k", 1+9*rng.Float64())
		if i > 0 {
			g.Connect(prev, id, "f", 10+90*rng.Float64())
		}
		prev = id
		ids = append(ids, id)
	}
	w := &mspg.Workflow{Name: "chain", G: g, Root: mspg.NewChain(ids...)}
	if err := w.Validate(); err != nil {
		t.Fatal(err)
	}
	pf := platform.New(1, 0.002+0.01*rng.Float64(), 1)
	s, err := sched.Allocate(w, pf, sched.Options{Linearize: sched.DeterministicLinearizer})
	if err != nil {
		t.Fatal(err)
	}
	return s, pf
}

func TestDPOptimalOnChainsVsBruteForce(t *testing.T) {
	rng := rand.New(rand.NewSource(41))
	for trial := 0; trial < 30; trial++ {
		s, pf := buildChainWorkflow(t, rng, 3+rng.Intn(8))
		sc := s.Chains[0]
		cc := newChainCosts(s, pf, sc)
		dp := optimalCheckpointsFromCosts(cc, pf.Lambda, ModelFirstOrder)
		want, wantCk := bruteForceBest(cc, pf.Lambda)
		if math.Abs(dp.ExpectedTime-want) > 1e-9*math.Max(1, want) {
			t.Fatalf("trial %d: DP %g vs brute force %g (%v vs %v)",
				trial, dp.ExpectedTime, want, dp.CheckpointAfter, wantCk)
		}
		// The DP's own placement must reproduce its claimed value.
		if et := ExpectedChainTime(cc, pf.Lambda, dp.CheckpointAfter); math.Abs(et-dp.ExpectedTime) > 1e-9 {
			t.Fatalf("trial %d: placement worth %g, DP claims %g", trial, et, dp.ExpectedTime)
		}
	}
}

func TestDPOptimalOnRealSuperchains(t *testing.T) {
	rng := rand.New(rand.NewSource(43))
	for _, fam := range pegasus.PaperFamilies() {
		w, err := pegasus.Generate(fam, pegasus.Options{Tasks: 60, Seed: 14})
		if err != nil {
			t.Fatal(err)
		}
		pf := platform.New(4, 0, 1e6).WithLambdaForPFail(0.01, w.G)
		pf.ScaleToCCR(w.G, 0.1)
		s, err := sched.Allocate(w, pf, sched.Options{Rng: rng})
		if err != nil {
			t.Fatal(err)
		}
		for _, sc := range s.Chains {
			if len(sc.Tasks) < 2 || len(sc.Tasks) > 14 {
				continue // brute force only on moderate chains
			}
			cc := newChainCosts(s, pf, sc)
			dp := optimalCheckpointsFromCosts(cc, pf.Lambda, ModelFirstOrder)
			want, _ := bruteForceBest(cc, pf.Lambda)
			if math.Abs(dp.ExpectedTime-want) > 1e-9*math.Max(1, want) {
				t.Fatalf("%s chain %d: DP %g vs brute %g", fam, sc.Index, dp.ExpectedTime, want)
			}
		}
	}
}

func TestDPAlwaysCheckpointsLastTask(t *testing.T) {
	rng := rand.New(rand.NewSource(47))
	for trial := 0; trial < 20; trial++ {
		s, pf := buildChainWorkflow(t, rng, 2+rng.Intn(10))
		dp := OptimalCheckpoints(s, pf, s.Chains[0])
		if !dp.CheckpointAfter[len(dp.CheckpointAfter)-1] {
			t.Fatal("the last task of a superchain must always be checkpointed")
		}
	}
}

func TestDPEmptyChain(t *testing.T) {
	dp := optimalCheckpointsFromCosts(&chainCosts{}, 0.01, ModelFirstOrder)
	if dp.ExpectedTime != 0 || len(dp.CheckpointAfter) != 0 {
		t.Fatalf("empty chain DP = %+v", dp)
	}
}

func TestDPSingleTask(t *testing.T) {
	g := wfdag.New()
	a := g.AddTask("a", "k", 10)
	w := &mspg.Workflow{Name: "one", G: g, Root: mspg.NewAtomic(a)}
	pf := platform.New(1, 1e-3, 1)
	s, err := sched.Allocate(w, pf, sched.Options{})
	if err != nil {
		t.Fatal(err)
	}
	dp := OptimalCheckpoints(s, pf, s.Chains[0])
	if len(dp.CheckpointAfter) != 1 || !dp.CheckpointAfter[0] {
		t.Fatalf("single task DP = %+v", dp)
	}
	if want := dist.FirstOrderExpected(10, 1e-3); math.Abs(dp.ExpectedTime-want) > 1e-12 {
		t.Fatalf("ETime = %g, want %g", dp.ExpectedTime, want)
	}
}

func TestDPNoFailuresMeansFewCheckpoints(t *testing.T) {
	// With lambda=0 and expensive checkpoints, only the mandatory final
	// checkpoint should remain.
	rng := rand.New(rand.NewSource(53))
	g := wfdag.New()
	var ids []wfdag.TaskID
	var prev wfdag.TaskID
	for i := 0; i < 8; i++ {
		id := g.AddTask("t", "k", 1)
		if i > 0 {
			g.Connect(prev, id, "f", 1000)
		}
		prev = id
		ids = append(ids, id)
	}
	w := &mspg.Workflow{Name: "chain", G: g, Root: mspg.NewChain(ids...)}
	pf := platform.New(1, 0, 1)
	s, err := sched.Allocate(w, pf, sched.Options{Rng: rng})
	if err != nil {
		t.Fatal(err)
	}
	dp := OptimalCheckpoints(s, pf, s.Chains[0])
	count := 0
	for _, c := range dp.CheckpointAfter {
		if c {
			count++
		}
	}
	if count != 1 {
		t.Fatalf("lambda=0 must checkpoint only the forced end, got %d (%v)", count, dp.CheckpointAfter)
	}
}

func TestDPHighFailureCheckpointsEverything(t *testing.T) {
	// With a very high failure rate and nearly free checkpoints, every
	// task should be checkpointed.
	g := wfdag.New()
	var ids []wfdag.TaskID
	var prev wfdag.TaskID
	for i := 0; i < 6; i++ {
		id := g.AddTask("t", "k", 100)
		if i > 0 {
			g.Connect(prev, id, "f", 1e-6)
		}
		prev = id
		ids = append(ids, id)
	}
	w := &mspg.Workflow{Name: "chain", G: g, Root: mspg.NewChain(ids...)}
	pf := platform.New(1, 0.004, 1) // λ·w = 0.4 per task
	s, err := sched.Allocate(w, pf, sched.Options{})
	if err != nil {
		t.Fatal(err)
	}
	dp := OptimalCheckpoints(s, pf, s.Chains[0])
	for pos, c := range dp.CheckpointAfter {
		if !c {
			t.Fatalf("position %d not checkpointed under extreme failure rate (%v)", pos, dp.CheckpointAfter)
		}
	}
}

func TestSegmentsOf(t *testing.T) {
	segs := SegmentsOf([]bool{false, true, false, false, true})
	want := [][2]int{{0, 1}, {2, 4}}
	if len(segs) != 2 || segs[0] != want[0] || segs[1] != want[1] {
		t.Fatalf("segments = %v", segs)
	}
	if segs := SegmentsOf([]bool{true, true}); len(segs) != 2 {
		t.Fatalf("all-checkpoint segments = %v", segs)
	}
}

func TestExpectedChainTimeMonotoneInLambda(t *testing.T) {
	rng := rand.New(rand.NewSource(59))
	s, _ := buildChainWorkflow(t, rng, 7)
	sc := s.Chains[0]
	prev := 0.0
	for i, lam := range []float64{0, 1e-5, 1e-4, 1e-3} {
		pf := platform.New(1, lam, 1)
		cc := newChainCosts(s, pf, sc)
		dp := optimalCheckpointsFromCosts(cc, lam, ModelFirstOrder)
		if i > 0 && dp.ExpectedTime < prev-1e-9 {
			t.Fatalf("optimal expected time must grow with lambda: %g < %g", dp.ExpectedTime, prev)
		}
		prev = dp.ExpectedTime
	}
}
