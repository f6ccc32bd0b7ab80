package sim

import (
	"context"
	"fmt"
	"math"
	"math/rand"
	"strings"
	"testing"

	"repro/internal/ckpt"
	"repro/internal/mspg"
	"repro/internal/pegasus"
	"repro/internal/platform"
	"repro/internal/sched"
	"repro/internal/wfdag"
)

// refRunner is the simulator the fixed step order replaced: every trial
// scans the processors round by round, running each one's segments
// while their predecessors are done, and reports a deadlock when a
// round makes no progress.
type refRunner struct {
	p        *ckpt.Plan
	preds    [][]int
	procSegs [][]int
}

func newRefRunner(p *ckpt.Plan) *refRunner {
	preds := make([][]int, len(p.Segments))
	for _, e := range ckpt.SegmentDeps(p) {
		preds[e[1]] = append(preds[e[1]], e[0])
	}
	segsByChain := make(map[int][]int)
	for i, seg := range p.Segments {
		segsByChain[seg.Chain] = append(segsByChain[seg.Chain], i)
	}
	procSegs := make([][]int, p.Platform.Processors)
	for proc := range procSegs {
		for _, ci := range p.Sched.ProcSequence(proc) {
			procSegs[proc] = append(procSegs[proc], segsByChain[ci]...)
		}
	}
	return &refRunner{p: p, preds: preds, procSegs: procSegs}
}

func (r *refRunner) runWith(fs FailureSource) (Result, error) {
	p := r.p
	finish, done := make([]float64, len(p.Segments)), make([]bool, len(p.Segments))
	clock, cursor := make([]float64, len(r.procSegs)), make([]int, len(r.procSegs))
	res := Result{}
	remaining := len(p.Segments)
	for remaining > 0 {
		progressed := false
		for proc := range r.procSegs {
			for cursor[proc] < len(r.procSegs[proc]) {
				si := r.procSegs[proc][cursor[proc]]
				ready := clock[proc]
				ok := true
				for _, pr := range r.preds[si] {
					if !done[pr] {
						ok = false
						break
					}
					if finish[pr] > ready {
						ready = finish[pr]
					}
				}
				if !ok {
					break
				}
				end, fails := executeWithFailures(fs, proc, ready, p.Segments[si].Span())
				res.Failures += fails
				finish[si] = end
				done[si] = true
				clock[proc] = end
				cursor[proc]++
				remaining--
				progressed = true
			}
		}
		if !progressed {
			return Result{}, fmt.Errorf("sim: deadlock with %d segments remaining", remaining)
		}
	}
	for _, f := range finish {
		if f > res.Makespan {
			res.Makespan = f
		}
	}
	return res, nil
}

// generatedPlan plans one generated workflow under a strategy (k > 0
// selects PeriodicPlan with period k).
func generatedPlan(t *testing.T, family string, tasks, procs int, seed int64, pfail float64, strat ckpt.Strategy, k int) *ckpt.Plan {
	t.Helper()
	w, err := pegasus.Generate(family, pegasus.Options{Tasks: tasks, Seed: seed})
	if err != nil {
		t.Fatal(err)
	}
	pf := platform.New(procs, 0, 1e8).WithLambdaForPFail(pfail, w.G)
	pf.ScaleToCCR(w.G, 0.05)
	s, err := sched.Allocate(w, pf, sched.Options{Rng: rand.New(rand.NewSource(seed))})
	if err != nil {
		t.Fatal(err)
	}
	var p *ckpt.Plan
	if k > 0 {
		p, err = ckpt.PeriodicPlan(s, pf, k)
	} else {
		p, err = ckpt.BuildPlanWith(s, pf, strat, ckpt.ModelFirstOrder)
	}
	if err != nil {
		t.Fatal(err)
	}
	return p
}

// randomTrace scripts a few failures per processor over [0, horizon).
func randomTrace(rng *rand.Rand, procs int, horizon float64) *TraceFailures {
	tf := &TraceFailures{Times: make([][]float64, procs)}
	for proc := range tf.Times {
		t := 0.0
		for i := rng.Intn(5); i > 0; i-- {
			t += rng.Float64() * horizon / 3
			tf.Times[proc] = append(tf.Times[proc], t)
		}
	}
	return tf
}

// TestRunnerMatchesReference checks the fixed step order against the
// round-by-round simulator it replaced, trial by trial and bit for bit,
// on generated plans of every paper family under CkptSome, CkptAll,
// ExitOnly and a periodic strategy, with Poisson, scripted and no
// failures.
func TestRunnerMatchesReference(t *testing.T) {
	cases := 0
	for _, fam := range pegasus.PaperFamilies() {
		for _, c := range []struct {
			strat ckpt.Strategy
			k     int
		}{{ckpt.CkptSome, 0}, {ckpt.CkptAll, 0}, {ckpt.ExitOnly, 0}, {"", 3}} {
			for seed := int64(1); seed <= 2; seed++ {
				p := generatedPlan(t, fam, 60, 4, seed, 0.05, c.strat, c.k)
				tag := fmt.Sprintf("%s/%s/k=%d/seed=%d", fam, c.strat, c.k, seed)
				r, err := NewRunner(p)
				if err != nil {
					t.Fatalf("%s: %v", tag, err)
				}
				ref := newRefRunner(p)
				same := func(trial string, got Result, err error, want Result, wantErr error) {
					t.Helper()
					if err != nil || wantErr != nil {
						t.Fatalf("%s %s: error %v, reference %v", tag, trial, err, wantErr)
					}
					if math.Float64bits(got.Makespan) != math.Float64bits(want.Makespan) || got.Failures != want.Failures {
						t.Fatalf("%s %s: %+v, reference %+v", tag, trial, got, want)
					}
				}
				got, err := r.RunWith(NoFailures{})
				want, wantErr := ref.runWith(NoFailures{})
				same("no failures", got, err, want, wantErr)
				horizon := want.Makespan
				rngA, rngB := rand.New(rand.NewSource(seed)), rand.New(rand.NewSource(seed))
				traces := rand.New(rand.NewSource(seed + 100))
				for trial := 0; trial < 40; trial++ {
					got, err := r.Run(rngA)
					want, wantErr := ref.runWith(NewPoissonFailures(p.Platform.Processors, p.Platform.Lambda, rngB))
					same(fmt.Sprintf("poisson trial %d", trial), got, err, want, wantErr)
					tf := randomTrace(traces, p.Platform.Processors, horizon)
					got, err = r.RunWith(tf)
					want, wantErr = ref.runWith(tf)
					same(fmt.Sprintf("trace trial %d", trial), got, err, want, wantErr)
				}
				cases++
			}
		}
	}
	t.Logf("%d plans checked", cases)
}

// deadlockedPlan hand-builds a plan whose processor sequence
// contradicts a dependency: task a feeds task b, but the one processor
// runs b's superchain before a's.
func deadlockedPlan(t *testing.T) *ckpt.Plan {
	t.Helper()
	g := wfdag.New()
	a := g.AddTask("a", "k", 10)
	b := g.AddTask("b", "k", 10)
	g.Connect(a, b, "f", 1)
	w := &mspg.Workflow{Name: "deadlock", G: g, Root: mspg.NewChain(a, b)}
	if err := w.Validate(); err != nil {
		t.Fatal(err)
	}
	pf := platform.New(1, 0.01, 1)
	s, err := sched.Rebuild(w, pf, []int{0, 0}, [][]wfdag.TaskID{{b}, {a}})
	if err != nil {
		t.Fatal(err)
	}
	p, err := ckpt.BuildPlanWith(s, pf, ckpt.CkptAll, ckpt.ModelFirstOrder)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := newRefRunner(p).runWith(NoFailures{}); err == nil || !strings.Contains(err.Error(), "deadlock") {
		t.Fatalf("reference simulator: %v, want a deadlock", err)
	}
	return p
}

// TestDeadlockReportedAtConstruction checks that a deadlocking plan is
// an error, not a panic, from NewRunner, RunPlan and the chunked
// estimator, whatever the worker and trial counts.
func TestDeadlockReportedAtConstruction(t *testing.T) {
	p := deadlockedPlan(t)
	if r, err := NewRunner(p); err == nil || !strings.Contains(err.Error(), "deadlock") || r != nil {
		t.Fatalf("NewRunner: %v, %v; want a deadlock error and no runner", r, err)
	}
	if _, err := RunPlan(p, NoFailures{}); err == nil || !strings.Contains(err.Error(), "deadlock") {
		t.Fatalf("RunPlan: %v, want a deadlock error", err)
	}
	for _, workers := range []int{1, 3} {
		for _, trials := range []int{0, 10} {
			if _, _, err := EstimateExpectedDetail(context.Background(), p, trials, 1, workers); err == nil || !strings.Contains(err.Error(), "deadlock") {
				t.Fatalf("EstimateExpectedDetail(workers=%d, trials=%d): %v, want a deadlock error", workers, trials, err)
			}
		}
	}
}
