package ckpt

import (
	"math/rand"
	"testing"

	"repro/internal/pegasus"
	"repro/internal/platform"
	"repro/internal/sched"
)

func realSchedule(t *testing.T, fam string, tasks, procs int, pfail, ccr float64) (*sched.Schedule, platform.Platform) {
	t.Helper()
	w, err := pegasus.Generate(fam, pegasus.Options{Tasks: tasks, Seed: 23})
	if err != nil {
		t.Fatal(err)
	}
	pf := platform.New(procs, 0, 1e8).WithLambdaForPFail(pfail, w.G)
	pf.ScaleToCCR(w.G, ccr)
	s, err := sched.Allocate(w, pf, sched.Options{Rng: rand.New(rand.NewSource(7))})
	if err != nil {
		t.Fatal(err)
	}
	return s, pf
}

func TestBuildPlanCkptAll(t *testing.T) {
	s, pf := realSchedule(t, "genome", 100, 5, 0.001, 0.01)
	p, err := BuildPlanWith(s, pf, CkptAll, ModelFirstOrder)
	if err != nil {
		t.Fatal(err)
	}
	if err := p.Validate(); err != nil {
		t.Fatal(err)
	}
	if p.NumCheckpoints() != s.W.G.NumTasks() {
		t.Fatalf("CkptAll checkpoints %d of %d", p.NumCheckpoints(), s.W.G.NumTasks())
	}
	if len(p.Segments) != s.W.G.NumTasks() {
		t.Fatalf("CkptAll must have one segment per task, got %d", len(p.Segments))
	}
	for _, seg := range p.Segments {
		if len(seg.Tasks) != 1 {
			t.Fatalf("segment %d has %d tasks", seg.Index, len(seg.Tasks))
		}
	}
}

func TestBuildPlanExitOnly(t *testing.T) {
	s, pf := realSchedule(t, "genome", 100, 5, 0.001, 0.01)
	p, err := BuildPlanWith(s, pf, ExitOnly, ModelFirstOrder)
	if err != nil {
		t.Fatal(err)
	}
	if err := p.Validate(); err != nil {
		t.Fatal(err)
	}
	if len(p.Segments) != len(s.Chains) {
		t.Fatalf("ExitOnly must have one segment per superchain: %d vs %d", len(p.Segments), len(s.Chains))
	}
}

func TestBuildPlanCkptSomeExitGuarantee(t *testing.T) {
	s, pf := realSchedule(t, "montage", 150, 7, 0.001, 0.1)
	p, err := BuildPlanWith(s, pf, CkptSome, ModelFirstOrder)
	if err != nil {
		t.Fatal(err)
	}
	if err := p.Validate(); err != nil {
		t.Fatal(err)
	}
	// Every superchain's last task is checkpointed (crossover-dependency
	// avoidance).
	for _, sc := range s.Chains {
		last := sc.Tasks[len(sc.Tasks)-1]
		if !p.CheckpointAfter[last] {
			t.Fatalf("chain %d last task %d not checkpointed", sc.Index, last)
		}
	}
}

func TestBuildPlanCkptNoneHasNoSegments(t *testing.T) {
	s, pf := realSchedule(t, "ligo", 100, 5, 0.001, 0.01)
	p, err := BuildPlanWith(s, pf, CkptNone, ModelFirstOrder)
	if err != nil {
		t.Fatal(err)
	}
	if len(p.Segments) != 0 || p.NumCheckpoints() != 0 {
		t.Fatal("CkptNone must have no segments or checkpoints")
	}
	if _, err := EvalDAG(p); err == nil {
		t.Fatal("EvalDAG must refuse CkptNone")
	}
	em, err := ExpectedMakespan(p, EvalOptions{})
	if err != nil || em <= 0 {
		t.Fatalf("Theorem1 path failed: %g, %v", em, err)
	}
}

func TestBuildPlanUnknownStrategy(t *testing.T) {
	s, pf := realSchedule(t, "genome", 60, 3, 0.001, 0.01)
	if _, err := BuildPlanWith(s, pf, Strategy("Bogus"), ModelFirstOrder); err == nil {
		t.Fatal("unknown strategy must error")
	}
}

func TestPeriodicPlan(t *testing.T) {
	s, pf := realSchedule(t, "genome", 100, 5, 0.001, 0.01)
	p, err := PeriodicPlan(s, pf, 3)
	if err != nil {
		t.Fatal(err)
	}
	if err := p.Validate(); err != nil {
		t.Fatal(err)
	}
	for _, sc := range s.Chains {
		for pos, task := range sc.Tasks {
			wantCk := (pos+1)%3 == 0 || pos == len(sc.Tasks)-1
			if p.CheckpointAfter[task] != wantCk {
				t.Fatalf("chain %d pos %d: checkpoint=%v, want %v", sc.Index, pos, p.CheckpointAfter[task], wantCk)
			}
		}
	}
	if _, err := PeriodicPlan(s, pf, 0); err == nil {
		t.Fatal("period 0 must error")
	}
}

func TestCkptSomeNeverWorseThanBaselinePlacements(t *testing.T) {
	// On the same schedule, the DP-optimal plan's per-chain expected
	// time is (by optimality) no worse than CkptAll's or ExitOnly's:
	// compare total expected chain times.
	for _, fam := range pegasus.PaperFamilies() {
		for _, ccr := range []float64{0.001, 0.1, 1} {
			s, pf := realSchedule(t, fam, 120, 5, 0.01, ccr)
			sumFor := func(strat Strategy) float64 {
				p, err := BuildPlanWith(s, pf, strat, ModelFirstOrder)
				if err != nil {
					t.Fatal(err)
				}
				total := 0.0
				for _, sc := range s.Chains {
					cc := newChainCosts(s, pf, sc)
					ck := make([]bool, len(sc.Tasks))
					for pos, task := range sc.Tasks {
						ck[pos] = p.CheckpointAfter[task]
					}
					ck[len(ck)-1] = true
					total += ExpectedChainTime(cc, pf.Lambda, ck)
				}
				return total
			}
			some := sumFor(CkptSome)
			for _, other := range []Strategy{CkptAll, ExitOnly} {
				if v := sumFor(other); some > v+1e-6*v {
					t.Fatalf("%s ccr=%g: CkptSome chain total %g worse than %s %g", fam, ccr, some, other, v)
				}
			}
		}
	}
}

func TestPlanAccountors(t *testing.T) {
	s, pf := realSchedule(t, "montage", 100, 5, 0.001, 0.1)
	p, err := BuildPlanWith(s, pf, CkptSome, ModelFirstOrder)
	if err != nil {
		t.Fatal(err)
	}
	for _, seg := range p.Segments {
		if seg.C < 0 || seg.R < 0 {
			t.Fatal("negative accounting")
		}
	}
	for i := 0; i < s.W.G.NumTasks(); i++ {
		si := p.segOf[i]
		if si < 0 || si >= len(p.Segments) {
			t.Fatalf("task %d has bad segment %d", i, si)
		}
	}
}
