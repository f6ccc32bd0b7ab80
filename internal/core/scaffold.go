package core

import (
	"context"

	"repro/internal/mspg"
	"repro/internal/platform"
	"repro/internal/sched"
	"repro/internal/wfdag"
)

// Scaffold is what stages 1 and 2 produce, shared by every (pfail,
// CCR) variant of one (workflow, p): the workflow with its recognized
// M-SPG tree and the generator's own file sizes, and Algorithm 1's
// superchains archived as (proc, tasks). Rebuild and Tail consume a
// scaffold, so a shared one is only ever handed to them as a Copy.
type Scaffold struct {
	W      *mspg.Workflow
	Procs  []int
	Chains [][]wfdag.TaskID
}

// Params are the platform parameters stage 3 calibrates to.
type Params struct {
	Procs                 int
	Bandwidth, PFail, CCR float64
}

// NewScaffold runs stage 2, Algorithm 1 with the paper's random
// linearization seeded by seed, on w over procs processors, and adopts
// w. It takes no linearizer, so the superchains never depend on the
// file sizes stage 3 rescales (see BuildSchedule).
func NewScaffold(w *mspg.Workflow, procs int, bandwidth float64, seed int64) (*Scaffold, error) {
	// λ is calibrated in stage 3; 0 only has to pass Allocate's
	// platform validation.
	s, err := BuildSchedule(w, platform.New(procs, 0, bandwidth), Config{Seed: seed})
	if err != nil {
		return nil, err
	}
	sf := &Scaffold{W: w, Procs: make([]int, len(s.Chains)), Chains: make([][]wfdag.TaskID, len(s.Chains))}
	for i, c := range s.Chains {
		sf.Procs[i], sf.Chains[i] = c.Proc, c.Tasks // s is dropped: adopt its slices
	}
	return sf, nil
}

// Copy returns a private copy of sf: the workflow cloned, which copies
// only its file sizes (Calibrate rescales them in place) and shares the
// tree and the graph's topology, and the archive copied (sched.Rebuild
// aliases the slices it is given).
func (sf *Scaffold) Copy() *Scaffold {
	chains := make([][]wfdag.TaskID, len(sf.Chains))
	for i, c := range sf.Chains {
		chains[i] = append([]wfdag.TaskID(nil), c...)
	}
	return &Scaffold{W: sf.W.Clone(), Procs: append([]int(nil), sf.Procs...), Chains: chains}
}

// Calibrate returns p's platform for w, with λ set from p.PFail and the
// mean task weight, and rescales w's file sizes in place to p.CCR on
// that platform, so w must be private to the caller.
func Calibrate(w *mspg.Workflow, p Params) platform.Platform {
	pf := platform.New(p.Procs, 0, p.Bandwidth).WithLambdaForPFail(p.PFail, w.G)
	pf.ScaleToCCR(w.G, p.CCR)
	return pf
}

// Rebuild is stage 3 on sf, which it consumes: sf.W calibrated to p,
// then the schedule rebuilt on the archive. The schedule's P is the
// calibrated platform.
func (sf *Scaffold) Rebuild(p Params) (*sched.Schedule, error) {
	return sched.Rebuild(sf.W, Calibrate(sf.W, p), sf.Procs, sf.Chains)
}

// Tail runs stages 3 to 5 on sf, which it consumes: Rebuild, then cfg's
// strategy placed (Algorithm 2 for CkptSome), then Evaluate.
func (sf *Scaffold) Tail(ctx context.Context, p Params, cfg Config) (*Result, error) {
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	s, err := sf.Rebuild(p)
	if err != nil {
		return nil, err
	}
	return RunOnSchedule(ctx, s, s.P, cfg)
}
