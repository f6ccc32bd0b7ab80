package expt

import (
	"context"
	"fmt"

	"repro/internal/ckpt"
	"repro/internal/core"
	"repro/internal/pegasus"
	"repro/internal/sched"
)

// AblationRow records one variant's expected makespan relative to the
// full CkptSome pipeline.
type AblationRow struct {
	Experiment string
	Family     string
	Tasks      int
	Procs      int
	PFail      float64
	CCR        float64
	Variant    string
	EM         float64
	RelToSome  float64 // EM(variant) / EM(CkptSome); > 1 means worse
}

// AblationConfig shares the usual experiment knobs.
type AblationConfig struct {
	Family    string
	Tasks     int
	Procs     int
	PFail     float64
	CCR       float64
	Seed      int64
	Bandwidth float64
	// Workers sizes the simulator's chunked-trial pool in the ablations
	// that cross-validate by DES (A4); 0 means GOMAXPROCS. Rows are
	// worker-count invariant.
	Workers int
}

func (c AblationConfig) withDefaults() AblationConfig {
	if c.Family == "" {
		c.Family = "genome"
	}
	if c.Tasks == 0 {
		c.Tasks = 300
	}
	if c.Procs == 0 {
		c.Procs = 35
	}
	if c.PFail == 0 {
		c.PFail = 0.001
	}
	if c.CCR == 0 {
		c.CCR = 0.01
	}
	if c.Seed == 0 {
		c.Seed = 42
	}
	if c.Bandwidth == 0 {
		c.Bandwidth = 1e8
	}
	return c
}

// AblateCheckpointPlacement (A1) compares Algorithm 2's DP against
// exit-only checkpointing (the §II-C "naive solution"), periodic
// checkpointing with several periods, and checkpoint-everything, all on
// the same schedule.
func AblateCheckpointPlacement(ctx context.Context, cfg AblationConfig) ([]AblationRow, error) {
	cfg = cfg.withDefaults()
	s, err := cfg.schedule()
	if err != nil {
		return nil, err
	}
	strategy := func(st ckpt.Strategy) func() (*ckpt.Plan, error) {
		return func() (*ckpt.Plan, error) { return ckpt.BuildPlanWith(s, s.P, st, ckpt.ModelFirstOrder) }
	}
	periodic := func(k int) func() (*ckpt.Plan, error) {
		return func() (*ckpt.Plan, error) { return ckpt.PeriodicPlan(s, s.P, k) }
	}
	variants := []struct {
		name string
		plan func() (*ckpt.Plan, error)
	}{
		{"DP (CkptSome)", strategy(ckpt.CkptSome)},
		{string(ckpt.ExitOnly), strategy(ckpt.ExitOnly)},
		{string(ckpt.CkptAll), strategy(ckpt.CkptAll)},
		{"Periodic(2)", periodic(2)},
		{"Periodic(5)", periodic(5)},
		{"Periodic(10)", periodic(10)},
	}
	var rows []AblationRow
	var someEM float64
	for i, v := range variants {
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		p, err := v.plan()
		if err != nil {
			return nil, err
		}
		em, err := ckpt.ExpectedMakespan(p, ckpt.EvalOptions{Estimator: ckpt.EstPathApprox})
		if err != nil {
			return nil, err
		}
		if i == 0 {
			someEM = em
		}
		rows = append(rows, rowFor(cfg, "A1-checkpoint-placement", v.name, em, someEM))
	}
	return rows, nil
}

// AblateMapping (A2) compares PropMap against a single-processor
// schedule, quantifying what proportional mapping buys.
func AblateMapping(ctx context.Context, cfg AblationConfig) ([]AblationRow, error) {
	cfg = cfg.withDefaults()
	w, err := pegasus.Generate(cfg.Family, pegasus.Options{Tasks: cfg.Tasks, Seed: cfg.Seed})
	if err != nil {
		return nil, err
	}
	pfMulti := core.Calibrate(w, cfg.params())
	pfOne := pfMulti
	pfOne.Processors = 1

	multi, err := core.Run(ctx, w, pfMulti, core.Config{Strategy: ckpt.CkptSome, Seed: cfg.Seed})
	if err != nil {
		return nil, err
	}
	single, err := core.Run(ctx, w, pfOne, core.Config{Strategy: ckpt.CkptSome, Seed: cfg.Seed})
	if err != nil {
		return nil, err
	}
	return []AblationRow{
		rowFor(cfg, "A2-mapping", fmt.Sprintf("PropMap(p=%d)", cfg.Procs), multi.ExpectedMakespan, multi.ExpectedMakespan),
		rowFor(cfg, "A2-mapping", "SingleProcessor", single.ExpectedMakespan, multi.ExpectedMakespan),
	}, nil
}

// AblateLinearization (A3) compares the paper's random topological sort
// against the deterministic order and the live-file-volume greedy
// heuristic (§VIII's future-work direction).
func AblateLinearization(ctx context.Context, cfg AblationConfig) ([]AblationRow, error) {
	cfg = cfg.withDefaults()
	variants := []struct {
		name string
		lin  sched.Linearizer
	}{
		{"RandomTopo (paper)", sched.RandomLinearizer},
		{"DeterministicTopo", sched.DeterministicLinearizer},
		{"MinLiveFiles", sched.MinLiveFilesLinearizer},
	}
	var rows []AblationRow
	var someEM float64
	master, err := pegasus.Generate(cfg.Family, pegasus.Options{Tasks: cfg.Tasks, Seed: cfg.Seed})
	if err != nil {
		return nil, err
	}
	for i, v := range variants {
		w := master.Clone() // the CCR rescale below runs in place
		pf := core.Calibrate(w, cfg.params())
		res, err := core.Run(ctx, w, pf, core.Config{Strategy: ckpt.CkptSome, Seed: cfg.Seed, Linearize: v.lin})
		if err != nil {
			return nil, err
		}
		if i == 0 {
			someEM = res.ExpectedMakespan
		}
		rows = append(rows, rowFor(cfg, "A3-linearization", v.name, res.ExpectedMakespan, someEM))
	}
	return rows, nil
}

// params is the ablation's calibration target.
func (c AblationConfig) params() core.Params {
	return core.Params{Procs: c.Procs, Bandwidth: c.Bandwidth, PFail: c.PFail, CCR: c.CCR}
}

// schedule generates the ablation's workflow, calibrates it and runs
// Algorithm 1 on it; the schedule carries the platform as its P.
func (c AblationConfig) schedule() (*sched.Schedule, error) {
	w, err := pegasus.Generate(c.Family, pegasus.Options{Tasks: c.Tasks, Seed: c.Seed})
	if err != nil {
		return nil, err
	}
	return core.BuildSchedule(w, core.Calibrate(w, c.params()), core.Config{Seed: c.Seed})
}

func rowFor(cfg AblationConfig, exp, variant string, em, someEM float64) AblationRow {
	rel := 0.0
	if someEM > 0 {
		rel = em / someEM
	}
	return AblationRow{
		Experiment: exp, Family: cfg.Family, Tasks: cfg.Tasks, Procs: cfg.Procs,
		PFail: cfg.PFail, CCR: cfg.CCR, Variant: variant, EM: em, RelToSome: rel,
	}
}
