package expt

import (
	"context"
	"math/rand"

	"repro/internal/ckpt"
	"repro/internal/dist"
	"repro/internal/pegasus"
	"repro/internal/platform"
	"repro/internal/sched"
	"repro/internal/sim"
)

// CostModelRow is one line of ablation A4: the same schedule planned
// under the paper's first-order segment model vs the exact restart
// expectation, each validated against discrete-event simulation of its
// own plan.
type CostModelRow struct {
	Family   string
	Tasks    int
	Procs    int
	PFail    float64
	CCR      float64
	Model    string
	Analytic float64 // PathApprox under the model's segment distributions
	SimMean  float64 // DES ground truth of the produced plan
	SimCI95  float64
	// AnalyticGap = |Analytic − SimMean| / SimMean: how honestly the
	// model predicts its own plan.
	AnalyticGap float64
	Checkpoints int
}

// AblateCostModel (A4, extension) quantifies the paper's stated
// first-order limitation: at high failure rates the Eq. (2) model
// underestimates long segments (it ignores multiple successive
// failures), which can tilt Algorithm 2 toward under-checkpointing. The
// exact model (e^{λS} − 1)/λ fixes the estimate; the experiment reports
// both plans' DES-measured makespans and each model's self-prediction
// gap.
func AblateCostModel(ctx context.Context, cfg AblationConfig, trials int) ([]CostModelRow, error) {
	cfg = cfg.withDefaults()
	if trials == 0 {
		trials = 1000
	}
	w, err := pegasus.Generate(cfg.Family, pegasus.Options{Tasks: cfg.Tasks, Seed: cfg.Seed})
	if err != nil {
		return nil, err
	}
	pf := platform.New(cfg.Procs, 0, cfg.Bandwidth).WithLambdaForPFail(cfg.PFail, w.G)
	pf.ScaleToCCR(w.G, cfg.CCR)
	s, err := sched.Allocate(w, pf, sched.Options{Rng: rand.New(rand.NewSource(cfg.Seed))})
	if err != nil {
		return nil, err
	}
	var rows []CostModelRow
	for _, model := range []ckpt.CostModel{ckpt.ModelFirstOrder, ckpt.ModelExact} {
		plan, err := ckpt.BuildPlanWith(s, pf, ckpt.CkptSome, model)
		if err != nil {
			return nil, err
		}
		analytic, err := ckpt.ExpectedMakespan(plan, ckpt.EvalOptions{Estimator: ckpt.EstPathApprox})
		if err != nil {
			return nil, err
		}
		sum, err := sim.EstimateExpected(ctx, plan, trials, cfg.Seed, cfg.Workers)
		if err != nil {
			return nil, err
		}
		rows = append(rows, CostModelRow{
			Family: cfg.Family, Tasks: cfg.Tasks, Procs: cfg.Procs, PFail: cfg.PFail, CCR: cfg.CCR,
			Model:       model.String(),
			Analytic:    analytic,
			SimMean:     sum.Mean,
			SimCI95:     sum.CI95,
			AnalyticGap: dist.RelErr(analytic, sum.Mean),
			Checkpoints: plan.NumCheckpoints(),
		})
	}
	return rows, nil
}
