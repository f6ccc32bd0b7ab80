package expt

import (
	"context"

	"repro/internal/ckpt"
	"repro/internal/dist"
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
	s, err := cfg.schedule()
	if err != nil {
		return nil, err
	}
	var rows []CostModelRow
	for _, model := range []ckpt.CostModel{ckpt.ModelFirstOrder, ckpt.ModelExact} {
		plan, err := ckpt.BuildPlanWith(s, s.P, ckpt.CkptSome, model)
		if err != nil {
			return nil, err
		}
		analytic, err := ckpt.ExpectedMakespan(plan, ckpt.EvalOptions{Estimator: ckpt.EstPathApprox})
		if err != nil {
			return nil, err
		}
		sum, _, err := sim.EstimateExpectedDetail(ctx, plan, trials, cfg.Seed, cfg.Workers)
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
