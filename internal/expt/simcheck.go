package expt

import (
	"context"

	"repro/internal/ckpt"
	"repro/internal/core"
	"repro/internal/dist"
	"repro/internal/par"
	"repro/internal/pegasus"
	"repro/internal/sim"
)

// SimCheckRow cross-validates the analytic first-order estimate against
// the discrete-event simulator for one configuration and strategy.
type SimCheckRow struct {
	Family   string
	Tasks    int
	Procs    int
	PFail    float64
	CCR      float64
	Strategy string

	Analytic float64 // PathApprox on the 2-state DAG (Theorem 1 for CkptNone)
	SimMean  float64 // DES mean over Trials runs
	SimCI95  float64
	RelDiff  float64
	Failures float64 // mean failure count per run
}

// SimCheckConfig parameterizes the cross-validation experiment.
type SimCheckConfig struct {
	Families  []string
	Tasks     int
	Procs     int
	PFails    []float64
	CCR       float64
	Trials    int
	Seed      int64
	Bandwidth float64
	// Workers sizes the grid worker pool; 0 means GOMAXPROCS. A
	// single-cell grid hands the pool to the simulator's chunked trials
	// instead; multi-cell grids keep each cell's trials serial so the
	// pools don't multiply. The rows are worker-count invariant either
	// way.
	Workers int
}

func (c SimCheckConfig) withDefaults() SimCheckConfig {
	if len(c.Families) == 0 {
		c.Families = pegasus.PaperFamilies()
	}
	if c.Tasks == 0 {
		c.Tasks = 50
	}
	if c.Procs == 0 {
		c.Procs = 5
	}
	if len(c.PFails) == 0 {
		c.PFails = pegasus.PaperPFails()
	}
	if c.CCR == 0 {
		c.CCR = 0.01
	}
	if c.Trials == 0 {
		c.Trials = 2000
	}
	if c.Seed == 0 {
		c.Seed = 42
	}
	if c.Bandwidth == 0 {
		c.Bandwidth = 1e8
	}
	return c
}

// RunSimCheck measures, for every (family, pfail, strategy), the DES
// makespan distribution and compares its mean to the analytic estimate.
// At small λ the first-order model should match within a few percent;
// the gap widens as λ·(segment span) grows — exactly the Θ(λ²) terms the
// paper drops. (family, pfail) cells run on a pool of cfg.Workers
// goroutines (par.ForEachCtx); the three strategies of one cell are
// planned serially on one shared schedule (core.CompareOnSchedule), in
// CkptSome, CkptAll, CkptNone row order.
func RunSimCheck(ctx context.Context, cfg SimCheckConfig) ([]SimCheckRow, error) {
	cfg = cfg.withDefaults()
	type cell struct {
		family string
		pfail  float64
	}
	var cells []cell
	for _, fam := range cfg.Families {
		for _, pfail := range cfg.PFails {
			cells = append(cells, cell{fam, pfail})
		}
	}
	const nstrat = 3 // CkptSome, CkptAll, CkptNone
	rows := make([]SimCheckRow, len(cells)*nstrat)
	// Cell-level and trial-level parallelism must not multiply: grids
	// with one cell give the worker pool to the simulator's chunked
	// trials, everything larger parallelizes over cells only.
	simWorkers := 1
	if len(cells) == 1 {
		simWorkers = cfg.Workers
	}
	var memo pegasus.Memo // each family generates once per call
	err := par.ForEachCtx(ctx, cfg.Workers, len(cells), func(i int) error {
		c := cells[i]
		w, err := memo.Generate(c.family, pegasus.Options{Tasks: cfg.Tasks, Seed: cfg.Seed})
		if err != nil {
			return err
		}
		pf := core.Calibrate(w, core.Params{Procs: cfg.Procs, Bandwidth: cfg.Bandwidth, PFail: c.pfail, CCR: cfg.CCR})
		schedule, err := core.BuildSchedule(w, pf, core.Config{Seed: cfg.Seed})
		if err != nil {
			return err
		}
		cmp, err := core.CompareOnSchedule(ctx, schedule, pf, core.Config{Seed: cfg.Seed})
		if err != nil {
			return err
		}
		for j, res := range [nstrat]*core.Result{cmp.Some, cmp.All, cmp.None} {
			var sum dist.Summary
			var fails float64
			if res.Strategy == ckpt.CkptNone {
				sum, fails, err = sim.EstimateExpectedNoneDetail(ctx, schedule, pf, cfg.Trials, cfg.Seed, simWorkers)
			} else {
				sum, fails, err = sim.EstimateExpectedDetail(ctx, res.Plan, cfg.Trials, cfg.Seed, simWorkers)
			}
			if err != nil {
				return err
			}
			rows[i*nstrat+j] = SimCheckRow{
				Family: c.family, Tasks: cfg.Tasks, Procs: cfg.Procs, PFail: c.pfail, CCR: cfg.CCR,
				Strategy: string(res.Strategy),
				Analytic: res.ExpectedMakespan,
				SimMean:  sum.Mean, SimCI95: sum.CI95,
				RelDiff:  dist.RelErr(res.ExpectedMakespan, sum.Mean),
				Failures: fails,
			}
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	return rows, nil
}
