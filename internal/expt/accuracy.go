package expt

import (
	"context"
	"fmt"
	"time"

	"repro/internal/ckpt"
	"repro/internal/core"
	"repro/internal/dist"
	"repro/internal/par"
	"repro/internal/pegasus"
	"repro/internal/probdag"
)

// AccuracyRow compares one estimator against the Monte Carlo ground
// truth on one workflow configuration (the §VI-B study).
type AccuracyRow struct {
	Family    string
	Tasks     int
	Procs     int
	PFail     float64
	CCR       float64
	Estimator string
	Estimate  float64
	Truth     float64 // high-trial Monte Carlo mean
	TruthCI95 float64
	RelError  float64
	// Elapsed is the estimator's wall clock. With Workers > 1 other
	// grid cells run concurrently, so compare Elapsed across estimators
	// within one run, not across runs with different worker counts.
	Elapsed time.Duration
	Err     string // non-empty when the estimator failed (e.g. Dodin budget)
}

// AccuracyConfig parameterizes the estimator-accuracy experiment.
type AccuracyConfig struct {
	Families    []string
	Sizes       []int
	PFails      []float64
	CCR         float64
	TruthTrials int // paper: 300,000
	Seed        int64
	Bandwidth   float64
	// Workers sizes the grid worker pool; 0 means GOMAXPROCS. A
	// single-cell grid hands the pool to the ground-truth Monte Carlo
	// instead (chunked trials); multi-cell grids keep each cell's MC
	// serial so the pools don't multiply. The rows are worker-count
	// invariant either way.
	Workers int
}

func (c AccuracyConfig) withDefaults() AccuracyConfig {
	if len(c.Families) == 0 {
		c.Families = pegasus.PaperFamilies()
	}
	if len(c.Sizes) == 0 {
		c.Sizes = []int{50, 300}
	}
	if len(c.PFails) == 0 {
		c.PFails = pegasus.PaperPFails()
	}
	if c.CCR == 0 {
		c.CCR = 0.01
	}
	if c.TruthTrials == 0 {
		c.TruthTrials = 300000
	}
	if c.Seed == 0 {
		c.Seed = 42
	}
	if c.Bandwidth == 0 {
		c.Bandwidth = 1e8
	}
	return c
}

// accuracyMethods is the number of estimator rows emitted per cell.
const accuracyMethods = 4

// RunAccuracy builds the CkptSome segment DAG for every configuration
// and evaluates it with MonteCarlo (at the ground-truth trial count),
// Dodin, Normal and PathApprox, recording relative errors and runtimes.
// Cells run on a pool of cfg.Workers goroutines (par.ForEachCtx), each
// writing the rows of its own cell index.
func RunAccuracy(ctx context.Context, cfg AccuracyConfig) ([]AccuracyRow, error) {
	cfg = cfg.withDefaults()
	type cell struct {
		family string
		size   int
		pfail  float64
	}
	var cells []cell
	for _, fam := range cfg.Families {
		for _, size := range cfg.Sizes {
			for _, pfail := range cfg.PFails {
				cells = append(cells, cell{fam, size, pfail})
			}
		}
	}
	rows := make([]AccuracyRow, len(cells)*accuracyMethods)
	// Cell-level and trial-level parallelism must not multiply: grids
	// with one cell give the worker pool to the ground-truth Monte
	// Carlo, everything larger parallelizes over cells only.
	mcWorkers := 1
	if len(cells) == 1 {
		mcWorkers = cfg.Workers
	}
	var memo pegasus.Memo // each (family, size) generates once per call
	err := par.ForEachCtx(ctx, cfg.Workers, len(cells), func(i int) error {
		c := cells[i]
		procs := pegasus.PaperProcessorCounts(c.size)[1]
		w, err := memo.Generate(c.family, pegasus.Options{Tasks: c.size, Seed: cfg.Seed})
		if err != nil {
			return err
		}
		pf := core.Calibrate(w, core.Params{Procs: procs, Bandwidth: cfg.Bandwidth, PFail: c.pfail, CCR: cfg.CCR})
		res, err := core.Run(ctx, w, pf, core.Config{Strategy: ckpt.CkptSome, Seed: cfg.Seed})
		if err != nil {
			return err
		}
		g, err := ckpt.EvalDAG(res.Plan)
		if err != nil {
			return err
		}
		truth, err := probdag.MonteCarloSeededCtx(ctx, g, cfg.TruthTrials, cfg.Seed, mcWorkers)
		if err != nil {
			return err
		}
		base := AccuracyRow{Family: c.family, Tasks: c.size, Procs: procs, PFail: c.pfail, CCR: cfg.CCR,
			Truth: truth.Mean, TruthCI95: truth.CI95}
		return evalAll(ctx, g, base, cfg, rows[i*accuracyMethods:(i+1)*accuracyMethods])
	})
	if err != nil {
		return nil, err
	}
	return rows, nil
}

// evalAll runs the four estimators on one segment DAG, writing one row
// per method into out (len accuracyMethods). Dodin, Normal and
// PathApprox share one reusable Evaluator (and its convolution pool).
func evalAll(ctx context.Context, g *probdag.Graph, base AccuracyRow, cfg AccuracyConfig, out []AccuracyRow) error {
	ev, err := probdag.NewEvaluator(g)
	if err != nil {
		return err
	}
	type method struct {
		name string
		f    func() (float64, error)
	}
	methods := [accuracyMethods]method{
		{"MonteCarlo(10k)", func() (float64, error) {
			s, err := probdag.MonteCarloSeededCtx(ctx, g, 10000, cfg.Seed+1, 1)
			return s.Mean, err
		}},
		{"Dodin", func() (float64, error) { return ev.Dodin(probdag.DodinOptions{}) }},
		{"Normal", func() (float64, error) { return ev.Normal(), nil }},
		{"PathApprox", func() (float64, error) { return ev.PathApprox(), nil }},
	}
	for i, m := range methods {
		r := base
		r.Estimator = m.name
		start := time.Now() //hanccr:allow walltime the accuracy panel reports measured latency; elapsed time is the output, not an input to any plan
		est, err := m.f()
		r.Elapsed = time.Since(start) //hanccr:allow walltime measured latency is the panel output, not an input to any plan
		if err != nil {
			r.Err = err.Error()
		} else {
			r.Estimate = est
			r.RelError = dist.RelErr(est, base.Truth)
		}
		out[i] = r
	}
	return nil
}

// FormatAccuracy renders accuracy rows as a table.
func FormatAccuracy(rows []AccuracyRow) (header []string, cells [][]string) {
	header = []string{"family", "tasks", "pfail", "estimator", "estimate", "truth", "rel_err", "time"}
	for _, r := range rows {
		est := fmt.Sprintf("%.4g", r.Estimate)
		relErr := fmt.Sprintf("%.3e", r.RelError)
		if r.Err != "" {
			est, relErr = "error", r.Err
		}
		cells = append(cells, []string{
			r.Family,
			fmt.Sprintf("%d", r.Tasks),
			fmt.Sprintf("%g", r.PFail),
			r.Estimator,
			est,
			fmt.Sprintf("%.4g", r.Truth),
			relErr,
			r.Elapsed.Truncate(time.Microsecond).String(),
		})
	}
	return header, cells
}
