// Package core is the public façade of the library: it wires the paper's
// pipeline — generate or load an M-SPG workflow, schedule it into
// superchains (Algorithm 1), place checkpoints (Algorithm 2 or a
// baseline strategy), and estimate the expected makespan (2-state DAG
// estimators or the Theorem 1 formula) — behind a small API:
//
//	w, _ := pegasus.Generate("genome", pegasus.Options{Tasks: 300})
//	pf := core.Calibrate(w, core.Params{Procs: 35, Bandwidth: 1e9, PFail: 0.001, CCR: 0.01})
//	res, _ := core.Run(ctx, w, pf, core.Config{Strategy: ckpt.CkptSome})
//	fmt.Println(res.ExpectedMakespan)
//
// The package owns the pipeline's one stage list:
//
//  1. materialize the workflow (the caller's part);
//  2. Algorithm 1, archived in a Scaffold (NewScaffold);
//  3. calibrate (Calibrate), then rebuild the schedule (Scaffold.Rebuild);
//  4. place the strategy's checkpoints (Algorithm 2 for CkptSome);
//  5. evaluate (Evaluate).
//
// Scaffold.Tail runs stages 3 to 5. The façade's plans (store reloads
// included) and the experiments' sweeps, which /v1/sweep serves, only
// choose where to start, so one scaffold serves every (pfail, CCR)
// variant of a (workflow, p). Run is the serial cold reference:
// Algorithm 1 on the calibrated workflow, then stages 4 and 5.
package core

import (
	"context"
	"fmt"
	"math/rand"

	"repro/internal/ckpt"
	"repro/internal/mspg"
	"repro/internal/par"
	"repro/internal/platform"
	"repro/internal/sched"
)

// Config selects strategy, estimator and scheduling options for Run.
type Config struct {
	// Strategy is the checkpoint policy; defaults to CkptSome.
	Strategy ckpt.Strategy
	// Estimator evaluates the segment DAG; defaults to PathApprox.
	// Ignored by CkptNone (Theorem 1 applies).
	Estimator ckpt.Estimator
	// Seed drives the random linearization; defaults to 1.
	Seed int64
	// Linearize overrides the superchain linearization (defaults to the
	// paper's random topological sort).
	Linearize sched.Linearizer
	// MCTrials configures the MonteCarlo estimator.
	MCTrials int
	// Model selects the segment cost model (default ckpt.ModelFirstOrder,
	// the paper's Eq. (2); ckpt.ModelExact accounts for multiple
	// successive failures — see ablation A4).
	Model ckpt.CostModel
	// Workers fans CompareOnSchedule's per-strategy planning and
	// evaluation out over goroutines (the schedule is shared and
	// read-only at that stage). 0 or 1 keeps the historical serial
	// path — grid harnesses that already parallelize over cells should
	// leave it there; negative selects GOMAXPROCS.
	Workers int
}

// Result is the outcome of planning one strategy on one workflow.
type Result struct {
	Strategy         ckpt.Strategy
	Plan             *ckpt.Plan
	Schedule         *sched.Schedule
	ExpectedMakespan float64
	// FailureFreeMakespan is the schedule length without failures and
	// without any storage I/O (W_par).
	FailureFreeMakespan float64
	// Checkpoints is the number of checkpointed tasks (0 for CkptNone).
	Checkpoints int
	// Superchains is the number of superchains in the schedule.
	Superchains int
	// Segments is the number of checkpoint segments.
	Segments int
}

// withDefaults fills in the documented defaults of the zero-valued
// fields: Strategy CkptSome and Seed 1.
func (cfg Config) withDefaults() Config {
	if cfg.Strategy == "" {
		cfg.Strategy = ckpt.CkptSome
	}
	if cfg.Seed == 0 {
		cfg.Seed = 1
	}
	return cfg
}

// BuildSchedule runs Algorithm 1 alone: superchain allocation with the
// configured linearization and seed. It reads the workflow's topology
// and task weights and pf.Processors; pf's failure rate and bandwidth
// never enter it. File sizes enter it only through the linearization:
// the paper's RandomLinearizer and DeterministicLinearizer ignore them,
// so with either of those one schedule serves every (pfail, CCR)
// calibration of a workflow, the reuse a Scaffold rests on.
// MinLiveFilesLinearizer reads them, so its schedule depends on the
// CCR; that is why NewScaffold takes a seed and no linearizer.
func BuildSchedule(w *mspg.Workflow, pf platform.Platform, cfg Config) (*sched.Schedule, error) {
	cfg = cfg.withDefaults()
	s, err := sched.Allocate(w, pf, sched.Options{
		Linearize: cfg.Linearize,
		Rng:       rand.New(rand.NewSource(cfg.Seed)),
	})
	if err != nil {
		return nil, fmt.Errorf("core: scheduling failed: %w", err)
	}
	return s, nil
}

// Run schedules w on pf and applies the configured strategy, returning
// the plan and its estimated expected makespan. ctx is observed between
// pipeline stages and inside the parallel fan-outs.
func Run(ctx context.Context, w *mspg.Workflow, pf platform.Platform, cfg Config) (*Result, error) {
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	s, err := BuildSchedule(w, pf, cfg)
	if err != nil {
		return nil, err
	}
	return RunOnSchedule(ctx, s, pf, cfg)
}

// RunOnSchedule applies the configured strategy to an existing schedule,
// so that several strategies can be compared on the same superchains
// (as the paper's evaluation does).
func RunOnSchedule(ctx context.Context, s *sched.Schedule, pf platform.Platform, cfg Config) (*Result, error) {
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	cfg = cfg.withDefaults()
	plan, err := ckpt.BuildPlanWith(s, pf, cfg.Strategy, cfg.Model)
	if err != nil {
		return nil, fmt.Errorf("core: checkpoint planning failed: %w", err)
	}
	if err := plan.Validate(); err != nil {
		return nil, err
	}
	return Evaluate(plan, cfg)
}

// Evaluate estimates a placed or rebuilt plan's expected makespan with
// the configured estimator and summarizes it. cfg.Strategy is not
// read: the plan carries its own.
func Evaluate(plan *ckpt.Plan, cfg Config) (*Result, error) {
	cfg = cfg.withDefaults()
	em, err := ckpt.ExpectedMakespan(plan, ckpt.EvalOptions{
		Estimator: cfg.Estimator,
		MCTrials:  cfg.MCTrials,
		MCSeed:    cfg.Seed,
	})
	if err != nil {
		return nil, fmt.Errorf("core: makespan evaluation failed: %w", err)
	}
	return &Result{
		Strategy:            plan.Strategy,
		Plan:                plan,
		Schedule:            plan.Sched,
		ExpectedMakespan:    em,
		FailureFreeMakespan: plan.Sched.FailureFreeMakespan(),
		Checkpoints:         plan.NumCheckpoints(),
		Superchains:         len(plan.Sched.Chains),
		Segments:            len(plan.Segments),
	}, nil
}

// Comparison holds the three paper strategies evaluated on one shared
// schedule.
type Comparison struct {
	Some, All, None *Result
}

// RelAll returns EM(CkptAll)/EM(CkptSome) — above 1 means CkptSome wins.
func (c Comparison) RelAll() float64 { return c.All.ExpectedMakespan / c.Some.ExpectedMakespan }

// RelNone returns EM(CkptNone)/EM(CkptSome).
func (c Comparison) RelNone() float64 { return c.None.ExpectedMakespan / c.Some.ExpectedMakespan }

// CompareOnSchedule evaluates CkptSome, CkptAll and CkptNone on the
// existing schedule s. With cfg.Workers above 1 the three strategies
// are planned and evaluated concurrently (plan building only reads the
// schedule); the result is identical either way.
func CompareOnSchedule(ctx context.Context, s *sched.Schedule, pf platform.Platform, cfg Config) (Comparison, error) {
	strategies := []ckpt.Strategy{ckpt.CkptSome, ckpt.CkptAll, ckpt.CkptNone}
	results := make([]*Result, len(strategies))
	workers := cfg.Workers
	if workers == 0 {
		workers = 1
	}
	err := par.ForEachCtx(ctx, workers, len(strategies), func(i int) error {
		c := cfg
		c.Strategy = strategies[i]
		r, err := RunOnSchedule(ctx, s, pf, c)
		if err != nil {
			return err
		}
		results[i] = r
		return nil
	})
	if err != nil {
		return Comparison{}, err
	}
	return Comparison{Some: results[0], All: results[1], None: results[2]}, nil
}
