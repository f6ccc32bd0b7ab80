package hanccr

import (
	"context"
	"fmt"

	"repro/internal/par"
)

// JobKind selects what one job computes.
type JobKind string

const (
	// JobPlan solves the scenario and returns the plan.
	JobPlan JobKind = "plan"
	// JobEstimate plans the scenario and evaluates one estimator.
	JobEstimate JobKind = "estimate"
	// JobSimulate plans the scenario and runs the discrete-event
	// simulator.
	JobSimulate JobKind = "simulate"
)

// Job is the one unit of request work: a scenario plus what to compute
// on it. Plan, PlanDetail, Estimate, Simulate and every slot of a Batch
// run one job each through the same executor, and so does every HTTP
// plan, estimate, simulate and batch-slot request. Heterogeneous kinds
// mix freely in one batch.
type Job struct {
	Kind     JobKind
	Scenario Scenario
	// Method is the estimator of a JobEstimate (ignored otherwise),
	// matched case-insensitively (ParseMethod).
	Method Method
	// EstimateOptions tune a JobEstimate (trials, seed, inner workers).
	EstimateOptions []EstimateOption
	// SimOptions tune a JobSimulate.
	SimOptions []SimOption
}

// JobResult is the outcome of one job. Exactly the fields of the
// job's kind are meaningful; Err is per job, so one failing job never
// aborts its batch.
type JobResult struct {
	Kind JobKind
	// Key is the canonical scenario hash (empty when validation failed).
	Key string
	// Outcome reports how the cache answered (hit, structure-hit or
	// miss).
	Outcome CacheOutcome
	// Plan is the solved plan (all kinds plan first).
	Plan *Plan
	// Estimate is the expected makespan of a JobEstimate.
	Estimate float64
	// Sim is the simulation summary of a JobSimulate.
	Sim SimResult
	// Err is the job's failure, if any.
	Err error
}

// BatchOption tunes Service.Batch.
type BatchOption func(*batchConfig)

type batchConfig struct{ workers int }

// WithBatchWorkers bounds the goroutines fanning jobs out (0 = all
// cores). Results are identical for every worker count.
func WithBatchWorkers(n int) BatchOption {
	return func(c *batchConfig) { c.workers = n }
}

// Batch runs every job through the sharded plan cache on a worker pool
// and collects results by job index, so the returned slice is
// deterministic — each slot holds exactly what the equivalent serial
// single-request sequence would have produced — whatever the worker
// count or completion order. Per-job failures are recorded in the
// job's slot; the call itself only fails when ctx is cancelled (and
// then the result slice is nil).
func (s *Service) Batch(ctx context.Context, jobs []Job, opts ...BatchOption) ([]JobResult, error) {
	cfg := batchConfig{}
	for _, o := range opts {
		o(&cfg)
	}
	return par.MapCtx(ctx, cfg.workers, len(jobs), func(i int) (JobResult, error) {
		return s.runJob(ctx, jobs[i]), nil
	})
}

// runJob is the one gated executor of a job. It rejects an unknown
// kind, an unknown estimator and an invalid scenario before it claims
// an admission slot, so a malformed job never plans; then one admitted
// request (s.do) plans through the cache and runs the kind's operation
// under one request budget, so a slow estimator cannot outlive the
// gate's accounting of it. Each batch job claims its own slot, so a
// batch is shed job-by-job under saturation instead of all-or-nothing.
func (s *Service) runJob(ctx context.Context, j Job) JobResult {
	r := JobResult{Kind: j.Kind, Outcome: CacheMiss}
	switch j.Kind {
	case JobPlan, JobSimulate:
	case JobEstimate:
		m, err := ParseMethod(string(j.Method))
		if err != nil {
			r.Err = err
			return r
		}
		j.Method = m
	default:
		r.Err = fmt.Errorf("%w: unknown batch job kind %q", ErrBadScenario, j.Kind)
		return r
	}
	if err := j.Scenario.Validate(); err != nil {
		r.Err = err
		return r
	}
	r.Key = j.Scenario.Key()
	r.Err = s.do(ctx, func(ctx context.Context) error {
		var err error
		r.Plan, r.Outcome, err = s.planForKey(ctx, j.Scenario, r.Key)
		if err != nil {
			return err
		}
		switch j.Kind {
		case JobEstimate:
			r.Estimate, err = r.Plan.Estimate(ctx, j.Method, j.EstimateOptions...)
		case JobSimulate:
			r.Sim, err = r.Plan.Simulate(ctx, j.SimOptions...)
		}
		return err
	})
	return r
}
