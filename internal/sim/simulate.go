package sim

import (
	"context"
	"fmt"
	"math/rand"

	"repro/internal/ckpt"
	"repro/internal/dist"
	"repro/internal/par"
	"repro/internal/platform"
	"repro/internal/sched"
)

// Result reports one simulated execution.
type Result struct {
	// Makespan is the wall-clock completion time, including failures.
	Makespan float64
	// Failures counts failure events that struck a busy processor (idle
	// failures are harmless and not counted).
	Failures int
}

// Runner simulates repeated executions of one segmented plan, reusing
// every piece of per-trial state: the precedence and per-processor
// segment tables are built once at construction, and the finish/done/
// clock/cursor buffers plus the Poisson failure source are reset in
// place on every Run. A Runner is not safe for concurrent use; the
// chunked estimators create one per goroutine (the plan itself is shared
// read-only).
type Runner struct {
	p        *ckpt.Plan
	preds    [][]int // segment -> predecessor segments
	procSegs [][]int // processor -> ordered segment indices
	finish   []float64
	done     []bool
	clock    []float64
	cursor   []int
	fs       *PoissonFailures
}

// NewRunner prepares a Runner for the plan. CkptNone plans have no
// segments to execute; use EstimateExpectedNoneDetail instead.
func NewRunner(p *ckpt.Plan) (*Runner, error) {
	if p.Strategy == ckpt.CkptNone {
		return nil, fmt.Errorf("sim: use EstimateExpectedNoneDetail for the CkptNone strategy")
	}
	nseg := len(p.Segments)
	preds := make([][]int, nseg)
	for _, e := range ckpt.SegmentDeps(p) {
		preds[e[1]] = append(preds[e[1]], e[0])
	}
	// Per-processor ordered segment lists (superchains in temporal
	// order, segments in chain order).
	segsByChain := make(map[int][]int)
	for i, seg := range p.Segments {
		segsByChain[seg.Chain] = append(segsByChain[seg.Chain], i)
	}
	procSegs := make([][]int, p.Platform.Processors)
	for proc := 0; proc < p.Platform.Processors; proc++ {
		for _, ci := range p.Sched.ProcSequence(proc) {
			procSegs[proc] = append(procSegs[proc], segsByChain[ci]...)
		}
	}
	return &Runner{
		p:        p,
		preds:    preds,
		procSegs: procSegs,
		finish:   make([]float64, nseg),
		done:     make([]bool, nseg),
		clock:    make([]float64, p.Platform.Processors),
		cursor:   make([]int, p.Platform.Processors),
		fs:       newPoissonScratch(p.Platform.Processors, p.Platform.Lambda),
	}, nil
}

// Run simulates one execution with fresh Poisson failures drawn from
// rng. It performs no allocation.
func (r *Runner) Run(rng *rand.Rand) (Result, error) {
	r.fs.Reset(rng)
	return r.RunWith(r.fs)
}

// RunWith simulates one execution against an arbitrary failure source
// (scripted traces, no failures). A segment occupies its processor for
// R+W+C seconds; a failure during an attempt discards it entirely
// (in-memory data is lost) and the segment restarts — reading R again
// from stable storage — as soon as the processor is back (instant
// reboot, per the paper's model). Checkpoints make completed segments
// immune to later failures.
func (r *Runner) RunWith(fs FailureSource) (Result, error) {
	p := r.p
	finish, done, clock, cursor := r.finish, r.done, r.clock, r.cursor
	for i := range finish {
		finish[i] = 0
		done[i] = false
	}
	for i := range clock {
		clock[i] = 0
		cursor[i] = 0
	}
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
				d := p.Segments[si].Span()
				end, fails := executeWithFailures(fs, proc, ready, d)
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

// RunPlan simulates one execution of a segmented plan (CkptAll,
// CkptSome, ExitOnly, Periodic) under the given failure source. It is
// the one-shot form of Runner.RunWith; callers simulating many trials
// should hold a Runner instead.
func RunPlan(p *ckpt.Plan, fs FailureSource) (Result, error) {
	r, err := NewRunner(p)
	if err != nil {
		return Result{}, err
	}
	return r.RunWith(fs)
}

// executeWithFailures runs one work unit of nominal duration d starting
// at time start on proc, restarting from scratch on every failure.
func executeWithFailures(fs FailureSource, proc int, start, d float64) (end float64, failures int) {
	if d == 0 {
		return start, 0
	}
	attempt := start
	for {
		f := fs.NextAfter(proc, attempt)
		if f >= attempt+d {
			return attempt + d, failures
		}
		failures++
		attempt = f
	}
}

// runNone simulates one run of the CkptNone strategy with the
// whole-restart semantics underlying Theorem 1: nothing is ever written
// to stable storage, so a failure on any processor while the run is in
// progress loses in-memory data and the entire workflow restarts from
// scratch. One attempt lasts wpar (W_par, the failure-free parallel
// time of the schedule); e is the platform-wide failure process, of
// rate p·λ. Both are hoisted so trial loops pay neither per trial.
func runNone(wpar float64, e dist.Exponential, rng *rand.Rand) Result {
	res := Result{}
	t := 0.0
	for {
		f := e.Draw(rng)
		if f >= wpar {
			res.Makespan = t + wpar
			return res
		}
		res.Failures++
		t += f
	}
}

// EstimateExpected runs trials independent simulations of the plan and
// summarizes the makespans (mean, CI95, ...). It is the empirical
// counterpart of the analytic estimators. Trials are split into
// fixed-size chunks (par.Chunk), each drawn from its own deterministic
// sub-seeded generator, and fanned over up to workers goroutines (0
// means GOMAXPROCS) with one Runner of scratch per goroutine — the
// summary is bit-identical for every worker count. ctx cancellation is
// observed between chunks.
func EstimateExpected(ctx context.Context, p *ckpt.Plan, trials int, seed int64, workers int) (dist.Summary, error) {
	s, _, err := EstimateExpectedDetail(ctx, p, trials, seed, workers)
	return s, err
}

// EstimateExpectedDetail is EstimateExpected plus the mean number of
// failures that struck a busy processor per run.
func EstimateExpectedDetail(ctx context.Context, p *ckpt.Plan, trials int, seed int64, workers int) (dist.Summary, float64, error) {
	if p.Strategy == ckpt.CkptNone {
		return dist.Summary{}, 0, fmt.Errorf("sim: use EstimateExpectedNoneDetail for the CkptNone strategy")
	}
	if trials <= 0 {
		return dist.Summary{}, 0, nil
	}
	samples := make([]float64, trials)
	failures := make([]int, par.Chunks(trials))
	err := par.ForEachWithCtx(ctx, workers, par.Chunks(trials),
		func() *Runner { r, _ := NewRunner(p); return r },
		func(r *Runner, c int) error {
			lo, hi := par.ChunkBounds(c, trials)
			rng := rand.New(rand.NewSource(par.SubSeed(seed, c)))
			fails := 0
			for i := lo; i < hi; i++ {
				res, err := r.Run(rng)
				if err != nil {
					return err
				}
				samples[i] = res.Makespan
				fails += res.Failures
			}
			failures[c] = fails
			return nil
		})
	if err != nil {
		return dist.Summary{}, 0, err
	}
	total := 0
	for _, f := range failures {
		total += f
	}
	return dist.Summarize(samples), meanCount(total, trials), nil
}

// EstimateExpectedNoneDetail is EstimateExpectedDetail for the CkptNone
// strategy: the summary plus the mean failure count per run. Trials are
// chunked and sub-seeded exactly like EstimateExpectedDetail, so the
// summary is worker-count invariant.
func EstimateExpectedNoneDetail(ctx context.Context, s *sched.Schedule, pf platform.Platform, trials int, seed int64, workers int) (dist.Summary, float64, error) {
	if trials <= 0 {
		return dist.Summary{}, 0, nil
	}
	wpar := s.FailureFreeMakespan()
	e := dist.Exponential{Lambda: pf.Lambda * float64(pf.Processors)}
	samples := make([]float64, trials)
	failures := make([]int, par.Chunks(trials))
	if err := par.ForEachCtx(ctx, workers, par.Chunks(trials), func(c int) error {
		lo, hi := par.ChunkBounds(c, trials)
		rng := rand.New(rand.NewSource(par.SubSeed(seed, c)))
		fails := 0
		for i := lo; i < hi; i++ {
			r := runNone(wpar, e, rng)
			samples[i] = r.Makespan
			fails += r.Failures
		}
		failures[c] = fails
		return nil
	}); err != nil {
		return dist.Summary{}, 0, err
	}
	total := 0
	for _, f := range failures {
		total += f
	}
	return dist.Summarize(samples), meanCount(total, trials), nil
}

func meanCount(total, trials int) float64 {
	if trials == 0 {
		return 0
	}
	return float64(total) / float64(trials)
}
