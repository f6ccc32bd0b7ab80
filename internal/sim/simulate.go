package sim

import (
	"context"
	"fmt"
	"math"
	"math/rand"
	"slices"

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
// every piece of per-trial state.
//
// The order in which segments execute depends only on the plan's
// structure: a processor runs its segments in schedule order, and a
// segment waits for its predecessors to be done, never for a time. So
// NewRunner fixes that order once as a step list (segment, processor,
// predecessors, span) and reports a plan that would deadlock there;
// every trial then walks the list, draws failures in the same order as
// the round-by-round scan it replaced, and only reads and writes times.
// Until the first failure that strikes a running step, every step runs
// at its failure-free time, which the list also records; Run walks
// those times without the predecessor max and runs the full step loop
// only from the first strike on (see Run).
// The step list is immutable and shared by the Runners the chunked
// estimators make per goroutine; each owns only its finish and clock
// buffers and its Poisson failure source, which are reset in place on
// every Run. A Runner is not safe for concurrent use.
type Runner struct {
	steps  *Steps
	finish []float64
	clock  []float64
	fs     PoissonFailures
}

// Steps is a plan's fixed execution order: list[k]'s predecessor
// segments are preds[list[k].lo:list[k].hi]. It depends only on the
// plan and is immutable, so one Steps serves every simulation of the
// plan, concurrently too.
//
// It also records the failure-free execution: each step's start and
// end, the makespan, and per processor quiet, the latest end of a
// step with a non-zero span (-Inf when it runs none), after which no
// failure of that processor can strike a step.
type Steps struct {
	list     []step
	preds    []int32
	nseg     int
	procs    int
	lambda   float64
	quiet    []float64
	makespan float64
}

// step is one segment execution of the fixed order, with its
// failure-free start and end.
type step struct {
	seg, proc  int32
	lo, hi     int32
	span       float64
	start, end float64
}

// NewRunner prepares a Runner for the plan. CkptNone plans have no
// segments to execute; use EstimateExpectedNoneDetail instead. It
// fails if the plan's processor sequences and segment dependencies
// deadlock.
//
//hanccr:allow deadapi the root BenchmarkSimulatorTrial and the sim tests hold a Runner through it; production Runners come from the plan's step list
func NewRunner(p *ckpt.Plan) (*Runner, error) {
	st, err := NewSteps(p)
	if err != nil {
		return nil, err
	}
	return st.runner(), nil
}

// NewSteps fixes the plan's execution order. CkptNone plans have no
// segments to execute, and a plan whose processor sequences and
// segment dependencies deadlock has no order: both are errors.
func NewSteps(p *ckpt.Plan) (*Steps, error) {
	if p.Strategy == ckpt.CkptNone {
		return nil, fmt.Errorf("sim: use EstimateExpectedNoneDetail for the CkptNone strategy")
	}
	nseg, procs := len(p.Segments), p.Platform.Processors
	deps := ckpt.SegmentDeps(p)
	predOff, preds := group(nseg, len(deps),
		func(i int) int { return deps[i][1] }, func(i int) int { return deps[i][0] })
	// Per-processor ordered segment lists (superchains in temporal
	// order, segments in chain order): processor proc runs
	// procSegs[procOff[proc]:procOff[proc+1]].
	chainOff, chainSegs := group(len(p.Sched.Chains), nseg,
		func(i int) int { return p.Segments[i].Chain }, func(i int) int { return i })
	procOff, procSegs := make([]int, procs+1), make([]int32, 0, nseg)
	for proc := 0; proc < procs; proc++ {
		for _, ci := range p.Sched.ProcSequence(proc) {
			procSegs = append(procSegs, chainSegs[chainOff[ci]:chainOff[ci+1]]...)
		}
		procOff[proc+1] = len(procSegs)
	}
	// Scan the processors round by round, running each one's segments
	// while their predecessors are done, until every segment has run.
	st := &Steps{list: make([]step, 0, nseg), nseg: nseg, procs: procs, lambda: p.Platform.Lambda}
	done, cursor, ran := make([]bool, nseg), make([]int, procs), make([]int32, nseg)
	remaining := nseg
	for remaining > 0 {
		progressed := false
		for proc := 0; proc < procs; proc++ {
			segs := procSegs[procOff[proc]:procOff[proc+1]]
			for ; cursor[proc] < len(segs); cursor[proc]++ {
				si := segs[cursor[proc]]
				sp := preds[predOff[si]:predOff[si+1]]
				if slices.ContainsFunc(sp, func(pr int32) bool { return !done[pr] }) {
					break
				}
				// A predecessor that last ran on this processor finished
				// by its clock (spans are non-negative, so a clock never
				// goes back): only the others can delay the step.
				lo := int32(len(st.preds))
				for _, pr := range sp {
					if ran[pr] != int32(proc) {
						st.preds = append(st.preds, pr)
					}
				}
				ran[si] = int32(proc)
				st.list = append(st.list, step{
					seg: int32(si), proc: int32(proc),
					lo: lo, hi: int32(len(st.preds)),
					span: p.Segments[si].Span(),
				})
				done[si] = true
				remaining--
				progressed = true
			}
		}
		if !progressed {
			return nil, fmt.Errorf("sim: deadlock with %d segments remaining", remaining)
		}
	}
	st.failureFree()
	return st, nil
}

// failureFree records the failure-free execution with the step loop's
// own arithmetic (end = ready + span), so a trial without a strike
// reproduces it bit for bit.
func (st *Steps) failureFree() {
	finish, clock := make([]float64, st.nseg), make([]float64, st.procs)
	st.quiet = make([]float64, st.procs)
	for i := range st.quiet {
		st.quiet[i] = math.Inf(-1)
	}
	for k := range st.list {
		s := &st.list[k]
		s.start = clock[s.proc]
		for _, pr := range st.preds[s.lo:s.hi] {
			if finish[pr] > s.start {
				s.start = finish[pr]
			}
		}
		s.end = s.start
		if s.span != 0 {
			s.end = s.start + s.span
			st.quiet[s.proc] = max(st.quiet[s.proc], s.end)
		}
		finish[s.seg], clock[s.proc] = s.end, s.end
	}
	for _, f := range finish {
		st.makespan = max(st.makespan, f)
	}
}

// group sorts m items into n groups by key, stably: group k is
// out[off[k]:off[k+1]], the val of every item i with key(i) == k in
// ascending i.
func group(n, m int, key, val func(i int) int) (off, out []int32) {
	off = make([]int32, n+2)
	for i := 0; i < m; i++ {
		off[key(i)+2]++
	}
	for k := 2; k < len(off); k++ {
		off[k] += off[k-1]
	}
	out = make([]int32, m)
	for i := 0; i < m; i++ {
		k := key(i) + 1
		out[off[k]] = int32(val(i))
		off[k]++
	}
	return off[:n+1], out
}

// runner returns a Runner walking st with scratch of its own: the
// finish, clock and next-failure times share one buffer, and the
// failure source is unusable until Run resets it with a generator.
func (st *Steps) runner() *Runner {
	n, p := st.nseg, st.procs
	buf := make([]float64, n+2*p)
	return &Runner{
		steps:  st,
		finish: buf[:n:n],
		clock:  buf[n : n+p : n+p],
		fs:     PoissonFailures{lambda: st.lambda, next: buf[n+p:]},
	}
}

// Run simulates one execution with fresh Poisson failures drawn from
// rng. It performs no allocation.
//
// A segment occupies its processor for R+W+C seconds; a failure during
// an attempt discards it entirely (in-memory data is lost) and the
// segment restarts — reading R again from stable storage — as soon as
// the processor is back (instant reboot, per the paper's model).
// Checkpoints make completed segments immune to later failures. The
// error is always nil: a plan that deadlocks is rejected by NewSteps.
//
// Every step before the first strike runs at its failure-free time, so
// Run goes in three stages, drawing exactly what the step loop would:
// when no processor's first failure comes before its quiet time, the
// trial is the failure-free execution; otherwise it walks the steps at
// their failure-free starts, asking NextAfter as the loop does, until
// a failure strikes step k; from there it runs the step loop (runFrom)
// on the failure-free finish and clock times of the steps before k.
func (r *Runner) Run(rng *rand.Rand) (Result, error) {
	st, fs := r.steps, &r.fs
	fs.Reset(rng)
	quiet := true
	for p, q := range st.quiet {
		if fs.next[p] <= q {
			quiet = false
			break
		}
	}
	if quiet {
		return Result{Makespan: st.makespan}, nil
	}
	clear(r.clock)
	for k, s := range st.list {
		if s.span != 0 && fs.NextAfter(int(s.proc), s.start) < s.end {
			return r.runFrom(fs, k), nil
		}
		r.finish[s.seg], r.clock[s.proc] = s.end, s.end
	}
	return Result{Makespan: st.makespan}, nil
}

// runFrom runs the step loop from step k against fs, with finish and
// clock holding the times the steps before k left, and returns the
// makespan over every segment and the failures from step k on.
func (r *Runner) runFrom(fs FailureSource, k int) Result {
	finish, clock := r.finish, r.clock
	res := Result{}
	for _, st := range r.steps.list[k:] {
		ready := clock[st.proc]
		for _, pr := range r.steps.preds[st.lo:st.hi] {
			if finish[pr] > ready {
				ready = finish[pr]
			}
		}
		end, fails := executeWithFailures(fs, int(st.proc), ready, st.span)
		res.Failures += fails
		finish[st.seg] = end
		clock[st.proc] = end
	}
	for _, f := range finish {
		if f > res.Makespan {
			res.Makespan = f
		}
	}
	return res
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

// EstimateExpectedDetail runs trials independent simulations of the
// plan and summarizes the makespans (see Steps.EstimateDetail). The
// plan's step list is built first, so a CkptNone or deadlocking plan
// is reported as an error whatever the trial count.
func EstimateExpectedDetail(ctx context.Context, p *ckpt.Plan, trials int, seed int64, workers int) (dist.Summary, float64, error) {
	st, err := NewSteps(p)
	if err != nil {
		return dist.Summary{}, 0, err
	}
	return st.EstimateDetail(ctx, trials, seed, workers)
}

// EstimateDetail runs trials independent simulations of the plan st
// was built from and summarizes the makespans (mean, CI95, ...), the
// empirical counterpart of the analytic estimators, plus the mean
// number of failures that struck a busy processor per run. Trials are
// split into fixed-size chunks (par.Chunk), each drawn from its own
// deterministic sub-seeded generator, and fanned over up to workers
// goroutines (0 means GOMAXPROCS) with one Runner of scratch per
// goroutine — the summary is bit-identical for every worker count, and
// for every caller sharing st. ctx cancellation is observed between
// chunks.
func (st *Steps) EstimateDetail(ctx context.Context, trials int, seed int64, workers int) (dist.Summary, float64, error) {
	if trials <= 0 {
		return dist.Summary{}, 0, nil
	}
	samples := make([]float64, trials)
	failures := make([]int, par.Chunks(trials))
	err := par.ForEachWithCtx(ctx, workers, par.Chunks(trials), st.runner,
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
