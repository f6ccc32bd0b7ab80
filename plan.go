package hanccr

import (
	"context"
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"

	"repro/internal/ckpt"
	"repro/internal/core"
	"repro/internal/dist"
	"repro/internal/mspg"
	"repro/internal/probdag"
	"repro/internal/sim"
)

// Plan is one solved scenario: the superchain schedule (Algorithm 1)
// plus the checkpoint decisions of the scenario's strategy (Algorithm 2
// for CkptSome), with its planning-time expected-makespan estimate.
// Plans are immutable and safe for concurrent use — Estimate and
// Simulate only read them — which is what lets Service hand one cached
// plan to many requests.
//
// A plan keeps what its requests would otherwise recompute and what
// depends on nothing but the plan: the 2-state segment DAG, the Normal
// and Dodin estimates over it, and the simulator's step list, each
// built by the first request that needs it (none at construction); the
// PathApprox estimate is the planning-time one, ExpectedMakespan.
// Monte Carlo estimates and simulations also depend on the request's
// trial count and seed (not on its worker count: the answers are
// bit-identical for every one). A plan keeps the last computed answer
// of each, one (trials, seed) record for Monte Carlo and one for
// Simulate, and answers a request that repeats that pair from it; any
// other pair is computed and replaces the record. So the memo is two
// small records per plan, not a response cache that grows with the
// requests.
type Plan struct {
	scenario Scenario
	res      *core.Result
	info     WorkflowInfo

	dagOnce sync.Once
	dag     *probdag.Graph
	dagErr  error

	stepsOnce sync.Once
	steps     *sim.Steps
	stepsErr  error

	normal, dodin estimateSlot

	mc  atomic.Pointer[record[float64]]
	sim atomic.Pointer[record[SimResult]]
}

// record is the last answer of a trial-based method a plan computed,
// with the trial count and seed it was computed for. Records are
// immutable; a new answer replaces the plan's pointer.
type record[T any] struct {
	trials int
	seed   int64
	v      T
}

// estimateSlot holds one deterministic estimate, computed at most once.
type estimateSlot struct {
	once sync.Once
	v    float64
	err  error
}

// WorkflowInfo summarizes the workflow a plan was built for.
type WorkflowInfo struct {
	// Name is the family or the injected document's label.
	Name string
	// Tasks and Files count the workflow graph's nodes.
	Tasks int
	Files int
	// CCR is the realized communication-to-computation ratio.
	CCR float64
	// Lambda is the calibrated per-processor failure rate.
	Lambda float64
	// RedundantEdges counts transitively redundant edges ignored by the
	// GSPG recognition fallback (0 when the graph was an M-SPG as-is).
	RedundantEdges int
}

// Superchain is one scheduled superchain with its checkpoint marks.
type Superchain struct {
	Index int
	Proc  int
	// Tasks is the superchain's task order; Checkpointed[i] reports
	// whether a checkpoint follows Tasks[i].
	Tasks        []int
	Checkpointed []bool
}

// SegmentInfo is one checkpoint segment of the plan.
type SegmentInfo struct {
	Index int
	Chain int
	Proc  int
	Tasks int
	// R, W, C are the storage-read, compute and checkpoint-write times.
	R, W, C float64
}

// NewPlan validates the scenario, materializes its workflow and
// platform, schedules it into superchains and applies the scenario's
// checkpoint strategy. The returned plan carries the PathApprox
// expected-makespan estimate (Theorem 1 for CkptNone).
func NewPlan(ctx context.Context, s Scenario) (*Plan, error) {
	if err := s.Validate(); err != nil {
		return nil, err
	}
	sf, err := buildScaffold(ctx, s)
	if err != nil {
		return nil, err
	}
	return planTail(ctx, s, sf.Scaffold, sf.redundant)
}

// newPlan wraps a tail's result, whose schedule carries the calibrated
// platform.
func newPlan(s Scenario, res *core.Result, w *mspg.Workflow, redundant int) *Plan {
	pf := res.Schedule.P
	return &Plan{
		scenario: s,
		res:      res,
		info: WorkflowInfo{
			Name:           w.Name,
			Tasks:          w.G.NumTasks(),
			Files:          w.G.NumFiles(),
			CCR:            pf.CCR(w.G),
			Lambda:         pf.Lambda,
			RedundantEdges: redundant,
		},
	}
}

// planScaffold is a core.Scaffold (the pipeline's stages 1 and 2; see
// the internal/core package doc) plus the redundant-edge count of the
// materialized workflow, shared by every scenario with the same
// StructureKey. A cached one is only ever handed to planTail as
// planFromScaffold's private copy.
type planScaffold struct {
	*core.Scaffold
	redundant int
}

// buildScaffold runs stages 1 and 2: the freshly materialized workflow
// is private, so the scaffold adopts it without a clone.
func buildScaffold(ctx context.Context, s Scenario) (*planScaffold, error) {
	w, redundant, err := s.materialize(ctx)
	if err != nil {
		return nil, err
	}
	sf, err := core.NewScaffold(w, s.procs, s.bandwidth, s.seed)
	if err != nil {
		return nil, err
	}
	return &planScaffold{Scaffold: sf, redundant: redundant}, nil
}

// planFromScaffold is the near-duplicate fast path: the tail on a
// private copy of a cached scaffold.
func planFromScaffold(ctx context.Context, s Scenario, sf *planScaffold) (*Plan, error) {
	return planTail(ctx, s, sf.Copy(), sf.redundant)
}

// planTail runs the pipeline's stages 3 to 5 (core.Scaffold.Tail) on
// sf, which it consumes, with the scenario's parameters and strategy.
// Every way of building a plan only chooses where to start: NewPlan
// hands over its fresh scaffold and planFromScaffold a copy of a cached
// one (a store reload is a cold plan of the record's scenario); Compare
// stops after stage 3 and fans the paper's three strategies out on the
// one schedule.
func planTail(ctx context.Context, s Scenario, sf *core.Scaffold, redundant int) (*Plan, error) {
	res, err := sf.Tail(ctx, s.params(), s.coreConfig())
	if err != nil {
		return nil, err
	}
	return newPlan(s, res, sf.W, redundant), nil
}

// Scenario returns the scenario the plan was built from.
func (p *Plan) Scenario() Scenario { return p.scenario }

// Strategy returns the applied checkpoint strategy.
func (p *Plan) Strategy() Strategy { return Strategy(p.res.Strategy) }

// Workflow describes the planned workflow.
func (p *Plan) Workflow() WorkflowInfo { return p.info }

// ExpectedMakespan returns the planning-time estimate: PathApprox over
// the segment DAG, or the Theorem 1 closed formula for CkptNone.
func (p *Plan) ExpectedMakespan() float64 { return p.res.ExpectedMakespan }

// FailureFreeMakespan returns W_par, the schedule length without
// failures and without storage I/O.
func (p *Plan) FailureFreeMakespan() float64 { return p.res.FailureFreeMakespan }

// NumCheckpoints returns how many tasks are followed by a checkpoint.
func (p *Plan) NumCheckpoints() int { return p.res.Checkpoints }

// NumSuperchains returns the superchain count of the schedule.
func (p *Plan) NumSuperchains() int { return p.res.Superchains }

// NumSegments returns the checkpoint segment count (0 under CkptNone).
func (p *Plan) NumSegments() int { return p.res.Segments }

// Superchains returns the schedule's superchains with their checkpoint
// marks, in schedule order.
func (p *Plan) Superchains() []Superchain {
	out := make([]Superchain, 0, len(p.res.Schedule.Chains))
	for _, sc := range p.res.Schedule.Chains {
		c := Superchain{
			Index:        sc.Index,
			Proc:         sc.Proc,
			Tasks:        make([]int, len(sc.Tasks)),
			Checkpointed: make([]bool, len(sc.Tasks)),
		}
		for i, t := range sc.Tasks {
			c.Tasks[i] = int(t)
			c.Checkpointed[i] = p.res.Plan.CheckpointAfter[t]
		}
		out = append(out, c)
	}
	return out
}

// Segments returns the plan's checkpoint segments (empty under
// CkptNone).
func (p *Plan) Segments() []SegmentInfo {
	out := make([]SegmentInfo, 0, len(p.res.Plan.Segments))
	for _, seg := range p.res.Plan.Segments {
		out = append(out, SegmentInfo{
			Index: seg.Index, Chain: seg.Chain, Proc: seg.Proc,
			Tasks: len(seg.Tasks), R: seg.R, W: seg.W, C: seg.C,
		})
	}
	return out
}

// DefaultMCTrials is the Monte Carlo trial count Estimate uses when
// none is configured.
const DefaultMCTrials = 10000

// DefaultSimTrials is the trial count Simulate uses when none is
// configured.
const DefaultSimTrials = 2000

// EstimateOption tunes Estimate.
type EstimateOption func(*estimateConfig)

type estimateConfig struct {
	trials  int
	seed    int64
	workers int
}

// with returns c with opts applied. Only this copy is handed to the
// options, so an Estimate call without options does not allocate.
func (c estimateConfig) with(opts []EstimateOption) estimateConfig {
	for _, o := range opts {
		o(&c)
	}
	return c
}

// WithMCTrials sets the Monte Carlo trial count (default 10000).
func WithMCTrials(n int) EstimateOption { return func(c *estimateConfig) { c.trials = n } }

// WithMCSeed sets the Monte Carlo seed (default: the scenario seed).
func WithMCSeed(seed int64) EstimateOption { return func(c *estimateConfig) { c.seed = seed } }

// WithEstimateWorkers bounds the Monte Carlo goroutines (0 = all
// cores). The estimate is bit-identical for every worker count.
func WithEstimateWorkers(n int) EstimateOption { return func(c *estimateConfig) { c.workers = n } }

// ensureDAG builds the 2-state segment DAG once.
func (p *Plan) ensureDAG() (*probdag.Graph, error) {
	p.dagOnce.Do(func() {
		p.dag, p.dagErr = ckpt.EvalDAG(p.res.Plan)
	})
	return p.dag, p.dagErr
}

// ensureSteps builds the simulator's step list once.
func (p *Plan) ensureSteps() (*sim.Steps, error) {
	p.stepsOnce.Do(func() {
		p.steps, p.stepsErr = sim.NewSteps(p.res.Plan)
	})
	return p.steps, p.stepsErr
}

// Estimate evaluates the plan's expected makespan with the given
// method. Under CkptNone every method degenerates to the Theorem 1
// closed formula (there is no segment DAG). Deterministic methods
// ignore the options: PathApprox answers the planning-time estimate,
// and the plan computes Normal and Dodin once each, on its first
// request, and answers every later request from that result.
// MonteCarlo honours trials/seed/workers and is bit-identical for
// every worker count; a request with the trial count and seed of the
// plan's last computed Monte Carlo answer is answered from it, without
// allocating, and any other is computed and becomes that answer.
func (p *Plan) Estimate(ctx context.Context, m Method, opts ...EstimateOption) (float64, error) {
	cfg := estimateConfig{trials: DefaultMCTrials, seed: p.scenario.seed}
	if len(opts) > 0 {
		cfg = cfg.with(opts)
	}
	switch m {
	case PathApprox, MonteCarlo, Normal, Dodin:
	default:
		return 0, fmt.Errorf("%w: %q (have %v)", ErrUnknownMethod, m, Methods())
	}
	if cfg.trials < 1 {
		return 0, fmt.Errorf("%w: non-positive Monte Carlo trial count %d", ErrBadScenario, cfg.trials)
	}
	if err := ctx.Err(); err != nil {
		return 0, err
	}
	// Planning evaluated the plan with PathApprox (the Theorem 1 formula
	// under CkptNone), so that estimate needs no segment DAG here.
	if m == PathApprox || p.res.Strategy == ckpt.CkptNone {
		return p.res.ExpectedMakespan, nil
	}
	if m == MonteCarlo {
		if r := p.mc.Load(); r != nil && r.trials == cfg.trials && r.seed == cfg.seed {
			return r.v, nil
		}
	}
	g, err := p.ensureDAG()
	if err != nil {
		return 0, err
	}
	if m == MonteCarlo {
		sum, err := probdag.MonteCarloSeededCtx(ctx, g, cfg.trials, cfg.seed, cfg.workers)
		if err != nil {
			return 0, err
		}
		p.mc.Store(&record[float64]{cfg.trials, cfg.seed, sum.Mean})
		return sum.Mean, nil
	}
	slot := &p.dodin
	if m == Normal {
		slot = &p.normal
	}
	slot.once.Do(func() {
		ev, err := probdag.NewEvaluator(g)
		if err != nil {
			slot.err = err
			return
		}
		if m == Normal {
			slot.v = ev.Normal()
		} else {
			slot.v, slot.err = ev.Dodin(probdag.DodinOptions{})
		}
	})
	return slot.v, slot.err
}

// SimResult summarizes a batch of discrete-event simulation trials.
type SimResult struct {
	Trials       int
	Mean         float64
	StdDev       float64
	CI95         float64 // half-width of the 95% CI on the mean
	MeanFailures float64 // failures striking a busy processor, per run
}

// SimOption tunes Simulate.
type SimOption func(*simConfig)

type simConfig struct {
	trials  int
	seed    int64
	workers int
}

// with returns c with opts applied, as estimateConfig.with does.
func (c simConfig) with(opts []SimOption) simConfig {
	for _, o := range opts {
		o(&c)
	}
	return c
}

// WithSimTrials sets the trial count (default 2000).
func WithSimTrials(n int) SimOption { return func(c *simConfig) { c.trials = n } }

// WithSimSeed sets the trial seed (default: the scenario seed).
func WithSimSeed(seed int64) SimOption { return func(c *simConfig) { c.seed = seed } }

// WithSimWorkers bounds the trial goroutines (0 = all cores). The
// summary is bit-identical for every worker count.
func WithSimWorkers(n int) SimOption { return func(c *simConfig) { c.workers = n } }

// Simulate runs the fail-stop discrete-event simulator on the plan and
// summarizes the measured makespans — the empirical counterpart of
// Estimate. CkptNone plans use the whole-restart semantics underlying
// Theorem 1. The summary is bit-identical for every worker count; a
// request with the trial count and seed of the plan's last computed
// simulation is answered from it, without allocating, and any other
// is computed and becomes that answer.
func (p *Plan) Simulate(ctx context.Context, opts ...SimOption) (SimResult, error) {
	cfg := simConfig{trials: DefaultSimTrials, seed: p.scenario.seed}
	if len(opts) > 0 {
		cfg = cfg.with(opts)
	}
	if cfg.trials < 1 {
		return SimResult{}, fmt.Errorf("%w: non-positive trial count %d", ErrBadScenario, cfg.trials)
	}
	if err := ctx.Err(); err != nil {
		return SimResult{}, err
	}
	if r := p.sim.Load(); r != nil && r.trials == cfg.trials && r.seed == cfg.seed {
		return r.v, nil
	}
	var (
		sum   dist.Summary
		fails float64
		err   error
	)
	if p.res.Strategy == ckpt.CkptNone {
		sum, fails, err = sim.EstimateExpectedNoneDetail(ctx, p.res.Schedule, p.res.Schedule.P, cfg.trials, cfg.seed, cfg.workers)
	} else {
		var st *sim.Steps
		if st, err = p.ensureSteps(); err == nil {
			sum, fails, err = st.EstimateDetail(ctx, cfg.trials, cfg.seed, cfg.workers)
		}
	}
	if err != nil {
		return SimResult{}, err
	}
	res := SimResult{
		Trials:       sum.N,
		Mean:         sum.Mean,
		StdDev:       sum.StdDev,
		CI95:         sum.CI95,
		MeanFailures: fails,
	}
	p.sim.Store(&record[SimResult]{cfg.trials, cfg.seed, res})
	return res, nil
}

// Comparison holds the three paper strategies planned and evaluated on
// one shared schedule — the experiment underlying Figures 5-7.
type Comparison struct {
	Some, All, None *Plan
}

// RelAll returns EM(CkptAll)/EM(CkptSome) — above 1 means CkptSome
// wins.
func (c *Comparison) RelAll() float64 {
	return c.All.ExpectedMakespan() / c.Some.ExpectedMakespan()
}

// RelNone returns EM(CkptNone)/EM(CkptSome).
func (c *Comparison) RelNone() float64 {
	return c.None.ExpectedMakespan() / c.Some.ExpectedMakespan()
}

// CompareOption tunes Compare.
type CompareOption func(*compareConfig)

type compareConfig struct{ workers int }

// CompareWorkers bounds the per-strategy fan-out goroutines (0 = all
// cores). Results are identical for every worker count.
func CompareWorkers(n int) CompareOption { return func(c *compareConfig) { c.workers = n } }

// Compare plans and evaluates CkptSome, CkptAll and CkptNone on the
// same schedule of the scenario's workflow. The scenario's own strategy
// field is ignored.
func Compare(ctx context.Context, s Scenario, opts ...CompareOption) (*Comparison, error) {
	cfg := compareConfig{workers: runtime.GOMAXPROCS(0)}
	for _, o := range opts {
		o(&cfg)
	}
	if cfg.workers <= 0 {
		cfg.workers = runtime.GOMAXPROCS(0)
	}
	if err := s.Validate(); err != nil {
		return nil, err
	}
	sf, err := buildScaffold(ctx, s)
	if err != nil {
		return nil, err
	}
	schedule, err := sf.Rebuild(s.params())
	if err != nil {
		return nil, err
	}
	cc := s.coreConfig()
	cc.Workers = cfg.workers
	cmp, err := core.CompareOnSchedule(ctx, schedule, schedule.P, cc)
	if err != nil {
		return nil, err
	}
	wrap := func(res *core.Result, st Strategy) *Plan {
		sc := s
		sc.strategy = st
		return newPlan(sc, res, sf.W, sf.redundant)
	}
	return &Comparison{
		Some: wrap(cmp.Some, CkptSome),
		All:  wrap(cmp.All, CkptAll),
		None: wrap(cmp.None, CkptNone),
	}, nil
}
