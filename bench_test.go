// Package repro's root benchmark harness regenerates every table and
// figure of the paper's evaluation (§VI) as testing.B benchmarks:
//
//	BenchmarkFig5Genome   — Figure 5 (GENOME relative makespan vs CCR)
//	BenchmarkFig6Montage  — Figure 6 (MONTAGE)
//	BenchmarkFig7Ligo     — Figure 7 (LIGO)
//	BenchmarkTableAccuracy— §VI-B estimator accuracy vs MC ground truth
//	BenchmarkSimValidation— first-order model vs discrete-event simulator
//	BenchmarkAblation*    — DESIGN.md ablations A1/A2/A3
//
// plus micro-benchmarks of the pipeline stages. Figure benches report,
// via b.ReportMetric, the headline numbers of the panel they sweep
// (mean EM(CkptAll)/EM(CkptSome) and EM(CkptNone)/EM(CkptSome)), so
// `go test -bench=.` doubles as a compact reproduction report; the full
// grids are regenerated by cmd/experiments.
package hanccr

import (
	"context"
	"flag"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"runtime"
	"testing"

	"repro/internal/ckpt"
	"repro/internal/core"
	"repro/internal/expt"
	"repro/internal/pegasus"
	"repro/internal/platform"
	"repro/internal/probdag"
	"repro/internal/sched"
	"repro/internal/sim"
)

// benchWorkers sizes the experiment engine's worker pool in the figure
// benchmarks (`go test -bench=Fig -args -workers=4`); 0 means all cores.
// Row output is identical for every value — only wall clock moves.
var benchWorkers = flag.Int("workers", 0, "experiment engine workers (0 = GOMAXPROCS)")

// benchFigure sweeps one representative panel of a figure (size 300,
// second-smallest processor count, pfail 0.001) over a small CCR grid,
// through the parallel experiment engine.
func benchFigure(b *testing.B, family string) {
	cfg := expt.FigureConfig(family)
	cfg.PointsPerDecade = 2
	cfg.Sizes = []int{300}
	cfg.Procs = []int{pegasus.PaperProcessorCounts(300)[1]}
	cfg.PFails = []float64{0.001}
	cfg.Workers = *benchWorkers
	var relAll, relNone float64
	for i := 0; i < b.N; i++ {
		rows, err := expt.RunSweep(context.Background(), cfg)
		if err != nil {
			b.Fatal(err)
		}
		relAll, relNone = 0, 0
		for _, row := range rows {
			relAll += row.RelAll
			relNone += row.RelNone
		}
		relAll /= float64(len(rows))
		relNone /= float64(len(rows))
	}
	b.ReportMetric(relAll, "relAll/mean")
	b.ReportMetric(relNone, "relNone/mean")
}

// BenchmarkRunSweepWorkers pits the serial grid against the full worker
// pool on the same sweep — the speedup headline of the parallel engine
// (the two emit bit-identical rows; see TestRunSweepParallelBitIdentical).
func BenchmarkRunSweepWorkers(b *testing.B) {
	cfg := expt.FigureConfig("montage")
	cfg.PointsPerDecade = 2
	cfg.Sizes = []int{300}
	cfg.PFails = []float64{0.001}
	for _, workers := range []int{1, runtime.NumCPU()} {
		b.Run(fmt.Sprintf("workers=%d", workers), func(b *testing.B) {
			c := cfg
			c.Workers = workers
			for i := 0; i < b.N; i++ {
				if _, err := expt.RunSweep(context.Background(), c); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

func BenchmarkFig5Genome(b *testing.B)  { benchFigure(b, "genome") }
func BenchmarkFig6Montage(b *testing.B) { benchFigure(b, "montage") }
func BenchmarkFig7Ligo(b *testing.B)    { benchFigure(b, "ligo") }

// BenchmarkTableAccuracy reproduces the §VI-B comparison: each iteration
// evaluates one CkptSome segment DAG with all four estimators against a
// Monte Carlo ground truth and reports PathApprox's relative error.
func BenchmarkTableAccuracy(b *testing.B) {
	var pathErr, dodinErr, normalErr float64
	for i := 0; i < b.N; i++ {
		rows, err := expt.RunAccuracy(context.Background(), expt.AccuracyConfig{
			Families: []string{"genome", "montage"}, Sizes: []int{50},
			PFails: []float64{0.001}, TruthTrials: 50000, Seed: 42,
		})
		if err != nil {
			b.Fatal(err)
		}
		pathErr, dodinErr, normalErr = 0, 0, 0
		n := 0.0
		for _, r := range rows {
			switch r.Estimator {
			case "PathApprox":
				pathErr += r.RelError
				n++
			case "Dodin":
				dodinErr += r.RelError
			case "Normal":
				normalErr += r.RelError
			}
		}
		pathErr /= n
		dodinErr /= n
		normalErr /= n
	}
	b.ReportMetric(pathErr, "pathapprox-relerr")
	b.ReportMetric(dodinErr, "dodin-relerr")
	b.ReportMetric(normalErr, "normal-relerr")
}

// BenchmarkSimValidation cross-checks the analytic first-order estimate
// against the discrete-event simulator (E5 in DESIGN.md) and reports the
// mean relative gap for the checkpointed strategies.
func BenchmarkSimValidation(b *testing.B) {
	var gap float64
	for i := 0; i < b.N; i++ {
		rows, err := expt.RunSimCheck(context.Background(), expt.SimCheckConfig{
			Families: []string{"genome", "ligo"}, Tasks: 50, Procs: 5,
			PFails: []float64{0.001}, CCR: 0.01, Trials: 500, Seed: 42,
		})
		if err != nil {
			b.Fatal(err)
		}
		gap = 0
		n := 0.0
		for _, r := range rows {
			if r.Strategy != string(ckpt.CkptNone) {
				gap += r.RelDiff
				n++
			}
		}
		gap /= n
	}
	b.ReportMetric(gap, "analytic-vs-sim-relgap")
}

// BenchmarkAblationCheckpointPlacement measures the DP against exit-only
// / periodic / everything placements (A1) and reports how much worse the
// best non-DP variant is.
func BenchmarkAblationCheckpointPlacement(b *testing.B) {
	var bestOther float64
	for i := 0; i < b.N; i++ {
		rows, err := expt.AblateCheckpointPlacement(context.Background(), expt.AblationConfig{Seed: 42})
		if err != nil {
			b.Fatal(err)
		}
		bestOther = 0
		for _, r := range rows {
			if r.Variant != "DP (CkptSome)" && (bestOther == 0 || r.RelToSome < bestOther) {
				bestOther = r.RelToSome
			}
		}
	}
	b.ReportMetric(bestOther, "best-non-DP-rel")
}

// BenchmarkAblationMapping measures PropMap against a single processor
// (A2).
func BenchmarkAblationMapping(b *testing.B) {
	var single float64
	for i := 0; i < b.N; i++ {
		rows, err := expt.AblateMapping(context.Background(), expt.AblationConfig{Seed: 42})
		if err != nil {
			b.Fatal(err)
		}
		single = rows[1].RelToSome
	}
	b.ReportMetric(single, "single-proc-rel")
}

// BenchmarkAblationLinearization compares topological-order policies
// inside superchains (A3, the paper's §VIII direction).
func BenchmarkAblationLinearization(b *testing.B) {
	var minLive float64
	for i := 0; i < b.N; i++ {
		rows, err := expt.AblateLinearization(context.Background(), expt.AblationConfig{Family: "montage", Seed: 42})
		if err != nil {
			b.Fatal(err)
		}
		minLive = rows[2].RelToSome
	}
	b.ReportMetric(minLive, "minlivefiles-rel")
}

// --- Pipeline stage micro-benchmarks -----------------------------------

func benchWorkflow(b *testing.B, fam string, tasks, procs int) (*core.Result, platform.Platform) {
	b.Helper()
	w, err := pegasus.Generate(fam, pegasus.Options{Tasks: tasks, Seed: 42})
	if err != nil {
		b.Fatal(err)
	}
	pf := platform.New(procs, 0, 1e8).WithLambdaForPFail(0.001, w.G)
	pf.ScaleToCCR(w.G, 0.01)
	res, err := core.Run(context.Background(), w, pf, core.Config{})
	if err != nil {
		b.Fatal(err)
	}
	return res, pf
}

func BenchmarkGenerate1000(b *testing.B) {
	for _, fam := range pegasus.PaperFamilies() {
		b.Run(fam, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, err := pegasus.Generate(fam, pegasus.Options{Tasks: 1000, Seed: int64(i + 1)}); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

func BenchmarkScheduleAllocate1000(b *testing.B) {
	w, err := pegasus.Generate("genome", pegasus.Options{Tasks: 1000, Seed: 42})
	if err != nil {
		b.Fatal(err)
	}
	pf := platform.New(61, 1e-6, 1e8)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := sched.Allocate(w, pf, sched.Options{Rng: rand.New(rand.NewSource(int64(i)))}); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkCheckpointDP1000(b *testing.B) {
	w, err := pegasus.Generate("genome", pegasus.Options{Tasks: 1000, Seed: 42})
	if err != nil {
		b.Fatal(err)
	}
	pf := platform.New(61, 0, 1e8).WithLambdaForPFail(0.001, w.G)
	pf.ScaleToCCR(w.G, 0.01)
	s, err := sched.Allocate(w, pf, sched.Options{Rng: rand.New(rand.NewSource(1))})
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := ckpt.BuildPlanWith(s, pf, ckpt.CkptSome, ckpt.ModelFirstOrder); err != nil {
			b.Fatal(err)
		}
	}
}

func benchEvalDAG(b *testing.B) *probdag.Graph {
	b.Helper()
	res, _ := benchWorkflow(b, "genome", 1000, 61)
	g, err := ckpt.EvalDAG(res.Plan)
	if err != nil {
		b.Fatal(err)
	}
	return g
}

// The estimator benches hold one reusable Evaluator, the engine's hot
// configuration: repeated evaluations of a fixed segment DAG allocate
// nothing.
func BenchmarkEstimatorPathApprox(b *testing.B) {
	g := benchEvalDAG(b)
	ev, err := probdag.NewEvaluator(g)
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		ev.PathApprox()
	}
}

func BenchmarkEstimatorNormal(b *testing.B) {
	g := benchEvalDAG(b)
	ev, err := probdag.NewEvaluator(g)
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		ev.Normal()
	}
}

// BenchmarkEstimatorDodin holds one reusable Evaluator like the other
// estimator benches, so every reduction step of every iteration shares
// the pooled dist.Combiner scratch.
func BenchmarkEstimatorDodin(b *testing.B) {
	g := benchEvalDAG(b)
	ev, err := probdag.NewEvaluator(g)
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := ev.Dodin(probdag.DodinOptions{}); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkEstimatorDodinMontage is the Dodin shape that sets the
// daemon's estimate tail: montage, 300 tasks, DefaultProcs, seed 1,
// CkptSome. Its segment DAG needs ~145 duplications, so it exercises
// the max kernel and the parallel pass far more than the genome bench.
func BenchmarkEstimatorDodinMontage(b *testing.B) {
	p, err := NewPlan(context.Background(), NewScenario(WithFamily("montage"), WithTasks(300), WithSeed(1)))
	if err != nil {
		b.Fatal(err)
	}
	g, err := p.ensureDAG()
	if err != nil {
		b.Fatal(err)
	}
	ev, err := probdag.NewEvaluator(g)
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := ev.Dodin(probdag.DodinOptions{}); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkEstimatorMonteCarlo10k(b *testing.B) {
	g := benchEvalDAG(b)
	ev, err := probdag.NewEvaluator(g)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		ev.MonteCarlo(10000, int64(i+1))
	}
}

// BenchmarkEstimatorMonteCarloSeeded10k is the chunked, goroutine-fanned
// Monte Carlo at the same trial count (workers = all cores; the summary
// is bit-identical for any worker count).
func BenchmarkEstimatorMonteCarloSeeded10k(b *testing.B) {
	g := benchEvalDAG(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := probdag.MonteCarloSeededCtx(context.Background(), g, 10000, int64(i+1), 0); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkSimulatorTrial measures one DES trial through the reusable
// Runner — the configuration EstimateExpectedDetail's chunked trial
// loops run in: the plan tables and all per-trial buffers are built
// once, so the steady state allocates nothing.
func BenchmarkSimulatorTrial(b *testing.B) {
	res, _ := benchWorkflow(b, "genome", 300, 18)
	r, err := sim.NewRunner(res.Plan)
	if err != nil {
		b.Fatal(err)
	}
	rng := rand.New(rand.NewSource(1))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := r.Run(rng); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkFullPipeline300 measures the daemon's cold path on
// montage-300 with 35 processors: generate, Algorithm 1 (buildScaffold),
// then one clone of the fresh master and the parameter tail
// (planFromScaffold), as a cold miss runs them.
func BenchmarkFullPipeline300(b *testing.B) {
	ctx := context.Background()
	sc := NewScenario(WithFamily("montage"), WithTasks(300), WithProcs(35), WithSeed(42),
		WithPFail(0.001), WithCCR(0.01))
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		sf, err := buildScaffold(ctx, sc)
		if err != nil {
			b.Fatal(err)
		}
		if _, err := planFromScaffold(ctx, sc, sf); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkColdMix is the in-process twin of perfbench's cold-plan
// workload: each op plans 12 never-seen structures, the four families
// at 200, 300 and 400 tasks with default parameters and the op's own
// seed, each through buildScaffold (generate, validate, Algorithm 1)
// and planFromScaffold, as a daemon cold miss runs them.
func BenchmarkColdMix(b *testing.B) {
	ctx := context.Background()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		for _, fam := range []string{"genome", "montage", "ligo", "cybershake"} {
			for _, n := range []int{200, 300, 400} {
				sc := NewScenario(WithFamily(fam), WithTasks(n), WithSeed(int64(i+1)))
				sf, err := buildScaffold(ctx, sc)
				if err != nil {
					b.Fatal(err)
				}
				if _, err := planFromScaffold(ctx, sc, sf); err != nil {
					b.Fatal(err)
				}
			}
		}
	}
}

// BenchmarkStoreWriteThrough measures the plan store's write-through
// on BenchmarkColdMix's 12 plans (seed 1): each op encodes the 12
// payloads and Puts them into a fresh store, as Service.storePut does
// on a cold miss. Opening the store is not timed.
func BenchmarkStoreWriteThrough(b *testing.B) {
	ctx := context.Background()
	var (
		keys  []string
		plans []*Plan
	)
	for _, fam := range []string{"genome", "montage", "ligo", "cybershake"} {
		for _, n := range []int{200, 300, 400} {
			sc := NewScenario(WithFamily(fam), WithTasks(n), WithSeed(1))
			p, err := NewPlan(ctx, sc)
			if err != nil {
				b.Fatal(err)
			}
			keys, plans = append(keys, sc.Key()), append(plans, p)
		}
	}
	dir := filepath.Join(b.TempDir(), "store")
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		if err := os.RemoveAll(dir); err != nil {
			b.Fatal(err)
		}
		st, err := OpenPlanStore(dir)
		if err != nil {
			b.Fatal(err)
		}
		b.StartTimer()
		for j, p := range plans {
			payload, err := encodePlan(p)
			if err != nil {
				b.Fatal(err)
			}
			if err := st.Put(keys[j], payload); err != nil {
				b.Fatal(err)
			}
		}
		b.StopTimer()
		if err := st.Close(); err != nil {
			b.Fatal(err)
		}
		b.StartTimer()
	}
}

// BenchmarkStoreLoad measures a restart over a store shaped like
// perfbench hot-estimate's: 64 records (the four families × 16 seeds at
// 300 tasks, default parameters), written by a Service's write-through
// outside the timer. Each op opens the store (NewService(WithStore))
// and plans every record into the cache with one worker (LoadStore), as
// the daemon's boot does.
func BenchmarkStoreLoad(b *testing.B) {
	var scenarios []Scenario
	for _, fam := range []string{"genome", "montage", "ligo", "cybershake"} {
		for seed := int64(1); seed <= 16; seed++ {
			scenarios = append(scenarios, NewScenario(WithFamily(fam), WithTasks(300), WithSeed(seed)))
		}
	}
	benchStoreLoad(b, scenarios)
}

// BenchmarkStoreLoad10k is BenchmarkStoreLoad over 8 records of 10 000
// tasks (the four families × 2 seeds, procs = tasks/10), where a reload
// is dominated by generation and Algorithm 1.
func BenchmarkStoreLoad10k(b *testing.B) {
	var scenarios []Scenario
	for _, fam := range []string{"genome", "montage", "ligo", "cybershake"} {
		for seed := int64(1); seed <= 2; seed++ {
			scenarios = append(scenarios, NewScenario(WithFamily(fam), WithTasks(10000), WithProcs(1000), WithSeed(seed)))
		}
	}
	benchStoreLoad(b, scenarios)
}

// benchStoreLoad writes scenarios' records through a Service outside
// the timer, then times NewService(WithStore) plus LoadStore with one
// worker per op.
func benchStoreLoad(b *testing.B, scenarios []Scenario) {
	ctx := context.Background()
	dir := filepath.Join(b.TempDir(), "store")
	writer := NewService(WithStore(dir))
	for _, sc := range scenarios {
		if _, err := writer.Plan(ctx, sc); err != nil {
			b.Fatal(err)
		}
	}
	if err := writer.CloseStore(); err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		svc := NewService(WithStore(dir))
		loaded, dropped, err := svc.LoadStore(ctx, 1)
		if err != nil || loaded != len(scenarios) || dropped != 0 {
			b.Fatalf("LoadStore: %d loaded, %d dropped, %v; want %d, 0, nil", loaded, dropped, err, len(scenarios))
		}
		b.StopTimer()
		if err := svc.CloseStore(); err != nil {
			b.Fatal(err)
		}
		b.StartTimer()
	}
}

// BenchmarkAblationCostModel measures the A4 extension: the exact
// restart cost model vs the paper's first-order Eq. (2), each validated
// by discrete-event simulation; the reported metrics are the two models'
// self-prediction gaps (|analytic − DES|/DES).
func BenchmarkAblationCostModel(b *testing.B) {
	var foGap, exGap float64
	for i := 0; i < b.N; i++ {
		rows, err := expt.AblateCostModel(context.Background(), expt.AblationConfig{
			Family: "montage", Tasks: 300, Procs: 35, PFail: 0.01, CCR: 0.1, Seed: 42,
		}, 300)
		if err != nil {
			b.Fatal(err)
		}
		foGap, exGap = rows[0].AnalyticGap, rows[1].AnalyticGap
	}
	b.ReportMetric(foGap, "firstorder-selfgap")
	b.ReportMetric(exGap, "exact-selfgap")
}

// BenchmarkPlanFromScaffold measures the near-duplicate parameter tail
// a structure-hit runs (clone, calibrate, rebuild, Algorithm 2,
// evaluate) on resident scaffolds: 4 families × 2 seeds of 300 tasks,
// and per scaffold one variant of each timed strategy (CkptSome,
// CkptAll, ExitOnly) at its own pfail and CCR, as the perfbench
// near-dup workload draws them. Each op plans one variant.
func BenchmarkPlanFromScaffold(b *testing.B) {
	ctx := context.Background()
	type variant struct {
		sc Scenario
		sf *planScaffold
	}
	pfails := []float64{1e-4, 1e-3, 1e-2}
	ccrs := []float64{1e-3, 1e-2, 1e-1, 1}
	var vs []variant
	for _, fam := range []string{"genome", "montage", "ligo", "cybershake"} {
		for _, seed := range []int64{1, 2} {
			sf, err := buildScaffold(ctx, NewScenario(WithFamily(fam), WithSeed(seed)))
			if err != nil {
				b.Fatal(err)
			}
			for _, st := range []Strategy{CkptSome, CkptAll, ExitOnly} {
				k := len(vs)
				sc := NewScenario(WithFamily(fam), WithSeed(seed), WithStrategy(st),
					WithPFail(pfails[k%len(pfails)]), WithCCR(ccrs[k%len(ccrs)]))
				vs = append(vs, variant{sc, sf})
			}
		}
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		v := vs[i%len(vs)]
		if _, err := planFromScaffold(ctx, v.sc, v.sf); err != nil {
			b.Fatal(err)
		}
	}
}

// hotPlans returns the cached plans perfbench's hot-estimate heavy
// slots hit: the four families at 300 tasks with default parameters
// (plus opts) under CkptSome, each asked once so its segment DAG is
// built.
func hotPlans(b *testing.B, opts ...ScenarioOption) []*Plan {
	ctx := context.Background()
	var plans []*Plan
	for _, fam := range []string{"genome", "montage", "ligo", "cybershake"} {
		p, err := NewPlan(ctx, NewScenario(append([]ScenarioOption{WithFamily(fam), WithTasks(300)}, opts...)...))
		if err != nil {
			b.Fatal(err)
		}
		if _, err := p.Estimate(ctx, PathApprox); err != nil {
			b.Fatal(err)
		}
		plans = append(plans, p)
	}
	return plans
}

// BenchmarkEstimateHotMonteCarlo is hot-estimate's Monte Carlo slot in
// process: each op is one 1 000-trial, one-worker estimate on one of
// the four cached hot plans, in turn. Each op has its own seed, so the
// plan's record of its last answer never serves it and the op measures
// the kernel.
func BenchmarkEstimateHotMonteCarlo(b *testing.B) {
	ctx := context.Background()
	plans := hotPlans(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := plans[i%len(plans)].Estimate(ctx, MonteCarlo, WithMCTrials(1000), WithMCSeed(int64(i)), WithEstimateWorkers(1)); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkSimulateHot is hot-estimate's simulate slot in process: each
// op is one 200-trial, one-worker simulation of one of the four cached
// hot plans, in turn, with a seed of its own (see
// BenchmarkEstimateHotMonteCarlo).
func BenchmarkSimulateHot(b *testing.B) {
	benchSimulateHot(b, hotPlans(b))
}

// BenchmarkSimulateHotPFail01 is BenchmarkSimulateHot at pfail 0.01,
// where nearly every trial has a failure strike a running segment, so
// few trials end in the simulator's failure-free walk.
func BenchmarkSimulateHotPFail01(b *testing.B) {
	benchSimulateHot(b, hotPlans(b, WithPFail(0.01)))
}

func benchSimulateHot(b *testing.B, plans []*Plan) {
	ctx := context.Background()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := plans[i%len(plans)].Simulate(ctx, WithSimTrials(200), WithSimSeed(int64(i)), WithSimWorkers(1)); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkEstimateHotMemo is the heavy slots' repeated requests: each
// op asks one of the four cached hot plans, in turn, for the Monte
// Carlo estimate and the simulation it already computed (default trial
// counts and seeds), so both come from the plan's records.
func BenchmarkEstimateHotMemo(b *testing.B) {
	ctx := context.Background()
	plans := hotPlans(b)
	for _, p := range plans {
		if _, err := p.Estimate(ctx, MonteCarlo); err != nil {
			b.Fatal(err)
		}
		if _, err := p.Simulate(ctx); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		p := plans[i%len(plans)]
		if _, err := p.Estimate(ctx, MonteCarlo); err != nil {
			b.Fatal(err)
		}
		if _, err := p.Simulate(ctx); err != nil {
			b.Fatal(err)
		}
	}
}
