package hanccr

import (
	"bytes"
	"context"
	"fmt"
	"math"
	"testing"

	"repro/internal/ckpt"
	"repro/internal/core"
	"repro/internal/expt"
	"repro/internal/pegasus"
	"repro/internal/platform"
	"repro/internal/probdag"
)

// redundantDoc is a 6-task M-SPG (the chain a→b→c→d→e beside a→f→e)
// plus two transitively redundant dependencies, a→c and b→d, which
// the GSPG recognition fallback ignores.
const redundantDoc = `{
  "tasks": [
    {"id": 0, "name": "a", "weight": 3},
    {"id": 1, "name": "b", "weight": 5},
    {"id": 2, "name": "c", "weight": 2},
    {"id": 3, "name": "d", "weight": 4},
    {"id": 4, "name": "e", "weight": 1},
    {"id": 5, "name": "f", "weight": 6}
  ],
  "files": [
    {"id": 0, "name": "in", "size": 2e6, "producer": -1, "consumers": [0]},
    {"id": 1, "name": "ab", "size": 1e6, "producer": 0, "consumers": [1, 2]},
    {"id": 2, "name": "af", "size": 3e6, "producer": 0, "consumers": [5]},
    {"id": 3, "name": "bc", "size": 2e6, "producer": 1, "consumers": [2, 3]},
    {"id": 4, "name": "cd", "size": 1e6, "producer": 2, "consumers": [3]},
    {"id": 5, "name": "de", "size": 4e6, "producer": 3, "consumers": [4]},
    {"id": 6, "name": "fe", "size": 5e5, "producer": 5, "consumers": [4]},
    {"id": 7, "name": "out", "size": 1e6, "producer": 4}
  ]
}`

// pipelineCases spans every start stage's inputs: each family,
// strategy, cost model and the ragged generator at seed 0 (the core
// seed default) and a nonzero seed, an injected document with
// redundant edges under each strategy, and a failure-free,
// communication-free platform.
func pipelineCases() []Scenario {
	var out []Scenario
	for _, fam := range pegasus.Families() {
		for _, st := range Strategies() {
			for _, seed := range []int64{0, 3} {
				for _, exact := range []bool{false, true} {
					for _, ragged := range []bool{false, true} {
						opts := []ScenarioOption{
							WithFamily(fam), WithTasks(30), WithProcs(3), WithSeed(seed),
							WithPFail(0.01), WithCCR(0.2), WithStrategy(st), WithRagged(ragged),
						}
						if exact {
							opts = append(opts, WithExactCostModel())
						}
						out = append(out, NewScenario(opts...))
					}
				}
			}
		}
	}
	for _, st := range Strategies() {
		out = append(out, NewScenario(WithWorkflow("redundant", "json", []byte(redundantDoc)),
			WithProcs(2), WithPFail(0.05), WithStrategy(st)))
	}
	return append(out, NewScenario(WithTasks(30), WithProcs(3), WithPFail(0), WithCCR(0)))
}

// referencePlan plans s the serial way: core.Run on a freshly
// materialized workflow, calibrated inline rather than through
// core.Calibrate, with no scaffold and no rebuild.
func referencePlan(ctx context.Context, s Scenario) (*Plan, error) {
	w, redundant, err := s.materialize(ctx, nil)
	if err != nil {
		return nil, err
	}
	pf := platform.New(s.procs, 0, s.bandwidth).WithLambdaForPFail(s.pfail, w.G)
	pf.ScaleToCCR(w.G, s.ccr)
	res, err := core.Run(ctx, w, pf, s.coreConfig())
	if err != nil {
		return nil, err
	}
	return newPlan(s, res, w, redundant), nil
}

// planFingerprint renders everything a caller can observe of a plan
// with floats as their bit patterns: the store encoding, the workflow
// summary, all four estimators and a simulation.
func planFingerprint(ctx context.Context, p *Plan) (string, error) {
	var b bytes.Buffer
	payload, err := encodePlan(p)
	if err != nil {
		return "", err
	}
	b.Write(payload)
	info := p.Workflow()
	fmt.Fprintf(&b, "\n%s %d %d %x %x %d", info.Name, info.Tasks, info.Files,
		math.Float64bits(info.CCR), math.Float64bits(info.Lambda), info.RedundantEdges)
	for _, m := range Methods() {
		em, err := p.Estimate(ctx, m, WithMCTrials(200), WithEstimateWorkers(1))
		if err != nil {
			return "", err
		}
		fmt.Fprintf(&b, "\n%s %x", m, math.Float64bits(em))
	}
	sim, err := p.Simulate(ctx, WithSimTrials(50), WithSimWorkers(1))
	if err != nil {
		return "", err
	}
	fmt.Fprintf(&b, "\nsim %d %x %x %x %x", sim.Trials, math.Float64bits(sim.Mean),
		math.Float64bits(sim.StdDev), math.Float64bits(sim.CI95), math.Float64bits(sim.MeanFailures))
	return b.String(), nil
}

// namedPlan labels a plan with the entry point that built it.
type namedPlan struct {
	name string
	p    *Plan
}

// TestPipelineEntryPointsAgree plans every case through each way the
// package builds a plan — NewPlan, a fresh scaffold's tail, a store
// round trip and the facade Compare — and demands each be
// indistinguishable from the serial core.Run reference. The sweeps'
// entry point, expt.RunPoint, must reproduce the reference's makespans
// and schedule wherever its fixed settings (a generated workflow, a
// nonzero seed, the first-order model, one of the paper's three
// strategies) cover the case.
func TestPipelineEntryPointsAgree(t *testing.T) {
	ctx := context.Background()
	sawRedundant := false
	for _, sc := range pipelineCases() {
		label := sc.family
		if !sc.Generated() {
			label = sc.source
		}
		name := fmt.Sprintf("%s/%s/seed=%d/pfail=%g/%s/ragged=%v", label, sc.strategy, sc.seed, sc.pfail, sc.model(), sc.ragged)
		ref, err := referencePlan(ctx, sc)
		if err != nil {
			t.Fatalf("%s: reference: %v", name, err)
		}
		want, err := planFingerprint(ctx, ref)
		if err != nil {
			t.Fatalf("%s: reference: %v", name, err)
		}
		sawRedundant = sawRedundant || ref.Workflow().RedundantEdges == 2

		fresh, err := NewPlan(ctx, sc)
		if err != nil {
			t.Fatalf("%s: NewPlan: %v", name, err)
		}
		sf, err := buildScaffold(ctx, sc)
		if err != nil {
			t.Fatalf("%s: buildScaffold: %v", name, err)
		}
		scaffolded, err := planFromScaffold(ctx, sc, sf)
		if err != nil {
			t.Fatalf("%s: planFromScaffold: %v", name, err)
		}
		payload, err := encodePlan(fresh)
		if err != nil {
			t.Fatal(err)
		}
		decoded, err := decodePlan(ctx, sc.Key(), payload, nil)
		if err != nil {
			t.Fatalf("%s: decodePlan: %v", name, err)
		}
		paths := []namedPlan{{"NewPlan", fresh}, {"planFromScaffold", scaffolded}, {"decodePlan", decoded}}
		if sc.strategy != ExitOnly {
			cmp, err := Compare(ctx, sc, CompareWorkers(1))
			if err != nil {
				t.Fatalf("%s: Compare: %v", name, err)
			}
			p := map[Strategy]*Plan{CkptSome: cmp.Some, CkptAll: cmp.All, CkptNone: cmp.None}[sc.strategy]
			paths = append(paths, namedPlan{"Compare", p})
		}
		if sc.Generated() && sc.seed != 0 && !sc.exact && sc.strategy != ExitOnly {
			checkRunPoint(t, ctx, name, sc, ref)
		}
		for _, path := range paths {
			checkPathApproxOverDAG(t, ctx, name+": "+path.name, path.p)
			got, err := planFingerprint(ctx, path.p)
			if err != nil {
				t.Fatalf("%s: %s: %v", name, path.name, err)
			}
			if got != want {
				t.Errorf("%s: %s differs from the core.Run reference:\n got %s\nwant %s", name, path.name, got, want)
			}
		}
	}
	if !sawRedundant {
		t.Error("no case exercised a workflow with 2 redundant edges")
	}
}

// checkPathApproxOverDAG demands that p's PathApprox estimate, which
// Plan.Estimate answers from the planning-time result, be bit-equal to
// PathApprox recomputed over a freshly built segment DAG (Theorem 1
// under CkptNone).
func checkPathApproxOverDAG(t *testing.T, ctx context.Context, name string, p *Plan) {
	t.Helper()
	got, err := p.Estimate(ctx, PathApprox)
	if err != nil {
		t.Fatalf("%s: PathApprox: %v", name, err)
	}
	want := ckpt.Theorem1(p.res.Schedule, p.res.Schedule.P)
	if p.res.Strategy != ckpt.CkptNone {
		g, err := ckpt.EvalDAG(p.res.Plan)
		if err != nil {
			t.Fatalf("%s: EvalDAG: %v", name, err)
		}
		ev, err := probdag.NewEvaluator(g)
		if err != nil {
			t.Fatalf("%s: NewEvaluator: %v", name, err)
		}
		want = ev.PathApprox()
	}
	if math.Float64bits(got) != math.Float64bits(want) {
		t.Errorf("%s: Estimate(PathApprox) = %v, PathApprox over the segment DAG = %v", name, got, want)
	}
}

// checkRunPoint compares sc's expt.RunPoint row with ref, the core.Run
// reference plan of sc, bit for bit.
func checkRunPoint(t *testing.T, ctx context.Context, name string, sc Scenario, ref *Plan) {
	t.Helper()
	cfg := expt.SweepConfig{Family: sc.family, Seed: sc.seed, Bandwidth: sc.bandwidth, Ragged: sc.ragged}
	row, err := expt.RunPoint(ctx, cfg, sc.tasks, sc.procs, sc.pfail, sc.ccr)
	if err != nil {
		t.Fatalf("%s: RunPoint: %v", name, err)
	}
	em := map[Strategy]float64{CkptSome: row.EMSome, CkptAll: row.EMAll, CkptNone: row.EMNone}[sc.strategy]
	if math.Float64bits(em) != math.Float64bits(ref.ExpectedMakespan()) ||
		math.Float64bits(row.WPar) != math.Float64bits(ref.FailureFreeMakespan()) ||
		row.Superchains != ref.NumSuperchains() ||
		(sc.strategy == CkptSome && row.CheckpointsSome != ref.NumCheckpoints()) {
		t.Errorf("%s: RunPoint differs from the core.Run reference: EM %v, W_par %v, %d superchains, %d checkpoints; want %v, %v, %d, %d",
			name, em, row.WPar, row.Superchains, row.CheckpointsSome,
			ref.ExpectedMakespan(), ref.FailureFreeMakespan(), ref.NumSuperchains(), ref.NumCheckpoints())
	}
}
