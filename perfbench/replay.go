package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"math/rand"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"time"

	hanccr "repro"
	"repro/internal/ckpt"
	"repro/internal/mspg"
	"repro/internal/pegasus"
	"repro/internal/platform"
	"repro/internal/sched"
	"repro/internal/wfdag"
)

// layerSpans are the traced layer boundaries, in pipeline order.
var layerSpans = []string{
	"http.decode", "scenario.key", "service.plan",
	"estimate.pathapprox", "estimate.normal", "estimate.dodin", "estimate.montecarlo", "plan.simulate",
	"http.encode",
	"pegasus.generate", "sched.allocate", "mspg.clone", "platform.calibrate",
	"sched.rebuild", "ckpt.place", "ckpt.evaluate",
	"store.load", "store.get", "store.put",
}

// resultSpan is the span around the estimator or simulator call a
// request makes on its plan ("" for a plain plan request).
func resultSpan(k kind) string {
	switch k {
	case kindPlan:
		return ""
	case kindSimulate:
		return "plan.simulate"
	}
	return "estimate." + strings.ToLower(string(k))
}

// scaffold is the decomposition's copy of the structure-level planning
// prefix: the generated workflow and its Algorithm 1 superchains.
type scaffold struct {
	w      *mspg.Workflow
	procs  []int
	chains [][]wfdag.TaskID
}

// replayer replays a workload's request lists in-process through the
// layers' public functions, on a Service built with the daemon's flags.
type replayer struct {
	w   *workload
	svc *hanccr.Service
	// scaffolds holds the structures of the set-up requests, so a
	// structure-hit's decomposition starts where the Service's does.
	scaffolds map[string]*scaffold
	failed    int
	problems  []string
}

// passResult is one in-process pass over the timed list.
type passResult struct {
	perReq []float64 // ms per timed request, decode to encode
	tr     *tracer   // nil on the untraced pass
}

func (r *replayer) fail(format string, args ...any) {
	r.failed++
	if len(r.problems) < 10 {
		r.problems = append(r.problems, fmt.Sprintf(format, args...))
	}
}

// newService builds a Service from the daemon's own flag block and the
// workload's daemon flags.
func newService(w *workload, storeDir string) (*hanccr.Service, error) {
	fs := flag.NewFlagSet("serve", flag.ContinueOnError)
	sf := hanccr.BindServeFlags(fs)
	if err := fs.Parse(daemonArgs(w, storeDir)); err != nil {
		return nil, err
	}
	return sf.Service()
}

// pass replays set-up and the timed list once. storeDir is the store the
// Service opens (ignored without one). With a tracer, every timed request
// records its layer spans, and every miss or structure-hit is replayed
// stage by stage after it.
func (r *replayer) pass(ctx context.Context, storeFor func(round int) (string, error), tr *tracer) (*passResult, error) {
	res := &passResult{perReq: make([]float64, len(r.w.timed)), tr: tr}
	per := len(r.w.timed) / r.w.rounds
	for round := 0; round < r.w.rounds; round++ {
		dir, err := storeFor(round)
		if err != nil {
			return nil, err
		}
		if err := r.round(ctx, dir, tr, res, round*per, (round+1)*per); err != nil {
			return nil, fmt.Errorf("round %d: %w", round, err)
		}
	}
	return res, nil
}

// round is one daemon lifetime in-process: a fresh Service (and an
// empty generator memo, as in a new process), its store loaded, the
// set-up requests, then timed[lo:hi].
func (r *replayer) round(ctx context.Context, storeDir string, tr *tracer, res *passResult, lo, hi int) error {
	pegasus.ClearGenerateCache()
	svc, err := newService(r.w, storeDir)
	if err != nil {
		return err
	}
	r.svc = svc
	r.scaffolds = make(map[string]*scaffold)
	if r.w.store {
		// cmd/serve loads the store before it listens, and only with -store.
		id := tr.begin("store.load", 0, "setup")
		_, _, err = svc.LoadStore(ctx, 0)
		tr.end(id)
		if err != nil {
			return err
		}
	}
	for i, req := range r.w.prime {
		p, sc, outcome, err := r.handle(ctx, nil, "", req, req.body())
		if err != nil {
			return fmt.Errorf("set-up request %d: %w", i, err)
		}
		if outcome != r.w.primeCache {
			r.fail("set-up request %d: outcome %s, want %s", i, outcome, r.w.primeCache)
		}
		if tr != nil && outcome != hanccr.CacheHit {
			if err := r.decompose(tr, "setup", req.scenario, sc.StructureKey(), p.ExpectedMakespan(), true); err != nil {
				r.fail("set-up request %d: %v", i, err)
			}
		}
	}
	bodies := make([][]byte, hi-lo)
	for k := range bodies {
		bodies[k] = r.w.timed[lo+k].body()
	}
	for k, body := range bodies {
		i := lo + k
		req := r.w.timed[i]
		rid := fmt.Sprint(i)
		start := time.Now()
		p, sc, outcome, err := r.handle(ctx, tr, rid, req, body)
		res.perReq[i] = float64(time.Since(start).Nanoseconds()) / 1e6
		if err != nil {
			r.fail("request %d: %v", i, err)
			continue
		}
		if outcome != r.w.wantCache {
			r.fail("request %d: outcome %s, want %s", i, outcome, r.w.wantCache)
		}
		if tr != nil && outcome != hanccr.CacheHit {
			if err := r.decompose(tr, rid, req.scenario, sc.StructureKey(), p.ExpectedMakespan(), false); err != nil {
				r.fail("request %d: %v", i, err)
			}
		}
	}
	return svc.CloseStore()
}

// handle runs one request the way the daemon's handler does: decode the
// body, build and hash the scenario, plan through the Service, estimate
// or simulate on the plan, encode the public response.
func (r *replayer) handle(ctx context.Context, tr *tracer, rid string, req request, body []byte) (*hanccr.Plan, hanccr.Scenario, hanccr.CacheOutcome, error) {
	root := tr.begin("request", 0, rid)
	defer tr.end(root)

	id := tr.begin("http.decode", root, rid)
	var sreq hanccr.ScenarioRequest
	var err error
	switch req.kind {
	case kindPlan:
		err = json.Unmarshal(body, &sreq)
	case kindSimulate:
		var v hanccr.SimulateRequest
		err = json.Unmarshal(body, &v)
		sreq = v.ScenarioRequest
	default:
		var v hanccr.EstimateRequest
		err = json.Unmarshal(body, &v)
		sreq = v.ScenarioRequest
	}
	tr.end(id)
	if err != nil {
		return nil, hanccr.Scenario{}, "", err
	}

	id = tr.begin("scenario.key", root, rid)
	sc := sreq.Scenario()
	err = sc.Validate()
	key := sc.Key()
	tr.end(id)
	if err != nil {
		return nil, sc, "", err
	}

	id = tr.begin("service.plan", root, rid)
	p, outcome, err := r.svc.PlanDetail(ctx, sc)
	tr.end(id)
	if err != nil {
		return nil, sc, "", err
	}

	name := resultSpan(req.kind)
	if name != "" {
		id = tr.begin(name, root, rid)
	}
	v, err := answer(ctx, req, key, p)
	if name != "" {
		tr.end(id)
	}
	if err != nil {
		return nil, sc, "", err
	}

	id = tr.begin("http.encode", root, rid)
	_, err = encode(v)
	tr.end(id)
	return p, sc, outcome, err
}

// decompose replays the Service's cold path for one scenario stage by
// stage, in planCold's order, and requires the expected makespan to be
// bit-equal to want, the Service's answer. A structure already in
// r.scaffolds starts at the clone, as a structure-hit does; keep stores
// a new structure there.
func (r *replayer) decompose(tr *tracer, rid string, sr hanccr.ScenarioRequest, structureKey string, want float64, keep bool) error {
	root := tr.begin("replay", 0, rid)
	defer tr.end(root)
	seed, pfail, ccr := *sr.Seed, *sr.PFail, *sr.CCR
	sf := r.scaffolds[structureKey]
	if sf == nil {
		id := tr.begin("pegasus.generate", root, rid)
		w, err := pegasus.Generate(sr.Family, pegasus.Options{Tasks: sr.Tasks, Seed: seed, Ragged: sr.Ragged})
		tr.end(id)
		if err != nil {
			return err
		}
		// core.BuildSchedule's linearization seed: 0 means 1.
		linSeed := seed
		if linSeed == 0 {
			linSeed = 1
		}
		id = tr.begin("sched.allocate", root, rid)
		s, err := sched.Allocate(w, platform.New(sr.Procs, 0, sr.Bandwidth), sched.Options{Rng: rand.New(rand.NewSource(linSeed))})
		tr.end(id)
		if err != nil {
			return err
		}
		sf = &scaffold{w: w, procs: make([]int, len(s.Chains)), chains: make([][]wfdag.TaskID, len(s.Chains))}
		for i, c := range s.Chains {
			sf.procs[i] = c.Proc
			sf.chains[i] = append([]wfdag.TaskID(nil), c.Tasks...)
		}
		if keep {
			r.scaffolds[structureKey] = sf
		}
	}

	id := tr.begin("mspg.clone", root, rid)
	w := sf.w.Clone()
	tr.end(id)

	id = tr.begin("platform.calibrate", root, rid)
	pf := platform.New(sr.Procs, 0, sr.Bandwidth).WithLambdaForPFail(pfail, w.G)
	pf.ScaleToCCR(w.G, ccr)
	tr.end(id)

	// sched.Rebuild keeps the slices it is given; the scaffold's stay
	// untouched.
	procs := append([]int(nil), sf.procs...)
	chains := make([][]wfdag.TaskID, len(sf.chains))
	for i, c := range sf.chains {
		chains[i] = append([]wfdag.TaskID(nil), c...)
	}
	id = tr.begin("sched.rebuild", root, rid)
	s, err := sched.Rebuild(w, pf, procs, chains)
	tr.end(id)
	if err != nil {
		return err
	}

	id = tr.begin("ckpt.place", root, rid)
	plan, err := ckpt.BuildPlanWith(s, pf, ckpt.Strategy(sr.Strategy), ckpt.ModelFirstOrder)
	if err == nil {
		err = plan.Validate()
	}
	tr.end(id)
	if err != nil {
		return err
	}

	id = tr.begin("ckpt.evaluate", root, rid)
	em, err := ckpt.ExpectedMakespan(plan, ckpt.EvalOptions{Estimator: ckpt.EstPathApprox, MCSeed: seed})
	tr.end(id)
	if err != nil {
		return err
	}
	if math.Float64bits(em) != math.Float64bits(want) {
		return fmt.Errorf("stage-by-stage expected makespan %v differs from the Service's %v", em, want)
	}
	return nil
}

// storeSpans re-reads every record in dir with PlanStore.Get and writes
// each into a fresh store in scratch with PlanStore.Put.
func storeSpans(tr *tracer, dir, scratch string) error {
	src, err := hanccr.OpenPlanStore(dir)
	if err != nil {
		return err
	}
	defer src.Close() //hanccr:allow discarderr only read from
	if err := os.RemoveAll(scratch); err != nil {
		return err
	}
	dst, err := hanccr.OpenPlanStore(scratch)
	if err != nil {
		return err
	}
	for _, key := range src.Keys() {
		id := tr.begin("store.get", 0, "store")
		payload, ok, err := src.Get(key)
		tr.end(id)
		if err != nil || !ok {
			dst.Close() //hanccr:allow discarderr error path; the read error is what the caller sees
			return fmt.Errorf("store get %.12s: ok=%t err=%v", key, ok, err)
		}
		id = tr.begin("store.put", 0, "store")
		err = dst.Put(key, payload)
		tr.end(id)
		if err != nil {
			dst.Close() //hanccr:allow discarderr error path; the write error is what the caller sees
			return err
		}
	}
	return dst.Close()
}

// probe measures, once each, the layers the workload's lists never
// reach, on the last timed scenario, so every layer reports on every
// workload. The calls carry request ID "probe" and count one call each.
func (r *replayer) probe(ctx context.Context, tr *tracer, scratch string) error {
	calls := make(map[string]int)
	for _, s := range tr.spans {
		calls[s.Name]++
	}
	last := r.w.timed[len(r.w.timed)-1]
	sc := last.scenario.Scenario()
	p, err := hanccr.NewPlan(ctx, sc)
	if err != nil {
		return err
	}
	for _, k := range []kind{kindPathApprox, kindNormal, kindDodin, kindMonteCarlo, kindSimulate} {
		if name := resultSpan(k); calls[name] == 0 {
			id := tr.begin(name, 0, "probe")
			_, err := answer(ctx, request{kind: k, scenario: last.scenario}, sc.Key(), p)
			tr.end(id)
			if err != nil {
				return err
			}
		}
	}
	if calls["pegasus.generate"] == 0 {
		r.scaffolds = make(map[string]*scaffold)
		if err := r.decompose(tr, "probe", last.scenario, sc.StructureKey(), p.ExpectedMakespan(), false); err != nil {
			return err
		}
	}
	if calls["store.get"] == 0 {
		// No store in the workload: write the plan through a scratch
		// store, load it back and re-apply its record.
		dir := filepath.Join(scratch, "probe-store")
		if err := os.RemoveAll(dir); err != nil {
			return err
		}
		svc := hanccr.NewService(hanccr.WithStore(dir))
		if _, _, err := svc.PlanDetail(ctx, sc); err != nil {
			return err
		}
		if err := svc.CloseStore(); err != nil {
			return err
		}
		svc = hanccr.NewService(hanccr.WithStore(dir))
		id := tr.begin("store.load", 0, "probe")
		_, _, err := svc.LoadStore(ctx, 0)
		tr.end(id)
		if err != nil {
			return err
		}
		if err := svc.CloseStore(); err != nil {
			return err
		}
		return storeSpans(tr, dir, filepath.Join(scratch, "probe-put"))
	}
	return nil
}

// replayResult is the in-process half of a traced run.
type replayResult struct {
	untraced, traced *passResult
	failed           int
	problems         []string
}

// runReplay makes an untraced and a traced in-process pass over w and
// re-applies the traced pass's store records. e2eStore is the store the
// daemon run left behind; workloads whose timed list writes the store
// start each pass on a fresh one instead.
func runReplay(ctx context.Context, w *workload, e2eStore, scratch string) (*replayResult, error) {
	// The Service runs on as many cores as the daemon's does.
	procs := runtime.NumCPU()
	if w.gomaxprocs == "1" {
		procs = 1
	}
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(procs))
	r := &replayer{w: w}
	// written collects the stores a pass's rounds wrote to.
	var written []string
	storeFor := func(pass string) func(round int) (string, error) {
		return func(round int) (string, error) {
			if !w.freshStore {
				if round == 0 {
					written = append(written, e2eStore)
				}
				return e2eStore, nil
			}
			dir := filepath.Join(scratch, fmt.Sprintf("replay-store-%s-%d", pass, round))
			written = append(written, dir)
			return dir, os.RemoveAll(dir)
		}
	}
	reset := func() {
		r.svc, r.scaffolds = nil, nil
		pegasus.ClearGenerateCache()
		runtime.GC()
	}
	out := &replayResult{}
	var err error
	reset()
	if out.untraced, err = r.pass(ctx, storeFor("untraced"), nil); err != nil {
		return nil, err
	}
	reset()
	written = nil
	tr := newTracer()
	if out.traced, err = r.pass(ctx, storeFor("traced"), tr); err != nil {
		return nil, err
	}
	for _, dir := range written {
		if !w.store {
			break
		}
		if err := storeSpans(tr, dir, filepath.Join(scratch, "replay-put")); err != nil {
			return nil, err
		}
	}
	if err := r.probe(ctx, tr, scratch); err != nil {
		return nil, fmt.Errorf("probe: %w", err)
	}
	reset()
	out.failed, out.problems = r.failed, r.problems
	return out, nil
}
