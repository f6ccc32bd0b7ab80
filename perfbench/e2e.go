package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"runtime/debug"
	"sort"
	"time"

	hanccr "repro"
)

// options are the driver's run settings.
type options struct {
	serve   string // cmd/serve binary
	work    string // scratch directory for stores, logs and spans
	seed    int64
	seconds int
}

// A run boots the daemon at least minBoots times and until minSetup of
// set-up time has passed (at most maxBoots times); setup_s is the
// median boot, and the last boot serves the timed phase. Cheap set-ups
// take more boots, so their median is as steady as an expensive one's.
const (
	minBoots = 7
	maxBoots = 41
	minSetup = time.Second
)

// sampleEvery sets how often a timed response is byte-compared with the
// in-process serial reference: once per 64 requests.
const sampleEvery = 64

// sampled picks request 64k + (k mod 64) for every k, so the checked
// requests rotate through hot-estimate's 8-slot cycle instead of always
// landing on slot 0.
func sampled(i int) bool { return i%sampleEvery == (i/sampleEvery)%sampleEvery }

// e2eResult is one run against the daemon.
type e2eResult struct {
	attempted, failed int
	problems          []string
	setups            []float64 // seconds, one per timed boot
	latencies         []float64 // ms per timed request; +Inf when failed
	wall              time.Duration
	cpuTicks          int64
	maxRSSKiB         int64
	delta             statsDelta
	shed              uint64
	storeDir          string
	// storeRecords and storeBytes describe the store after the run.
	storeRecords int
	storeBytes   int64
}

func (r *e2eResult) fail(i int, format string, args ...any) {
	r.failed++
	r.latencies[i] = math.Inf(1)
	if len(r.problems) < 10 {
		r.problems = append(r.problems, fmt.Sprintf("request %d: ", i)+fmt.Sprintf(format, args...))
	}
}

// daemonArgs are the workload's cmd/serve flags besides -addr.
func daemonArgs(w *workload, storeDir string) []string {
	if w.store {
		return []string{"-store", storeDir}
	}
	return nil
}

// sendAll sends reqs on one connection and requires each answer to be
// 200 with X-Cache want; it is the untimed and set-up traffic.
func sendAll(c *conn, addr string, reqs []request, want hanccr.CacheOutcome) error {
	for i, req := range reqs {
		rep, err := c.do(wire(addr, req.path(), req.body()))
		if err != nil {
			return fmt.Errorf("set-up request %d: %w", i, err)
		}
		if rep.status != 200 || rep.cache != string(want) {
			return fmt.Errorf("set-up request %d: status %d X-Cache %q, want 200 %q: %s", i, rep.status, rep.cache, want, rep.body)
		}
	}
	return nil
}

// runE2E drives w's timed list against the daemon, one daemon lifetime
// per round, each from one closed-loop connection. With measureSetup,
// set-up-only boots come first so setup_s has enough samples.
func runE2E(w *workload, o options, measureSetup bool) (*e2eResult, error) {
	dir := filepath.Join(o.work, fmt.Sprintf("%s-%d", w.name, o.seed))
	if err := os.RemoveAll(dir); err != nil {
		return nil, err
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, err
	}
	res := &e2eResult{attempted: len(w.timed), latencies: make([]float64, len(w.timed)), storeDir: filepath.Join(dir, "store")}
	logPath := filepath.Join(dir, "daemon.log")
	args := daemonArgs(w, res.storeDir)

	if len(w.prepare) > 0 {
		if err := prepare(w, o, args, logPath); err != nil {
			return nil, fmt.Errorf("preparation boot: %w", err)
		}
	}
	var spent time.Duration
	for measureSetup && len(res.setups) < maxBoots-w.rounds &&
		(len(res.setups) < minBoots-w.rounds || spent < minSetup) {
		d, c, err := boot(w, o, args, logPath)
		if err != nil {
			return nil, err
		}
		took := time.Since(d.start)
		spent += took
		res.setups = append(res.setups, took.Seconds())
		c.close()
		if _, err := d.stop(); err != nil {
			return nil, err
		}
	}
	bodies := make(map[int][]byte)
	var rss []float64
	per := len(w.timed) / w.rounds
	for r := 0; r < w.rounds; r++ {
		kib, err := runRound(w, o, res, args, logPath, r*per, (r+1)*per, bodies)
		if err != nil {
			return nil, fmt.Errorf("round %d: %w", r, err)
		}
		rss = append(rss, float64(kib))
	}
	res.maxRSSKiB = int64(median(rss))
	if err := checkReferences(w, res, bodies); err != nil {
		return nil, err
	}
	return res, writeLatencies(filepath.Join(dir, "latencies.tsv"), w, res.latencies)
}

// runRound boots one daemon, sends timed[lo:hi] from one connection and
// stops the daemon, returning its peak resident set in KiB. Sampled
// response bodies are kept in bodies for the reference check.
func runRound(w *workload, o options, res *e2eResult, args []string, logPath string, lo, hi int, bodies map[int][]byte) (int64, error) {
	if w.freshStore {
		if err := os.RemoveAll(res.storeDir); err != nil {
			return 0, err
		}
	}
	d, c, err := boot(w, o, args, logPath)
	if err != nil {
		return 0, err
	}
	res.setups = append(res.setups, time.Since(d.start).Seconds())
	defer d.kill()
	defer func() { c.close() }()

	raws := make([][]byte, hi-lo)
	for i := range raws {
		req := w.timed[lo+i]
		raws[i] = wire(d.addr, req.path(), req.body())
	}
	before, err := d.stats()
	if err != nil {
		return 0, err
	}
	cpu0, err := d.cpuTicks()
	if err != nil {
		return 0, err
	}
	// The client's own collector stays off while it measures; a round
	// allocates a few tens of MB at most.
	gc := debug.SetGCPercent(-1)
	start := time.Now()
	for k, raw := range raws {
		i := lo + k
		rep, err := c.do(raw)
		if err != nil {
			res.fail(i, "%v", err)
			c.close()
			if c, err = dial(d.addr); err != nil {
				return 0, err
			}
			continue
		}
		res.latencies[i] = float64(rep.elapsed.Nanoseconds()) / 1e6
		if rep.status != 200 || rep.cache != string(w.wantCache) {
			res.fail(i, "status %d X-Cache %q, want 200 %q: %s", rep.status, rep.cache, w.wantCache, rep.body)
			continue
		}
		if sampled(i) {
			bodies[i] = rep.body
		}
	}
	res.wall += time.Since(start)
	debug.SetGCPercent(gc)
	cpu1, err := d.cpuTicks()
	if err != nil {
		return 0, err
	}
	after, err := d.stats()
	if err != nil {
		return 0, err
	}
	c.close()
	kib, err := d.stop()
	if err != nil {
		return 0, err
	}
	res.cpuTicks += cpu1 - cpu0
	dl := delta(before, after)
	res.delta = res.delta.add(dl)
	res.shed += after.Gate.Shed - before.Gate.Shed
	res.storeRecords, res.storeBytes = after.Store.Records, after.Store.Bytes
	checkDelta(res, dl, w.perRequest.times(int64(hi-lo)), after.Gate.Shed-before.Gate.Shed)
	return kib, nil
}

// writeLatencies records every timed request's kind, class, scenario and
// latency, for reading a run's tail after the fact.
func writeLatencies(path string, w *workload, lat []float64) error {
	var b bytes.Buffer
	b.WriteString("i\tkind\tclass\tfamily\ttasks\tseed\tms\n")
	for i, req := range w.timed {
		fmt.Fprintf(&b, "%d\t%s\t%s\t%s\t%d\t%d\t%.4f\n", i, req.kind, w.classes[req.class],
			req.scenario.Family, req.scenario.Tasks, *req.scenario.Seed, lat[i])
	}
	return os.WriteFile(path, b.Bytes(), 0o644)
}

// prepare runs the untimed preparation boot that fills the store.
func prepare(w *workload, o options, args []string, logPath string) error {
	d, err := startDaemon(o.serve, args, "", logPath)
	if err != nil {
		return err
	}
	defer d.kill()
	if err := d.waitReady(30 * time.Second); err != nil {
		return err
	}
	c, err := dial(d.addr)
	if err != nil {
		return err
	}
	defer c.close()
	if err := sendAll(c, d.addr, w.prepare, hanccr.CacheMiss); err != nil {
		return err
	}
	c.close()
	_, err = d.stop()
	return err
}

// boot starts one timed daemon and runs its set-up: ready on /healthz,
// then the workload's priming requests.
func boot(w *workload, o options, args []string, logPath string) (*daemon, *conn, error) {
	d, err := startDaemon(o.serve, args, w.gomaxprocs, logPath)
	if err != nil {
		return nil, nil, err
	}
	if err := d.waitReady(30 * time.Second); err != nil {
		d.kill()
		return nil, nil, err
	}
	c, err := dial(d.addr)
	if err != nil {
		d.kill()
		return nil, nil, err
	}
	if err := sendAll(c, d.addr, w.prime, w.primeCache); err != nil {
		c.close()
		d.kill()
		return nil, nil, err
	}
	return d, c, nil
}

// checkDelta requires one round's counters to have moved exactly as its
// request list predicts, with nothing shed; each counter off counts as
// a failed operation.
func checkDelta(res *e2eResult, got, want statsDelta, shed uint64) {
	for _, f := range []struct {
		name      string
		got, want int64
	}{
		{"hits", got.Hits, want.Hits},
		{"misses", got.Misses, want.Misses},
		{"structure_hits", got.StructureHits, want.StructureHits},
		{"store_hits", got.StoreHits, want.StoreHits},
		{"store_records", got.StoreRecords, want.StoreRecords},
	} {
		if f.got != f.want {
			res.failed++
			res.problems = append(res.problems, fmt.Sprintf("/v1/stats %s moved by %d, want %d", f.name, f.got, f.want))
		}
	}
	if shed != 0 {
		res.failed++
		res.problems = append(res.problems, fmt.Sprintf("/v1/stats gate shed %d requests", shed))
	}
}

// checkReferences byte-compares every sampled response with the answer
// an in-process serial reference gives: NewPlan plus Plan.Estimate or
// Plan.Simulate with the request's options.
func checkReferences(w *workload, res *e2eResult, bodies map[int][]byte) error {
	idx := make([]int, 0, len(bodies))
	for i := range bodies {
		idx = append(idx, i)
	}
	sort.Ints(idx)
	plans := make(map[string]*hanccr.Plan)
	for _, i := range idx {
		want, err := reference(context.Background(), w.timed[i], plans)
		if err != nil {
			return fmt.Errorf("reference for request %d: %w", i, err)
		}
		if !bytes.Equal(bodies[i], want) {
			res.fail(i, "response %s differs from the serial reference %s", bytes.TrimSpace(bodies[i]), bytes.TrimSpace(want))
		}
	}
	return nil
}

// reference computes the response bytes the daemon must send for req,
// from a cold NewPlan (shared between requests of one scenario).
func reference(ctx context.Context, req request, plans map[string]*hanccr.Plan) ([]byte, error) {
	sc := req.scenario.Scenario()
	if err := sc.Validate(); err != nil {
		return nil, err
	}
	key := sc.Key()
	p := plans[key]
	if p == nil {
		var err error
		if p, err = hanccr.NewPlan(ctx, sc); err != nil {
			return nil, err
		}
		plans[key] = p
	}
	v, err := answer(ctx, req, key, p)
	if err != nil {
		return nil, err
	}
	return encode(v)
}

// answer is the public response value the daemon builds for req from
// plan p: the plan summary, an estimate or a simulation summary.
func answer(ctx context.Context, req request, key string, p *hanccr.Plan) (any, error) {
	switch req.kind {
	case kindPlan:
		return hanccr.PlanResponse{
			Key: key, Strategy: string(p.Strategy()),
			Workflow: p.Workflow().Name, Tasks: p.Workflow().Tasks,
			ExpectedMakespan: p.ExpectedMakespan(), FailureFreeMakespan: p.FailureFreeMakespan(),
			Checkpoints: p.NumCheckpoints(), Superchains: p.NumSuperchains(), Segments: p.NumSegments(),
		}, nil
	case kindSimulate:
		r, err := p.Simulate(ctx, hanccr.WithSimTrials(hotSimTrials), hanccr.WithSimWorkers(1))
		if err != nil {
			return nil, err
		}
		return hanccr.SimulateResponse{Key: key, Trials: r.Trials, Mean: r.Mean, StdDev: r.StdDev, CI95: r.CI95, MeanFailures: r.MeanFailures}, nil
	}
	var opts []hanccr.EstimateOption
	if req.kind == kindMonteCarlo {
		opts = []hanccr.EstimateOption{hanccr.WithMCTrials(hotMCTrials), hanccr.WithEstimateWorkers(1)}
	}
	em, err := p.Estimate(ctx, hanccr.Method(req.kind), opts...)
	if err != nil {
		return nil, err
	}
	return hanccr.EstimateResponse{Key: key, Method: string(req.kind), ExpectedMakespan: em}, nil
}

// encode renders v exactly as the daemon's JSON encoder does: HTML-safe
// escaping and a trailing newline.
func encode(v any) ([]byte, error) {
	b, err := json.Marshal(v)
	if err != nil {
		return nil, err
	}
	return append(b, '\n'), nil
}
