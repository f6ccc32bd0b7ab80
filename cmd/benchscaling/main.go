// Command benchscaling measures the wall-clock parallel scaling of the
// three hot paths — the §VI sweep grid, the discrete-event simulator
// trial fan-out, and Service.Batch — at workers=1 versus
// workers=NumCPU, and writes the measurements as JSON. It is the
// `make bench-scaling` target behind CI's parallel-scaling job: on a
// multicore runner it FAILS (exit 1) when any panel's parallel run is
// slower than its serial run, closing the "re-measure on a multicore
// box" caveat that per-op benchmarks on a 1-core container cannot.
//
//	benchscaling -out scaling.json -reps 3 -min-speedup 1.0
//
// Beside the worker-scaling panels it measures the streamed-vs-buffered
// sweep memory split, the overload gate under saturation, the
// persistent-store warm-boot ratio, and the near-duplicate fast path
// (a batch of parameter variants of one structure versus an equal batch
// of cold structures; on multicore the variant batch must beat the cold
// one or the tool fails). Every measured workload is bit-identical
// across worker counts (that is pinned by the test suite); this tool
// only measures time. On a single-core host the gate is skipped
// (speedups are reported for the record but prove nothing there).
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math"
	"net/http"
	"net/http/httptest"
	"os"
	"runtime"
	"strings"
	"sync"
	"time"

	hanccr "repro"
	"repro/internal/expt"
)

// result is the JSON artifact schema.
type result struct {
	GoVersion   string       `json:"go_version"`
	NumCPU      int          `json:"num_cpu"`
	Reps        int          `json:"reps"`
	Gated       bool         `json:"gated"` // false on single-core hosts
	Panels      []panel      `json:"panels"`
	SweepStream []streamStat `json:"sweep_stream"`
	Saturation  *saturStat   `json:"saturation,omitempty"`
	Store       *storeStat   `json:"store,omitempty"`
	NearDup     *nearDupStat `json:"near_dup,omitempty"`
}

// nearDupStat is the near-duplicate fast-path panel: wall clock for a
// batch of N plans that are parameter variants of ONE structure (the
// scaffold is built once, N-1 requests take the structure-hit path)
// versus a batch of N plans over N distinct structures (every request
// materializes and schedules from scratch). Same batch size, same
// worker count, fresh service per side — the ratio is what the
// two-level key split buys a sweep-shaped workload. Answers are
// bit-identical either way (pinned by the test suite); this panel only
// measures time, but it hard-fails if the structure-hit counters show
// the fast path did not actually engage.
type nearDupStat struct {
	Structures     int     `json:"structures"`
	Variants       int     `json:"variants"`
	ColdSeconds    float64 `json:"cold_seconds"`
	NearDupSeconds float64 `json:"near_dup_seconds"`
	Speedup        float64 `json:"speedup"`
	StructureHits  uint64  `json:"structure_hits"`
}

// storeStat is the persistent-plan-store panel: wall clock from service
// construction to the last of N scenarios answered, for a cold boot
// (every plan computed) versus a store-warm boot (every plan rehydrated
// from the segment files a previous process wrote). The ratio is what
// -store buys a restarting daemon; the byte identity of the two answer
// sets is pinned by the test suite, so this panel only measures time.
type storeStat struct {
	Scenarios        int     `json:"scenarios"`
	ColdSeconds      float64 `json:"cold_seconds"`
	StoreWarmSeconds float64 `json:"store_warm_seconds"`
	Speedup          float64 `json:"speedup"`
	StoreBytes       int64   `json:"store_bytes"`
}

// saturStat is the overload-protection panel: cold plans offered over
// HTTP at several times the admission bound. It records how much
// traffic the gate shed (429s), how fast the rejections came back, and
// the latency distribution of the admitted requests — the "sheds fast,
// admitted work unharmed" contract, measured rather than asserted. The
// quantiles come from a fixed-bucket histogram (latencyHist), so the
// panel needs no per-request sample storage and no sorting.
type saturStat struct {
	MaxInFlight   int     `json:"max_inflight"`
	Concurrency   int     `json:"concurrency"`
	Offered       int     `json:"offered"`
	Admitted      int     `json:"admitted"`
	Shed          int     `json:"shed"`
	ShedRate      float64 `json:"shed_rate"`
	AdmittedP50Ms float64 `json:"admitted_p50_ms"`
	AdmittedP99Ms float64 `json:"admitted_p99_ms"`
	ShedP99Ms     float64 `json:"shed_p99_ms"`
}

type panel struct {
	Name            string  `json:"name"`
	Workers         int     `json:"workers"`
	SerialSeconds   float64 `json:"serial_seconds"`
	ParallelSeconds float64 `json:"parallel_seconds"`
	Speedup         float64 `json:"speedup"`
}

// streamStat compares the streamed sweep path against the buffered one
// at a fixed worker count: same grid, same rows, but the streamed side
// discards each row at emission while the buffered side materializes
// the full result — the memory story the peak-heap columns record.
type streamStat struct {
	Workers          int     `json:"workers"`
	BufferedSeconds  float64 `json:"buffered_seconds"`
	StreamedSeconds  float64 `json:"streamed_seconds"`
	BufferedPeakHeap uint64  `json:"buffered_peak_heap_bytes"`
	StreamedPeakHeap uint64  `json:"streamed_peak_heap_bytes"`
}

func main() {
	out := flag.String("out", "scaling.json", "write the JSON artifact here")
	reps := flag.Int("reps", 3, "measurement repetitions (best run counts)")
	minSpeedup := flag.Float64("min-speedup", 1.0, "fail when a panel's parallel speedup drops below this (multicore hosts only)")
	flag.Parse()

	ctx := context.Background()
	ncpu := runtime.NumCPU()

	panels := []struct {
		name string
		run  func(ctx context.Context, workers int) error
	}{
		{"sweep", runSweepPanel},
		{"sweep-stream", runStreamPanel},
		{"sim", simPanel(ctx)},
		{"batch", runBatchPanel},
	}

	res := result{
		GoVersion: runtime.Version(),
		NumCPU:    ncpu,
		Reps:      *reps,
		Gated:     ncpu > 1,
	}
	failed := false
	for _, p := range panels {
		// One untimed warm-up run per panel. It only warms the runtime:
		// no generated workflow outlives the sweep or batch that made
		// it, so serial and parallel runs each do the same generation.
		if err := p.run(ctx, ncpu); err != nil {
			fatal(fmt.Errorf("%s warm-up: %w", p.name, err))
		}
		serial, err := best(ctx, *reps, 1, p.run)
		if err != nil {
			fatal(fmt.Errorf("%s serial: %w", p.name, err))
		}
		parallel, err := best(ctx, *reps, ncpu, p.run)
		if err != nil {
			fatal(fmt.Errorf("%s parallel: %w", p.name, err))
		}
		speedup := serial.Seconds() / parallel.Seconds()
		res.Panels = append(res.Panels, panel{
			Name: p.name, Workers: ncpu,
			SerialSeconds:   serial.Seconds(),
			ParallelSeconds: parallel.Seconds(),
			Speedup:         speedup,
		})
		verdict := "ok"
		if res.Gated && speedup < *minSpeedup {
			verdict = fmt.Sprintf("FAIL (< %.2f)", *minSpeedup)
			failed = true
		}
		fmt.Printf("%-6s workers=%d serial=%8.3fs parallel=%8.3fs speedup=%5.2fx  %s\n",
			p.name, ncpu, serial.Seconds(), parallel.Seconds(), speedup, verdict)
	}

	// Streamed-vs-buffered comparison: wall clock and peak heap of the
	// same grid collected whole (RunSweep) versus emitted row-by-row and
	// discarded (StreamSweep), at workers=1 and workers=NumCPU. Not
	// speedup-gated — the two paths do identical cell work; the columns
	// exist so the artifact records what streaming buys in memory.
	for _, workers := range dedupInts([]int{1, ncpu}) {
		st := streamStat{Workers: workers}
		d, peak, err := peakHeap(func() error { return runSweepPanel(ctx, workers) })
		if err != nil {
			fatal(fmt.Errorf("buffered sweep (workers=%d): %w", workers, err))
		}
		st.BufferedSeconds, st.BufferedPeakHeap = d.Seconds(), peak
		d, peak, err = peakHeap(func() error { return runStreamPanel(ctx, workers) })
		if err != nil {
			fatal(fmt.Errorf("streamed sweep (workers=%d): %w", workers, err))
		}
		st.StreamedSeconds, st.StreamedPeakHeap = d.Seconds(), peak
		res.SweepStream = append(res.SweepStream, st)
		fmt.Printf("stream workers=%d buffered=%8.3fs/%6.1fMB streamed=%8.3fs/%6.1fMB\n",
			workers, st.BufferedSeconds, float64(st.BufferedPeakHeap)/1e6,
			st.StreamedSeconds, float64(st.StreamedPeakHeap)/1e6)
	}

	// Saturation panel: not speedup-gated (it measures the admission
	// gate, not parallel scaling), but any response outside the overload
	// contract fails the run.
	sat, err := runSaturationPanel(ctx)
	if err != nil {
		fatal(fmt.Errorf("saturation: %w", err))
	}
	res.Saturation = &sat
	fmt.Printf("satur  bound=%d conc=%d offered=%d shed=%d (%.0f%%, p99=%.1fms) admitted p50=%.1fms p99=%.1fms\n",
		sat.MaxInFlight, sat.Concurrency, sat.Offered, sat.Shed, 100*sat.ShedRate,
		sat.ShedP99Ms, sat.AdmittedP50Ms, sat.AdmittedP99Ms)

	// Store panel: cold boot vs store-warm boot over the same scenario
	// set. Not speedup-gated — disk and planner speed vary too much
	// across runners for a fixed ratio floor — but a failed round trip
	// (any record that cannot rehydrate) fails the tool.
	store, err := runStorePanel(ctx, ncpu)
	if err != nil {
		fatal(fmt.Errorf("store: %w", err))
	}
	res.Store = &store
	fmt.Printf("store  n=%d cold=%8.3fs warm=%8.3fs speedup=%5.2fx (%d bytes on disk)\n",
		store.Scenarios, store.ColdSeconds, store.StoreWarmSeconds, store.Speedup, store.StoreBytes)

	// Near-duplicate panel: speedup-gated on multicore like the scaling
	// panels — if a batch of parameter variants is not faster than the
	// same-sized batch of cold structures, the scaffold cache has
	// regressed into overhead.
	nearDup, err := runNearDupPanel(ctx, ncpu, *reps)
	if err != nil {
		fatal(fmt.Errorf("near-dup: %w", err))
	}
	res.NearDup = &nearDup
	verdict := "ok"
	if res.Gated && nearDup.Speedup < *minSpeedup {
		verdict = fmt.Sprintf("FAIL (< %.2f)", *minSpeedup)
		failed = true
	}
	fmt.Printf("neardup n=%dx%d cold=%8.3fs neardup=%8.3fs speedup=%5.2fx (%d structure hits)  %s\n",
		nearDup.Structures, nearDup.Variants, nearDup.ColdSeconds, nearDup.NearDupSeconds,
		nearDup.Speedup, nearDup.StructureHits, verdict)

	blob, err := json.MarshalIndent(res, "", "  ")
	if err != nil {
		fatal(err)
	}
	blob = append(blob, '\n')
	if err := os.WriteFile(*out, blob, 0o644); err != nil {
		fatal(err)
	}
	fmt.Printf("wrote %s (num_cpu=%d, gated=%v)\n", *out, ncpu, res.Gated)
	if failed {
		fmt.Fprintln(os.Stderr, "benchscaling: parallel wall-clock regressed below the serial baseline")
		os.Exit(1)
	}
	if !res.Gated {
		fmt.Println("benchscaling: single-core host, speedup gate skipped")
	}
}

// best runs fn reps times at the given worker count and returns the
// fastest wall-clock time — the standard way to strip scheduler noise
// from a throughput measurement.
func best(ctx context.Context, reps, workers int, fn func(context.Context, int) error) (time.Duration, error) {
	bestD := time.Duration(0)
	for r := 0; r < reps; r++ {
		start := time.Now()
		if err := fn(ctx, workers); err != nil {
			return 0, err
		}
		if d := time.Since(start); bestD == 0 || d < bestD {
			bestD = d
		}
	}
	return bestD, nil
}

// sweepPanelConfig is the shared grid of the buffered and streamed
// sweep panels: the MONTAGE figure ranges at two sizes, sized to run a
// few seconds serially on a CI runner.
func sweepPanelConfig(workers int) expt.SweepConfig {
	return expt.SweepConfig{
		Family:          "montage",
		Sizes:           []int{50, 300},
		PFails:          []float64{1e-4, 1e-3},
		CCRMin:          1e-3,
		CCRMax:          1,
		PointsPerDecade: 10,
		Seed:            42,
		Workers:         workers,
	}
}

func runSweepPanel(ctx context.Context, workers int) error {
	_, err := expt.RunSweep(ctx, sweepPanelConfig(workers))
	return err
}

// runStreamPanel drives the same grid through the ordered streaming
// path, discarding each row at emission the way an NDJSON response
// hands it to the socket.
func runStreamPanel(ctx context.Context, workers int) error {
	return expt.StreamSweep(ctx, sweepPanelConfig(workers), func(expt.Row) error { return nil })
}

// peakHeap runs fn while a sampler polls runtime.MemStats, returning
// fn's wall clock and the peak HeapAlloc observed — a portable
// stand-in for peak RSS that needs no /proc support. A GC first puts
// both measured paths on the same baseline.
func peakHeap(fn func() error) (time.Duration, uint64, error) {
	runtime.GC()
	stop := make(chan struct{})
	peakc := make(chan uint64)
	go func() {
		var peak uint64
		var ms runtime.MemStats
		tick := time.NewTicker(2 * time.Millisecond)
		defer tick.Stop()
		for {
			runtime.ReadMemStats(&ms)
			if ms.HeapAlloc > peak {
				peak = ms.HeapAlloc
			}
			select {
			case <-stop:
				peakc <- peak
				return
			case <-tick.C:
			}
		}
	}()
	start := time.Now()
	err := fn()
	d := time.Since(start)
	close(stop)
	return d, <-peakc, err
}

func dedupInts(in []int) []int {
	var out []int
	for _, v := range in {
		seen := false
		for _, o := range out {
			seen = seen || o == v
		}
		if !seen {
			out = append(out, v)
		}
	}
	return out
}

// simPanel plans one paper-sized scenario once and returns a runner
// that fans simulator trials over the worker pool — the PR 2 hot path,
// re-measured for wall clock.
func simPanel(ctx context.Context) func(context.Context, int) error {
	sc := hanccr.NewScenario(
		hanccr.WithFamily("genome"), hanccr.WithTasks(300), hanccr.WithProcs(35),
		hanccr.WithPFail(0.001), hanccr.WithCCR(0.01),
	)
	plan, err := hanccr.NewPlan(ctx, sc)
	if err != nil {
		fatal(err)
	}
	return func(ctx context.Context, workers int) error {
		_, err := plan.Simulate(ctx, hanccr.WithSimTrials(400000), hanccr.WithSimWorkers(workers))
		return err
	}
}

// runBatchPanel cold-plans a set of distinct scenarios through a fresh
// sharded Service.Batch — the service-layer fan-out (generation,
// scheduling and checkpoint placement per job: nothing outlives a
// Service, so every repetition generates its workflows again).
func runBatchPanel(ctx context.Context, workers int) error {
	families := []string{"genome", "montage", "ligo", "cybershake"}
	var jobs []hanccr.Job
	for i := 0; i < 32; i++ {
		jobs = append(jobs, hanccr.Job{
			Kind: hanccr.JobPlan,
			Scenario: hanccr.NewScenario(
				hanccr.WithFamily(families[i%len(families)]),
				hanccr.WithTasks(1000), hanccr.WithProcs(70),
				hanccr.WithSeed(int64(1+i/len(families))),
				hanccr.WithCCR(0.01),
			),
		})
	}
	svc := hanccr.NewService(hanccr.WithShards(16))
	results, err := svc.Batch(ctx, jobs, hanccr.WithBatchWorkers(workers))
	if err != nil {
		return err
	}
	for i, r := range results {
		if r.Err != nil {
			return fmt.Errorf("job %d: %w", i, r.Err)
		}
	}
	return nil
}

// latencyHist is a fixed-bucket latency histogram: linear buckets of a
// constant width with the last bucket absorbing overflow. Quantiles
// read the bucket's upper edge, so they are conservative by at most one
// bucket width — plenty for a milliseconds-scale panel, with O(1)
// memory regardless of request count.
type latencyHist struct {
	width   time.Duration
	buckets []uint64
	count   uint64
}

func newLatencyHist(width time.Duration, n int) *latencyHist {
	return &latencyHist{width: width, buckets: make([]uint64, n)}
}

func (h *latencyHist) record(d time.Duration) {
	i := int(d / h.width)
	if i >= len(h.buckets) {
		i = len(h.buckets) - 1
	}
	h.buckets[i]++
	h.count++
}

// quantileMs returns the q-quantile (0 < q <= 1) in milliseconds.
func (h *latencyHist) quantileMs(q float64) float64 {
	if h.count == 0 {
		return 0
	}
	target := uint64(math.Ceil(q * float64(h.count)))
	if target < 1 {
		target = 1
	}
	var cum uint64
	for i, b := range h.buckets {
		cum += b
		if cum >= target {
			return float64(i+1) * float64(h.width) / float64(time.Millisecond)
		}
	}
	return float64(len(h.buckets)) * float64(h.width) / float64(time.Millisecond)
}

// runSaturationPanel offers all-cold plan traffic (distinct seeds, so
// every request really computes) over HTTP at 4x the admission bound
// and measures the shed rate plus the latency split between rejected
// and admitted requests. The bound is fixed rather than CPU-derived so
// the shed rate is comparable across runners, and the planner carries
// a small scripted stall: a pure CPU-bound plan on a single-core host
// can finish inside one scheduler quantum, serializing the requests
// and hiding the gate entirely, while a sleep yields the processor so
// admitted requests genuinely overlap everywhere. Any status other
// than 200 or 429 is a contract violation and fails the tool.
func runSaturationPanel(ctx context.Context) (saturStat, error) {
	const (
		bound       = 2
		concurrency = 4 * bound
		perWorker   = 40
		stall       = 2 * time.Millisecond
	)
	svc := hanccr.NewService(
		hanccr.WithMaxInFlight(bound), hanccr.WithShards(4),
		hanccr.WithPlanner(func(ctx context.Context, sc hanccr.Scenario) (*hanccr.Plan, error) {
			select {
			case <-ctx.Done():
				return nil, ctx.Err()
			case <-time.After(stall):
			}
			return hanccr.NewPlan(ctx, sc)
		}),
	)
	srv := httptest.NewServer(hanccr.NewHandler(svc))
	defer srv.Close()

	admitted := newLatencyHist(200*time.Microsecond, 5000) // 1s range
	shed := newLatencyHist(200*time.Microsecond, 5000)
	var mu sync.Mutex
	var firstErr error
	var wg sync.WaitGroup
	for g := 0; g < concurrency; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for it := 0; it < perWorker; it++ {
				body := fmt.Sprintf(`{"family":"genome","tasks":100,"procs":8,"seed":%d}`, 1000*g+it)
				start := time.Now()
				resp, err := srv.Client().Post(srv.URL+"/v1/plan", "application/json", strings.NewReader(body))
				if err != nil {
					mu.Lock()
					if firstErr == nil {
						firstErr = err
					}
					mu.Unlock()
					return
				}
				_, _ = io.Copy(io.Discard, resp.Body) //hanccr:allow discarderr best-effort drain so the connection is reusable; the benchmark only times the request
				resp.Body.Close()
				d := time.Since(start)
				mu.Lock()
				switch resp.StatusCode {
				case http.StatusOK:
					admitted.record(d)
				case http.StatusTooManyRequests:
					shed.record(d)
				default:
					if firstErr == nil {
						firstErr = fmt.Errorf("plan under saturation: status %d, want 200 or 429", resp.StatusCode)
					}
				}
				mu.Unlock()
			}
		}(g)
	}
	wg.Wait()
	if firstErr != nil {
		return saturStat{}, firstErr
	}
	offered := int(admitted.count + shed.count)
	st := saturStat{
		MaxInFlight: bound, Concurrency: concurrency, Offered: offered,
		Admitted: int(admitted.count), Shed: int(shed.count),
		AdmittedP50Ms: admitted.quantileMs(0.50),
		AdmittedP99Ms: admitted.quantileMs(0.99),
		ShedP99Ms:     shed.quantileMs(0.99),
	}
	if offered > 0 {
		st.ShedRate = float64(st.Shed) / float64(offered)
	}
	return st, nil
}

// runStorePanel measures what the persistent plan store saves a
// restarting daemon: time-to-all-answers for N distinct scenarios on a
// cold boot (plan everything, write through to a fresh store) versus a
// store-warm boot over the same directory (LoadStore, then the same N
// requests as cache hits). The warm side counts the rehydration — the
// boot-order work cmd/serve does before listening — not just the hits.
func runStorePanel(ctx context.Context, workers int) (storeStat, error) {
	const n = 24
	families := []string{"genome", "montage", "ligo", "cybershake"}
	scenarios := make([]hanccr.Scenario, n)
	for i := range scenarios {
		scenarios[i] = hanccr.NewScenario(
			hanccr.WithFamily(families[i%len(families)]),
			hanccr.WithTasks(300), hanccr.WithProcs(35),
			hanccr.WithSeed(int64(1+i/len(families))),
		)
	}
	dir, err := os.MkdirTemp("", "hanccr-store-panel-")
	if err != nil {
		return storeStat{}, err
	}
	defer os.RemoveAll(dir)

	// Untimed warm-up of the runtime. Both boots generate: the cold one
	// per plan, the store-warm one once per structure inside LoadStore.
	for _, sc := range scenarios {
		if _, err := hanccr.NewPlan(ctx, sc); err != nil {
			return storeStat{}, err
		}
	}

	serveAll := func(svc *hanccr.Service) error {
		for _, sc := range scenarios {
			if _, err := svc.Plan(ctx, sc); err != nil {
				return err
			}
		}
		return nil
	}

	cold := hanccr.NewService(hanccr.WithStore(dir))
	if err := cold.StoreErr(); err != nil {
		return storeStat{}, err
	}
	start := time.Now()
	if err := serveAll(cold); err != nil {
		return storeStat{}, err
	}
	coldD := time.Since(start)
	bytesOnDisk := cold.Stats().StoreBytes
	if err := cold.CloseStore(); err != nil {
		return storeStat{}, err
	}

	warm := hanccr.NewService(hanccr.WithStore(dir))
	if err := warm.StoreErr(); err != nil {
		return storeStat{}, err
	}
	defer warm.CloseStore()
	start = time.Now()
	loaded, dropped, err := warm.LoadStore(ctx, workers)
	if err != nil {
		return storeStat{}, err
	}
	if loaded != n || dropped != 0 {
		return storeStat{}, fmt.Errorf("store-warm boot rehydrated (%d, %d dropped), want (%d, 0)", loaded, dropped, n)
	}
	if err := serveAll(warm); err != nil {
		return storeStat{}, err
	}
	warmD := time.Since(start)
	if st := warm.Stats(); st.Misses != 0 {
		return storeStat{}, fmt.Errorf("store-warm boot re-ran the planner %d times, want 0", st.Misses)
	}
	return storeStat{
		Scenarios:        n,
		ColdSeconds:      coldD.Seconds(),
		StoreWarmSeconds: warmD.Seconds(),
		Speedup:          coldD.Seconds() / warmD.Seconds(),
		StoreBytes:       bytesOnDisk,
	}, nil
}

// runNearDupPanel times a 32-plan batch of parameter variants of one
// structure (one seed, a grid of pfail/ccr/strategy tails) against a
// 32-plan batch of distinct structures (32 seeds, one parameter point
// each), best-of-reps, fresh service per run, after one untimed
// warm-up of each side. The cold side generates, schedules and runs
// the planning tail for every job; the near-dup side does all three
// once and then only the tail — the exact work the scaffold cache is
// supposed to split.
func runNearDupPanel(ctx context.Context, workers, reps int) (nearDupStat, error) {
	const n = 32
	strategies := []hanccr.Strategy{hanccr.CkptSome, hanccr.CkptAll, hanccr.CkptNone}
	cold := make([]hanccr.Job, n)
	near := make([]hanccr.Job, n)
	for i := 0; i < n; i++ {
		cold[i] = hanccr.Job{Kind: hanccr.JobPlan, Scenario: hanccr.NewScenario(
			hanccr.WithFamily("genome"), hanccr.WithTasks(300), hanccr.WithProcs(35),
			hanccr.WithSeed(int64(1+i)),
		)}
		near[i] = hanccr.Job{Kind: hanccr.JobPlan, Scenario: hanccr.NewScenario(
			hanccr.WithFamily("genome"), hanccr.WithTasks(300), hanccr.WithProcs(35),
			hanccr.WithSeed(1),
			hanccr.WithPFail(0.0001*float64(1+i%8)), hanccr.WithCCR(0.01*float64(1+i/8)),
			hanccr.WithStrategy(strategies[i%len(strategies)]),
		)}
	}
	runSide := func(jobs []hanccr.Job) (*hanccr.Service, error) {
		svc := hanccr.NewService(hanccr.WithShards(16))
		results, err := svc.Batch(ctx, jobs, hanccr.WithBatchWorkers(workers))
		if err != nil {
			return nil, err
		}
		for i, r := range results {
			if r.Err != nil {
				return nil, fmt.Errorf("job %d: %w", i, r.Err)
			}
		}
		return svc, nil
	}
	// Untimed warm-up (also sanity-checks both sides complete).
	for _, jobs := range [][]hanccr.Job{cold, near} {
		if _, err := runSide(jobs); err != nil {
			return nearDupStat{}, err
		}
	}
	st := nearDupStat{Structures: n, Variants: n}
	for r := 0; r < reps; r++ {
		start := time.Now()
		svc, err := runSide(cold)
		if err != nil {
			return nearDupStat{}, err
		}
		if d := time.Since(start).Seconds(); st.ColdSeconds == 0 || d < st.ColdSeconds {
			st.ColdSeconds = d
		}
		if hits := svc.Stats().StructureHits; hits != 0 {
			return nearDupStat{}, fmt.Errorf("cold side recorded %d structure hits over distinct structures, want 0", hits)
		}
		start = time.Now()
		svc, err = runSide(near)
		if err != nil {
			return nearDupStat{}, err
		}
		if d := time.Since(start).Seconds(); st.NearDupSeconds == 0 || d < st.NearDupSeconds {
			st.NearDupSeconds = d
		}
		// Every key is unique, so exactly one request per structure built
		// the scaffold; the other n-1 must have taken the fast path —
		// whatever the worker interleaving.
		stats := svc.Stats()
		if stats.StructureHits != n-1 || stats.Misses != n {
			return nearDupStat{}, fmt.Errorf("near-dup side: %d structure hits / %d misses, want %d / %d",
				stats.StructureHits, stats.Misses, n-1, n)
		}
		st.StructureHits = stats.StructureHits
	}
	st.Speedup = st.ColdSeconds / st.NearDupSeconds
	return st, nil
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "benchscaling:", err)
	os.Exit(1)
}
