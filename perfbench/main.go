// Command perfbench is the repository's benchmark: it boots cmd/serve
// as a child process per workload, drives it from one closed-loop
// connection with a request list generated from the seed, checks every
// answer, and prints the end-to-end metrics; with --trace 1 it also
// replays the same lists in-process through the layers' public
// functions and prints the per-layer metrics. See README.md.
//
//	perfbench -serve <serve binary> -work <dir> --workload hot-estimate --seed 1 --seconds 10 --trace 0
//	perfbench -serve <serve binary> -work <dir> --workload near-dup --seed 1 --seconds 10 --steady 5
//
// The last line of standard output is one JSON object:
// {"correct", "attempted", "failed", "metrics": {name: {"value", "unit"}}}.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"sort"
)

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

func main() {
	var (
		o      options
		name   string
		trace  int
		steady int
	)
	flag.StringVar(&o.serve, "serve", "", "cmd/serve binary to benchmark")
	flag.StringVar(&o.work, "work", filepath.Join(".bench_build", "perfbench"), "directory for stores, daemon logs and span files")
	flag.StringVar(&name, "workload", "", fmt.Sprintf("workload to run: one of %v", workloadNames()))
	//hanccr:allow flagdrift --seed seeds the benchmark's request lists, not a scenario; the benchmark contract fixes its name
	flag.Int64Var(&o.seed, "seed", 1, "seed the request lists are generated from")
	flag.IntVar(&o.seconds, "seconds", 10, "sizes the fixed request count: the calibrated rate times this many seconds")
	flag.IntVar(&trace, "trace", 0, "1 adds the in-process layer replay and prints the per-layer metrics instead")
	flag.IntVar(&steady, "steady", 0, "run the workload this many times with seeds seed, seed+1, ... and report each end-to-end metric's median and quartile spread")
	flag.Parse()
	if err := mainErr(name, o, trace, steady); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
}

func mainErr(name string, o options, trace, steady int) error {
	if o.serve == "" {
		return fmt.Errorf("-serve is required")
	}
	if o.seconds < 1 || trace < 0 || trace > 1 || steady < 0 || steady == 1 {
		return fmt.Errorf("bad flags: --seconds %d --trace %d --steady %d", o.seconds, trace, steady)
	}
	if err := os.MkdirAll(o.work, 0o755); err != nil {
		return err
	}
	if steady > 0 {
		return steadiness(name, o, steady)
	}
	res, err := run(name, o, trace == 1)
	if err != nil {
		return err
	}
	return printResult(res)
}

func printResult(res *result) error {
	names := make([]string, 0, len(res.Metrics))
	for n := range res.Metrics {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		fmt.Printf("%-34s %14.6g %s\n", n, res.Metrics[n].Value, res.Metrics[n].Unit)
	}
	b, err := json.Marshal(res)
	if err != nil {
		return err
	}
	fmt.Println(string(b))
	return nil
}

// run makes one benchmark run of the named workload.
func run(name string, o options, traced bool) (*result, error) {
	w, err := newWorkload(name, o.seed, o.seconds)
	if err != nil {
		return nil, err
	}
	// The generator is one closed loop; one core keeps its runtime from
	// spreading over the cores the daemon runs on.
	procs := runtime.GOMAXPROCS(1)
	e, err := runE2E(w, o, !traced)
	runtime.GOMAXPROCS(procs)
	if err != nil {
		return nil, err
	}
	sum, err := summarizeE2E(w, e)
	if err != nil {
		return nil, err
	}
	for _, p := range e.problems {
		fmt.Println("FAILED:", p)
	}
	res := &result{Correct: e.failed == 0, Attempted: e.attempted, Failed: e.failed}
	scratch := filepath.Join(o.work, fmt.Sprintf("%s-%d", w.name, o.seed))
	if !traced {
		res.Metrics = sum.metrics()
		return res, removeStores(scratch)
	}
	rep, err := runReplay(context.Background(), w, e.storeDir, scratch)
	if err != nil {
		return nil, err
	}
	for _, p := range rep.problems {
		fmt.Println("FAILED (in-process):", p)
	}
	spans := filepath.Join(o.work, fmt.Sprintf("spans-%s-%d.jsonl", w.name, o.seed))
	if err := rep.traced.tr.write(spans); err != nil {
		return nil, err
	}
	fmt.Printf("spans: %d written to %s\n", len(rep.traced.tr.spans), spans)
	res.Failed += rep.failed
	res.Correct = res.Failed == 0
	res.Metrics = layerMetrics(e, sum, rep)
	return res, removeStores(scratch)
}

// removeStores deletes the plan stores a finished run left in its
// directory (the subdirectories; the daemon log and latencies.tsv stay),
// so a series of runs does not fill the disk.
func removeStores(dir string) error {
	entries, err := os.ReadDir(dir)
	if err != nil {
		return err
	}
	for _, e := range entries {
		if e.IsDir() {
			if err := os.RemoveAll(filepath.Join(dir, e.Name())); err != nil {
				return err
			}
		}
	}
	return nil
}

// e2eSummary holds a run's end-to-end figures.
type e2eSummary struct {
	setupS, p50, p99, rps, cpuMs, rssMB float64
}

func (s e2eSummary) metrics() map[string]metric {
	return map[string]metric{
		"setup_s":        {s.setupS, "s"},
		"lat_p50_ms":     {s.p50, "ms"},
		"lat_p99_ms":     {s.p99, "ms"},
		"throughput_rps": {s.rps, "1/s"},
		"cpu_ms_per_req": {s.cpuMs, "ms"},
		"peak_rss_mb":    {s.rssMB, "MB"},
	}
}

// summarizeE2E computes the end-to-end metrics and applies the
// percentile guard: a run fails when a reported percentile lies within
// 10 points of a boundary between the workload's request classes, where
// it would flip between two latency populations from run to run.
func summarizeE2E(w *workload, e *e2eResult) (e2eSummary, error) {
	n := len(e.latencies)
	tail, ok := tailPercentile(n)
	if !ok || tail < 99 {
		return e2eSummary{}, fmt.Errorf("%d timed requests leave fewer than %d samples beyond p99", n, minBeyond)
	}
	sorted := append([]float64(nil), e.latencies...)
	sort.Float64s(sorted)
	completed := n - e.failedRequests()
	s := e2eSummary{
		setupS: median(e.setups),
		p50:    percentile(sorted, 50),
		p99:    percentile(sorted, 99),
		rps:    float64(completed) / e.wall.Seconds(),
		cpuMs:  float64(e.cpuTicks) * 1000 / clockTicks / float64(max(completed, 1)),
		rssMB:  float64(e.maxRSSKiB) / 1024,
	}
	fmt.Printf("%s: n=%d, %d beyond p99 (highest percentile with >=%d beyond: p%g), wall %.3fs, %d boots\n",
		w.name, n, beyond(n, 99), minBeyond, tail, e.wall.Seconds(), len(e.setups))
	return s, classGuard(w, e.latencies, []float64{50, 99})
}

// failedRequests counts the timed requests that failed (their latency
// is +Inf); counter mismatches are failures without a request.
func (e *e2eResult) failedRequests() int {
	k := 0
	for _, l := range e.latencies {
		if math.IsInf(l, 1) {
			k++
		}
	}
	return k
}

// classGuard orders the request classes by median latency and rejects a
// percentile within 10 points of a cumulative class boundary.
func classGuard(w *workload, lat []float64, qs []float64) error {
	byClass := make([][]float64, len(w.classes))
	for i, req := range w.timed {
		byClass[req.class] = append(byClass[req.class], lat[i])
	}
	order := make([]int, len(byClass))
	meds := make([]float64, len(byClass))
	for c := range byClass {
		order[c] = c
		meds[c] = median(byClass[c])
	}
	sort.Slice(order, func(i, j int) bool { return meds[order[i]] < meds[order[j]] })
	cum := 0.0
	for k, c := range order {
		share := 100 * float64(len(byClass[c])) / float64(len(lat))
		fmt.Printf("  class %-10s share %5.1f%%  median %.4f ms\n", w.classes[c], share, meds[c])
		cum += share
		if k == len(order)-1 {
			break
		}
		for _, q := range qs {
			if math.Abs(q-cum) < 10 {
				return fmt.Errorf("p%g lies %.1f points from the class boundary at %.1f%% (after %s)", q, math.Abs(q-cum), cum, w.classes[c])
			}
		}
	}
	return nil
}

// layerMetrics are the traced run's per-layer figures.
func layerMetrics(e *e2eResult, sum e2eSummary, rep *replayResult) map[string]metric {
	m := make(map[string]metric)
	byName := summarize(rep.traced.tr.spans)
	for _, name := range layerSpans {
		st := byName[name]
		m[name+".calls"] = metric{float64(st.calls), "count"}
		m[name+".self_ms"] = metric{st.selfMs, "ms"}
		m[name+".p50_us"] = metric{st.p50Us, "us"}
		m[name+".allocs_per_call"] = metric{st.allocs, "count"}
	}
	d := e.delta
	lookups := float64(d.Hits + d.Misses)
	ratio := func(x int64) float64 {
		if lookups == 0 {
			return 0
		}
		return float64(x) / lookups
	}
	m["service.hits"] = metric{float64(d.Hits), "count"}
	m["service.structure_hits"] = metric{float64(d.StructureHits), "count"}
	m["service.misses"] = metric{float64(d.Misses), "count"}
	m["service.hit_ratio"] = metric{ratio(d.Hits), "ratio"}
	m["service.structure_hit_ratio"] = metric{ratio(d.StructureHits), "ratio"}
	m["store.hits"] = metric{float64(d.StoreHits), "count"}
	m["store.records"] = metric{float64(e.storeRecords), "count"}
	m["store.bytes"] = metric{float64(e.storeBytes), "bytes"}
	m["gate.shed"] = metric{float64(e.shed), "count"}
	m["http.failed"] = metric{float64(e.failed), "count"}
	inproc := append([]float64(nil), rep.untraced.perReq...)
	sort.Float64s(inproc)
	m["http.unaccounted_ms"] = metric{sum.p50 - percentile(inproc, 50), "ms"}
	var plain, traced float64
	for i := range rep.untraced.perReq {
		plain += rep.untraced.perReq[i]
		traced += rep.traced.perReq[i]
	}
	m["trace.overhead_pct"] = metric{100 * (traced/plain - 1), "%"}
	return m
}

// steadiness runs the workload k times on consecutive seeds and prints
// each end-to-end metric's median and quartile distance, the figures the
// benchmark's bounds are set from.
func steadiness(name string, o options, k int) error {
	values := make(map[string][]float64)
	for i := 0; i < k; i++ {
		oi := o
		oi.seed = o.seed + int64(i)
		res, err := run(name, oi, false)
		if err != nil {
			return fmt.Errorf("seed %d: %w", oi.seed, err)
		}
		if !res.Correct {
			return fmt.Errorf("seed %d: %d failed operations", oi.seed, res.Failed)
		}
		for n, v := range res.Metrics {
			values[n] = append(values[n], v.Value)
		}
	}
	names := make([]string, 0, len(values))
	for n := range values {
		names = append(names, n)
	}
	sort.Strings(names)
	fmt.Printf("steadiness of %s over %d seeds from %d:\n", name, k, o.seed)
	for _, n := range names {
		v := values[n]
		q1, q3 := quartiles(v)
		fmt.Printf("  %-16s median %12.6g  q1 %12.6g  q3 %12.6g  spread %6.2f%%  values %v\n",
			n, median(v), q1, q3, 100*spread(v), v)
	}
	return nil
}
