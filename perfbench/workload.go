package main

import (
	"encoding/json"
	"fmt"
	"math"
	"math/rand"

	hanccr "repro"
)

// kind is the endpoint (and, for estimates, the method) of one request.
type kind string

const (
	kindPlan       kind = "plan"
	kindPathApprox kind = "PathApprox"
	kindNormal     kind = "Normal"
	kindDodin      kind = "Dodin"
	kindMonteCarlo kind = "MonteCarlo"
	kindSimulate   kind = "simulate"
)

// Trial counts of the hot-estimate heavy slots. One worker each keeps a
// heavy request on the core it arrived on, so the daemon pinned to one
// core is not oversubscribed by its own fan-out.
const (
	hotMCTrials  = 1000
	hotSimTrials = 200
)

// request is one call of a workload's request list.
type request struct {
	kind     kind
	scenario hanccr.ScenarioRequest
	// class indexes workload.classes: the request class whose share of
	// the list is fixed by construction.
	class int
}

func (r request) path() string {
	switch r.kind {
	case kindPlan:
		return "/v1/plan"
	case kindSimulate:
		return "/v1/simulate"
	}
	return "/v1/estimate"
}

// body is the request's JSON body, in the daemon's wire schema.
func (r request) body() []byte {
	var v any
	switch r.kind {
	case kindPlan:
		v = r.scenario
	case kindSimulate:
		v = hanccr.SimulateRequest{ScenarioRequest: r.scenario, Trials: hotSimTrials, Workers: 1}
	case kindMonteCarlo:
		v = hanccr.EstimateRequest{ScenarioRequest: r.scenario, Method: string(r.kind), MCTrials: hotMCTrials, Workers: 1}
	default:
		v = hanccr.EstimateRequest{ScenarioRequest: r.scenario, Method: string(r.kind)}
	}
	b, err := json.Marshal(v)
	if err != nil {
		// Every field is a plain number or string; Marshal cannot fail.
		panic(err)
	}
	return b
}

// statsDelta is the change of the daemon's /v1/stats counters a request
// list must cause, exactly.
type statsDelta struct {
	Hits, Misses, StructureHits, StoreHits, StoreRecords int64
}

func (d statsDelta) add(o statsDelta) statsDelta {
	return statsDelta{d.Hits + o.Hits, d.Misses + o.Misses, d.StructureHits + o.StructureHits, d.StoreHits + o.StoreHits, d.StoreRecords + o.StoreRecords}
}

func (d statsDelta) times(n int64) statsDelta {
	return statsDelta{d.Hits * n, d.Misses * n, d.StructureHits * n, d.StoreHits * n, d.StoreRecords * n}
}

// workload is one traffic mix: how the daemon runs, what set-up sends,
// and the timed request list, all generated from the seed.
type workload struct {
	name string
	// gomaxprocs is the daemon's GOMAXPROCS ("" = the runtime default).
	gomaxprocs string
	// store runs the daemon with -store; freshStore empties it before
	// every timed boot.
	store, freshStore bool
	// prepare is sent to an untimed preparation boot over the store.
	prepare []request
	// prime is sent by every timed boot after /healthz answers; it is
	// part of setup_s. primeCache is the X-Cache it must get.
	prime      []request
	primeCache hanccr.CacheOutcome
	// timed is the measured closed-loop list, served in equal slices by
	// rounds daemon lifetimes. Every answer must carry wantCache, and
	// the daemon's counters must move by perRequest for each request.
	timed      []request
	rounds     int
	wantCache  hanccr.CacheOutcome
	perRequest statsDelta
	// classes name the request classes; the latency-percentile guard
	// keeps every reported percentile away from their boundaries.
	classes []string
}

var families = []string{"genome", "montage", "ligo", "cybershake"}

// Calibrated closed-loop request rates (requests per second of
// --seconds) on a 2-core x86-64 box. Counts are fixed per (workload,
// --seconds), never cut by a clock, so two runs of one seed do the same
// work.
var rates = map[string]int{
	"hot-estimate": 550,
	"cold-plan":    175,
	"near-dup":     400,
}

// minTimed keeps at least ten samples beyond p99.
const minTimed = 1200

// roundSeconds is the calibrated length of one daemon lifetime in the
// timed phase. Several lifetimes per run average out per-process
// effects (heap layout, collector phase), and a bounded lifetime bounds
// cold-plan's resident set: the daemon's generator memo never evicts,
// so it grows by about a third of a MB per new structure.
const roundSeconds = 10

// workloadNames lists the workloads in a stable order.
func workloadNames() []string { return []string{"hot-estimate", "cold-plan", "near-dup"} }

// timedCount is the fixed request count of a run and how many daemon
// lifetimes serve it: the calibrated rate times seconds, split into
// rounds of about roundSeconds, each a whole number of class cycles.
func timedCount(name string, seconds int) (n, rounds int) {
	rounds = (seconds + roundSeconds - 1) / roundSeconds
	per := rates[name] * seconds / rounds
	if per*rounds < minTimed {
		per = (minTimed + rounds - 1) / rounds
	}
	cycle := map[string]int{"hot-estimate": 8 * 64, "cold-plan": 3 * len(families), "near-dup": 3}[name]
	per = (per + cycle - 1) / cycle * cycle
	return per * rounds, rounds
}

// newWorkload builds the named workload's inputs for seed.
func newWorkload(name string, seed int64, seconds int) (*workload, error) {
	rng := rand.New(rand.NewSource(seed))
	n, rounds := timedCount(name, seconds)
	var (
		w   *workload
		err error
	)
	switch name {
	case "hot-estimate":
		w = hotEstimate(rng, n)
	case "cold-plan":
		w = coldPlan(rng, n)
	case "near-dup":
		w, err = nearDup(rng, n)
	default:
		err = fmt.Errorf("unknown workload %q (have %v)", name, workloadNames())
	}
	if err != nil {
		return nil, err
	}
	w.rounds = rounds
	return w, nil
}

// scenario is the wire scenario with every knob spelled out, so the
// daemon, the in-process replay and the reference plan read the same
// values.
func scenario(family string, tasks int, seed int64, pfail, ccr float64, strategy hanccr.Strategy) hanccr.ScenarioRequest {
	return hanccr.ScenarioRequest{
		Family: family, Tasks: tasks, Procs: hanccr.DefaultProcs,
		PFail: &pfail, CCR: &ccr, Seed: &seed,
		Bandwidth: hanccr.DefaultBandwidth, Strategy: string(strategy),
	}
}

// distinctSeeds draws n distinct positive generator seeds.
func distinctSeeds(rng *rand.Rand, n int) []int64 {
	seen := make(map[int64]bool, n)
	out := make([]int64, 0, n)
	for len(out) < n {
		s := rng.Int63n(1<<31) + 1
		if !seen[s] {
			seen[s] = true
			out = append(out, s)
		}
	}
	return out
}

// hotSlots is the 8-slot cycle of hot-estimate. Plan, PathApprox and
// Normal answer from memory in O(tasks); Dodin, Monte Carlo and the
// simulator do orders of magnitude more work per answer.
var hotSlots = []kind{kindPlan, kindPathApprox, kindNormal, kindPlan, kindPathApprox, kindDodin, kindMonteCarlo, kindSimulate}

func hotEstimate(rng *rand.Rand, n int) *workload {
	w := &workload{
		name: "hot-estimate", gomaxprocs: "1", store: true,
		primeCache: hanccr.CacheHit, wantCache: hanccr.CacheHit,
		classes: []string{"light", "heavy"},
	}
	var plans []hanccr.ScenarioRequest
	for _, f := range families {
		for _, s := range distinctSeeds(rng, 16) {
			plans = append(plans, scenario(f, 300, s, hanccr.DefaultPFail, hanccr.DefaultCCR, hanccr.CkptSome))
		}
	}
	rng.Shuffle(len(plans), func(i, j int) { plans[i], plans[j] = plans[j], plans[i] })
	for _, p := range plans {
		w.prepare = append(w.prepare, request{kind: kindPlan, scenario: p})
		w.prime = append(w.prime, request{kind: kindPathApprox, scenario: p})
	}
	// Slot s of cycle c asks plan (c + 8s) mod 64: one cycle touches
	// eight different plans, and every 64 cycles each plan meets every
	// slot once.
	for i := 0; i < n; i++ {
		c, s := i/len(hotSlots), i%len(hotSlots)
		k := hotSlots[s]
		class := 0
		if k == kindDodin || k == kindMonteCarlo || k == kindSimulate {
			class = 1
		}
		w.timed = append(w.timed, request{kind: k, scenario: plans[(c+8*s)%len(plans)], class: class})
	}
	w.perRequest = statsDelta{Hits: 1}
	return w
}

var coldSizes = []int{200, 300, 400}

func coldPlan(rng *rand.Rand, n int) *workload {
	w := &workload{
		name: "cold-plan", store: true, freshStore: true,
		wantCache: hanccr.CacheMiss,
		classes:   []string{"tasks=200", "tasks=300", "tasks=400"},
	}
	// Every (family, size) pair gets its own distinct seeds, so every
	// request is a structure the daemon has never seen.
	per := n / (len(coldSizes) * len(families))
	seeds := distinctSeeds(rng, per)
	for _, s := range seeds {
		for _, f := range families {
			for c, size := range coldSizes {
				sc := scenario(f, size, s, hanccr.DefaultPFail, hanccr.DefaultCCR, hanccr.CkptSome)
				w.timed = append(w.timed, request{kind: kindPlan, scenario: sc, class: c})
			}
		}
	}
	rng.Shuffle(len(w.timed), func(i, j int) { w.timed[i], w.timed[j] = w.timed[j], w.timed[i] })
	w.perRequest = statsDelta{Misses: 1, StoreRecords: 1}
	return w
}

// nearDupStrategies are the timed classes of near-dup. CkptNone is left
// out: its plans skip Algorithm 2, which this workload exists to run.
var nearDupStrategies = []hanccr.Strategy{hanccr.CkptSome, hanccr.CkptAll, hanccr.ExitOnly}

// nearDupGrid is the number of pfail and of CCR values near-dup draws
// from: log-spaced over [1e-4, 1e-2] and [1e-3, 1].
const nearDupGrid = 32

func gridValue(lo, hi float64, i int) float64 {
	return lo * math.Pow(hi/lo, float64(i)/float64(nearDupGrid-1))
}

func nearDup(rng *rand.Rand, n int) (*workload, error) {
	w := &workload{
		name:       "near-dup",
		primeCache: hanccr.CacheMiss, wantCache: hanccr.CacheStructureHit,
		classes: make([]string, len(nearDupStrategies)),
	}
	for i, st := range nearDupStrategies {
		w.classes[i] = string(st)
	}
	type structure struct {
		family string
		seed   int64
	}
	var structs []structure
	for _, f := range families {
		for _, s := range distinctSeeds(rng, 2) {
			structs = append(structs, structure{f, s})
			w.prime = append(w.prime, request{kind: kindPlan,
				scenario: scenario(f, 300, s, hanccr.DefaultPFail, hanccr.DefaultCCR, hanccr.CkptSome)})
		}
	}
	// Each strategy draws its (structure, pfail, ccr) points without
	// replacement, so no point repeats; the primed point (the default
	// pfail and CCR under CkptSome) is skipped, or its request would come
	// back a full hit.
	per := n / len(nearDupStrategies)
	space := len(structs) * nearDupGrid * nearDupGrid
	if per > space-1 {
		return nil, fmt.Errorf("near-dup: %d requests per strategy exceed the %d distinct parameter points", per, space-1)
	}
	points := make([][]int, len(nearDupStrategies))
	for c := range points {
		points[c] = rng.Perm(space)
	}
	next := make([]int, len(nearDupStrategies))
	for i := 0; i < n; i++ {
		c := i % len(nearDupStrategies)
		for {
			p := points[c][next[c]]
			next[c]++
			st := structs[p/(nearDupGrid*nearDupGrid)]
			pf := gridValue(1e-4, 1e-2, p/nearDupGrid%nearDupGrid)
			ccr := gridValue(1e-3, 1, p%nearDupGrid)
			if nearDupStrategies[c] == hanccr.CkptSome && pf == hanccr.DefaultPFail && ccr == hanccr.DefaultCCR {
				continue
			}
			w.timed = append(w.timed, request{kind: kindPlan,
				scenario: scenario(st.family, 300, st.seed, pf, ccr, nearDupStrategies[c]), class: c})
			break
		}
	}
	w.perRequest = statsDelta{Misses: 1, StructureHits: 1}
	return w, nil
}
