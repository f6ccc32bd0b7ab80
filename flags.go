package hanccr

import (
	"flag"
	"fmt"
	"strings"
	"time"
)

// ScenarioFlags is the one shared flag block behind every CLI: it
// defines, parses and validates the scenario knobs once, so the five
// binaries cannot silently drift apart on names or defaults (they used
// to: cmd/simulate defaulted to 50 tasks on 5 processors while
// cmd/schedule said 300 on 35).
//
// Bind the full block or a subset:
//
//	sf := hanccr.BindScenarioFlags(flag.CommandLine)            // everything
//	sf := hanccr.BindScenarioFlags(fs, "family", "tasks", "seed")
//	flag.Parse()
//	sc, err := sf.Scenario()
//
// Unbound fields keep the shared defaults.
type ScenarioFlags struct {
	Family    string
	Input     string
	Tasks     int
	Procs     int
	PFail     float64
	CCR       float64
	Seed      int64
	Bandwidth float64
	Workers   int
	Ragged    bool
}

// scenarioFlagNames lists every flag BindScenarioFlags can define, in
// definition order.
var scenarioFlagNames = []string{
	"family", "input", "tasks", "procs", "pfail", "ccr", "seed", "bw", "workers", "ragged",
}

// BindScenarioFlags registers the shared scenario flags on fs and
// returns the struct they parse into. With no names every flag is
// bound; otherwise only the named subset is (unknown names panic — they
// are programmer error). Call fs.Parse (or flag.Parse) before
// Scenario().
func BindScenarioFlags(fs *flag.FlagSet, names ...string) *ScenarioFlags {
	f := &ScenarioFlags{
		Family:    DefaultFamily,
		Tasks:     DefaultTasks,
		Procs:     DefaultProcs,
		PFail:     DefaultPFail,
		CCR:       DefaultCCR,
		Seed:      DefaultSeed,
		Bandwidth: DefaultBandwidth,
	}
	want := make(map[string]bool, len(names))
	for _, n := range names {
		known := false
		for _, k := range scenarioFlagNames {
			if k == n {
				known = true
				break
			}
		}
		if !known {
			panic(fmt.Sprintf("hanccr: unknown scenario flag %q", n))
		}
		want[n] = true
	}
	bind := func(name string) bool { return len(want) == 0 || want[name] }
	if bind("family") {
		fs.StringVar(&f.Family, "family", f.Family, "workflow family (montage | ligo | genome | cybershake)")
	}
	if bind("input") {
		fs.StringVar(&f.Input, "input", f.Input, "load workflow from a .json or .dax/.xml file instead of generating")
	}
	if bind("tasks") {
		fs.IntVar(&f.Tasks, "tasks", f.Tasks, "approximate task count")
	}
	if bind("procs") {
		fs.IntVar(&f.Procs, "procs", f.Procs, "processor count")
	}
	if bind("pfail") {
		fs.Float64Var(&f.PFail, "pfail", f.PFail, "per-task failure probability (calibrates lambda)")
	}
	if bind("ccr") {
		fs.Float64Var(&f.CCR, "ccr", f.CCR, "communication-to-computation ratio")
	}
	if bind("seed") {
		fs.Int64Var(&f.Seed, "seed", f.Seed, "seed for generation and linearization")
	}
	if bind("bw") {
		fs.Float64Var(&f.Bandwidth, "bw", f.Bandwidth, "stable storage bandwidth, bytes/s")
	}
	if bind("workers") {
		fs.IntVar(&f.Workers, "workers", f.Workers, "worker goroutines (0 = all cores); results are identical for any value")
	}
	if bind("ragged") {
		fs.BoolVar(&f.Ragged, "ragged", f.Ragged, "ligo only: emit the PWG non-M-SPG artifact plus dummy completion")
	}
	return f
}

// ServeFlags is the daemon's flag block (cmd/serve): listen address,
// cache geometry, admission control, the plan store and its peers,
// defined in one place like the scenario flags so daemon deployments
// cannot drift from the documented defaults.
type ServeFlags struct {
	Addr           string
	Cache          int
	Shards         int
	StructureCache int
	Drain          time.Duration
	WarmWorkers    int
	StreamCells    int
	MaxInFlight    int
	RequestTimeout time.Duration
	Tail           string
	Store          string
	StoreVerify    bool
	StoreCompact   time.Duration
}

// BindServeFlags registers the daemon flags on fs and returns the
// struct they parse into.
func BindServeFlags(fs *flag.FlagSet) *ServeFlags {
	f := &ServeFlags{
		Addr:           ":8080",
		Cache:          DefaultCacheCapacity,
		Shards:         DefaultShards,
		StructureCache: DefaultStructureCacheCapacity,
		Drain:          10 * time.Second,
		StreamCells:    DefaultStreamSweepCells,
		StoreCompact:   5 * time.Minute,
	}
	fs.StringVar(&f.Addr, "addr", f.Addr, "listen address")
	fs.IntVar(&f.Cache, "cache", f.Cache, "plan LRU capacity in scenarios, split across the shards")
	fs.IntVar(&f.Shards, "shards", f.Shards, "plan cache shard count (1 = a single global LRU)")
	fs.IntVar(&f.StructureCache, "structure-cache", f.StructureCache, "structure-scaffold cache capacity for the near-duplicate fast path (0 disables it)")
	fs.DurationVar(&f.Drain, "drain", f.Drain, "graceful shutdown timeout")
	fs.IntVar(&f.WarmWorkers, "warm-workers", 0, "goroutines decoding plans loaded from -store at boot or absorbed from -tail peers (0 = all cores)")
	fs.IntVar(&f.StreamCells, "stream-cells", f.StreamCells, "cell ceiling for STREAMED /v1/sweep grids (buffered sweeps keep the fixed in-memory cap)")
	fs.IntVar(&f.MaxInFlight, "max-inflight", 0, "admission bound: concurrently executing requests before the daemon sheds with 429 (0 = 16 x GOMAXPROCS)")
	fs.DurationVar(&f.RequestTimeout, "request-timeout", 0, "server-side budget per admitted request; an expired budget answers 503 (0 = none)")
	fs.StringVar(&f.Tail, "tail", "", "comma-separated peer replica URLs whose plan stores (GET /v1/store) to follow continuously")
	fs.StringVar(&f.Store, "store", "", "persistent plan store directory: solved plans are written through to disk and rehydrated into the cache at boot (\"\" = memory only)")
	fs.BoolVar(&f.StoreVerify, "store-verify", false, "store integrity mode: golden-check every record read from disk against a freshly planned reference before serving it (slow)")
	fs.DurationVar(&f.StoreCompact, "store-compact", f.StoreCompact, "how often to check the plan store for compaction (0 disables the periodic check; the size-triggered check on writes always runs)")
	return f
}

// TailSources splits the -tail flag into its peer URLs; a source that
// is not an http(s) URL is an error.
func (f *ServeFlags) TailSources() ([]string, error) {
	var out []string
	for _, s := range strings.Split(f.Tail, ",") {
		if s = strings.TrimSpace(s); s == "" {
			continue
		}
		if !isPeerURL(s) {
			return nil, fmt.Errorf("-tail %q: want a peer replica URL (http:// or https://)", s)
		}
		out = append(out, s)
	}
	return out, nil
}

// LBFlags is cmd/hanccr-lb's flag block: listen address, the backend
// replica list and the failover knobs, defined beside the serve flags
// so router deployments cannot drift from the documented defaults.
type LBFlags struct {
	Addr     string
	Backends string
	VNodes   int
	Cooldown time.Duration
	Drain    time.Duration
}

// BindLBFlags registers the router flags on fs and returns the struct
// they parse into.
func BindLBFlags(fs *flag.FlagSet) *LBFlags {
	f := &LBFlags{
		Addr:     ":8090",
		VNodes:   DefaultRouterVNodes,
		Cooldown: DefaultRouterCooldown,
		Drain:    10 * time.Second,
	}
	fs.StringVar(&f.Addr, "addr", f.Addr, "listen address")
	fs.StringVar(&f.Backends, "backends", f.Backends, "comma-separated replica base URLs (e.g. http://10.0.0.2:8080,http://10.0.0.3:8080)")
	fs.IntVar(&f.VNodes, "vnodes", f.VNodes, "virtual ring points per backend (more = smoother key spread)")
	fs.DurationVar(&f.Cooldown, "cooldown", f.Cooldown, "how long a failed backend sits out before being probed again (Retry-After overrides, capped)")
	fs.DurationVar(&f.Drain, "drain", f.Drain, "graceful shutdown timeout")
	return f
}

// Router builds the consistent-hash router the parsed flags describe.
func (f *LBFlags) Router(opts ...RouterOption) (*Router, error) {
	var backends []string
	for _, b := range strings.Split(f.Backends, ",") {
		if b = strings.TrimSpace(b); b != "" {
			backends = append(backends, b)
		}
	}
	return NewRouter(backends, append([]RouterOption{
		WithRouterVNodes(f.VNodes), WithRouterCooldown(f.Cooldown),
	}, opts...)...)
}

// Service builds the planner the parsed daemon flags describe.
// MaxInFlight and RequestTimeout pass through the option guards, so
// zero values keep the Service defaults; extra options (e.g.
// WithServiceLogf from the daemon) are applied after the flag-derived
// ones. The error is a -store directory that could not be opened — a
// daemon asked to persist plans must not silently run memory-only.
func (f *ServeFlags) Service(extra ...ServiceOption) (*Service, error) {
	opts := []ServiceOption{
		WithCacheCapacity(f.Cache), WithShards(f.Shards),
		WithStructureCache(f.StructureCache),
		WithMaxInFlight(f.MaxInFlight), WithRequestTimeout(f.RequestTimeout),
	}
	if f.Store != "" {
		opts = append(opts, WithStore(f.Store))
		if f.StoreVerify {
			opts = append(opts, WithStoreVerify())
		}
	}
	s := NewService(append(opts, extra...)...)
	return s, s.StoreErr()
}

// Scenario builds and validates the scenario the parsed flags
// describe. extra options (e.g. WithStrategy from a binary-specific
// flag) are applied after the shared block.
func (f *ScenarioFlags) Scenario(extra ...ScenarioOption) (Scenario, error) {
	opts := []ScenarioOption{
		WithFamily(f.Family),
		WithTasks(f.Tasks),
		WithProcs(f.Procs),
		WithPFail(f.PFail),
		WithCCR(f.CCR),
		WithSeed(f.Seed),
		WithBandwidth(f.Bandwidth),
		WithRagged(f.Ragged),
	}
	if f.Input != "" {
		opts = append(opts, WithWorkflowFile(f.Input))
	}
	opts = append(opts, extra...)
	sc := NewScenario(opts...)
	return sc, sc.Validate()
}
