package hanccr

import (
	"context"
	"errors"
	"fmt"
	"runtime"
	"sync/atomic"
	"time"
)

// DefaultCacheCapacity bounds a Service's plan cache when no explicit
// capacity is configured.
const DefaultCacheCapacity = 256

// DefaultShards is the number of hash shards a Service splits its plan
// LRU into when no explicit count is configured. Sharding bounds lock
// contention under concurrent traffic: a request only ever takes its
// own shard's lock.
const DefaultShards = 8

// DefaultStructureCacheCapacity bounds a Service's structure-scaffold
// cache when no explicit capacity is configured. Scaffolds are an
// order of magnitude smaller than plans (one workflow plus a chain
// archive, no segment DAG or memoized estimates), so the default sits
// close to the plan cache's.
const DefaultStructureCacheCapacity = 128

// CacheOutcome reports how a Service answered one plan request. It is
// the three-valued refinement of the old hit/miss bool: a parameter
// variant of a cached structure is neither a full hit nor a full miss.
type CacheOutcome string

const (
	// CacheHit: the solved plan was already resident (or the request
	// coalesced onto another goroutine's in-flight computation).
	CacheHit CacheOutcome = "hit"
	// CacheStructureHit: the plan was not resident, but its scenario's
	// StructureKey matched a cached scaffold, so only the
	// parameter-dependent planning tail ran (the near-duplicate fast
	// path). The response is bit-identical to a cold miss.
	CacheStructureHit CacheOutcome = "structure-hit"
	// CacheMiss: the full cold path ran (or the plan was reloaded from
	// the persistent store, which plans the record's scenario but is
	// counted as a store hit, not a miss — see Stats.StoreHits).
	CacheMiss CacheOutcome = "miss"
)

// DefaultInFlightPerCore sets the default admission bound to
// DefaultInFlightPerCore × GOMAXPROCS concurrently executing requests
// (WithMaxInFlight overrides it). Every admitted request is CPU-bound
// work, so the useful concurrency is a small multiple of the cores;
// the factor leaves slack for coalesced waiters parked on a shared
// cold plan without letting a traffic burst pile goroutines without
// bound.
const DefaultInFlightPerCore = 16

// Service is a long-lived, goroutine-safe planner with two cache
// levels, both instances of one sharded singleflight LRU type
// (flightCache). Plan requests are answered from a bounded LRU of
// solved plans keyed by the canonical scenario hash (Scenario.Key).
// Under it, a structure-keyed LRU of planning scaffolds (materialized
// workflow plus Algorithm 1 schedule, keyed by Scenario.StructureKey)
// lets a parameter variant of a known structure re-run only the
// parameter tail. The scaffold level is the only workflow cache a
// Service has, and it is bounded (WithStructureCache): a cold plan
// generates its workflow straight into its scaffold, and nothing
// process-wide keeps it once the scaffold is evicted. Each cached plan
// builds its segment DAG and its Dodin and Normal estimates once, on
// the first request that needs them, so repeated estimate traffic on
// one plan is a lookup.
//
// Each level is split into hash-addressed shards with their own lock
// and recency list, so concurrent traffic on distinct keys never
// serializes on one mutex. Concurrent requests for the same cold key
// coalesce onto one flight; failed flights are not cached. Eviction is
// per shard, so the configured capacity is an upper bound distributed
// across shards, not a single global recency order.
//
// Admission is bounded: at most WithMaxInFlight requests execute at
// once (planning, waiting on a coalesced cold plan, estimating or
// simulating all count); a request arriving with every slot occupied
// is shed immediately with ErrOverloaded — the gate never queues. An
// optional WithRequestTimeout wraps every admitted request in a
// server-side context deadline so one pathological scenario cannot
// hold an admission slot (or a cache flight) forever; waiters whose
// own context is still live already retry when a flight dies of its
// initiator's cancellation, so the two compose.
type Service struct {
	// plans is the solved-plan LRU; hits and misses count its lookups
	// (a store rehydration is neither, see storeHits).
	plans  *flightCache[cachedPlan]
	hits   atomic.Uint64
	misses atomic.Uint64

	// scaffolds is the structure-keyed level under the plan LRU (nil
	// when the fast path is disabled). structureHits counts plan misses
	// answered from a resident scaffold.
	scaffolds     *flightCache[*planScaffold]
	structureHits atomic.Uint64

	// maxInFlight is the admission bound; inflight the gauge of
	// currently admitted requests. shed counts gate rejections
	// (ErrOverloaded, cost-shed batches/sweeps included); expired
	// counts server-side request budgets that fired.
	maxInFlight int64
	inflight    atomic.Int64
	shed        atomic.Uint64
	expired     atomic.Uint64

	// timeout is the per-request server-side budget (0 = none).
	timeout time.Duration

	// planner computes a cold plan (NewPlan unless WithPlanner
	// injected a test/fault-injection seam).
	planner func(ctx context.Context, sc Scenario) (*Plan, error)

	// store is the optional persistent write-through layer under the
	// LRU (WithStore); storeErr holds a deferred WithStore open
	// failure. storeHits counts plans reloaded from disk on the request
	// path (instead of a planner miss), storeLoads plans rehydrated at
	// boot by LoadStore or absorbed from a peer by Follow.
	store      *PlanStore
	storeErr   error
	storeHits  atomic.Uint64
	storeLoads atomic.Uint64

	// logf receives operational diagnostics (store recovery, dropped
	// records); a no-op unless WithServiceLogf is set.
	logf func(string, ...any)
}

// cachedPlan is one plan-cache value: the plan and how its flight
// filled it (miss or structure-hit); callers that share a resident or
// coalesced entry report a hit instead.
type cachedPlan struct {
	plan    *Plan
	outcome CacheOutcome
}

// ServiceOption configures a Service.
type ServiceOption func(*serviceConfig)

type serviceConfig struct {
	capacity       int
	shards         int
	structureCache int
	maxInFlight    int
	timeout        time.Duration
	planner        func(ctx context.Context, sc Scenario) (*Plan, error)
	storeDir       string
	logf           func(string, ...any)
}

// WithCacheCapacity bounds the plan LRU (minimum 1; default
// DefaultCacheCapacity). The capacity is split evenly across the
// shards, each shard holding at least one plan.
func WithCacheCapacity(n int) ServiceOption {
	return func(c *serviceConfig) {
		if n > 0 {
			c.capacity = n
		}
	}
}

// WithShards sets the cache shard count (minimum 1; default
// DefaultShards). One shard reproduces a single global LRU exactly;
// more shards trade strict global recency for contention-free lookups.
func WithShards(n int) ServiceOption {
	return func(c *serviceConfig) {
		if n > 0 {
			c.shards = n
		}
	}
}

// WithStructureCache bounds the structure-scaffold cache (default
// DefaultStructureCacheCapacity, split evenly across the shards). 0 or
// below disables the near-duplicate fast path entirely: every plan
// miss runs the full cold pipeline, exactly the pre-split behavior.
func WithStructureCache(n int) ServiceOption {
	return func(c *serviceConfig) {
		if n < 0 {
			n = 0
		}
		c.structureCache = n
	}
}

// WithMaxInFlight bounds how many requests the Service executes at
// once (minimum 1; default DefaultInFlightPerCore × GOMAXPROCS).
// Excess requests are shed immediately with ErrOverloaded instead of
// queueing.
func WithMaxInFlight(n int) ServiceOption {
	return func(c *serviceConfig) {
		if n > 0 {
			c.maxInFlight = n
		}
	}
}

// WithRequestTimeout wraps every admitted request — plan, estimate,
// simulate, each batch job, each sweep — in a server-side context
// deadline (0 = none, the default). A deadline that fires surfaces as
// context.DeadlineExceeded (HTTP 503) and is counted in
// Stats.DeadlineExpired; the failed plan is never cached.
func WithRequestTimeout(d time.Duration) ServiceOption {
	return func(c *serviceConfig) {
		if d > 0 {
			c.timeout = d
		}
	}
}

// WithPlanner replaces the cold-plan function (default NewPlan). It
// exists as a seam for fault injection and resilience testing — a
// wrapper can add latency, fail, or hang until cancellation — and must
// be deterministic for the cache's hit-equals-miss contract to hold.
// A custom planner disables the structure-scaffold fast path: the
// Service cannot know that an injected planner decomposes into the
// scaffold + tail pipeline, so every miss goes through fn. (This also
// makes WithPlanner(NewPlan) the canonical way to build a
// scaffold-free reference service.)
func WithPlanner(fn func(ctx context.Context, sc Scenario) (*Plan, error)) ServiceOption {
	return func(c *serviceConfig) {
		if fn != nil {
			c.planner = fn
		}
	}
}

// WithStore attaches a persistent plan store rooted at dir: every
// planner miss writes its scenario's record through to disk, and a
// request whose key is neither in the LRU nor in flight but has a
// record is a store hit: the record's scenario is planned afresh and
// made resident, without counting a miss. Call LoadStore at boot to
// rehydrate everything eagerly. An open
// failure is deferred to StoreErr/LoadStore so NewService's signature
// stays error-free.
func WithStore(dir string) ServiceOption {
	return func(c *serviceConfig) {
		if dir != "" {
			c.storeDir = dir
		}
	}
}

// WithServiceLogf routes the Service's operational diagnostics —
// store recovery, dropped records, write-through failures — to fn
// (discarded by default).
func WithServiceLogf(fn func(string, ...any)) ServiceOption {
	return func(c *serviceConfig) {
		if fn != nil {
			c.logf = fn
		}
	}
}

// NewService returns a ready-to-use planner.
func NewService(opts ...ServiceOption) *Service {
	cfg := serviceConfig{
		capacity:       DefaultCacheCapacity,
		shards:         DefaultShards,
		structureCache: DefaultStructureCacheCapacity,
		maxInFlight:    DefaultInFlightPerCore * runtime.GOMAXPROCS(0),
	}
	for _, o := range opts {
		o(&cfg)
	}
	if cfg.planner != nil {
		// A custom planner owns the whole cold path; the scaffold fast
		// path would silently bypass it (see WithPlanner).
		cfg.structureCache = 0
	} else {
		cfg.planner = NewPlan
	}
	s := &Service{
		plans:       newFlightCache[cachedPlan](cfg.capacity, cfg.shards),
		maxInFlight: int64(cfg.maxInFlight),
		timeout:     cfg.timeout,
		planner:     cfg.planner,
		logf:        cfg.logf,
	}
	if cfg.structureCache > 0 {
		s.scaffolds = newFlightCache[*planScaffold](cfg.structureCache, cfg.shards)
	}
	if s.logf == nil {
		s.logf = func(string, ...any) {}
	}
	if cfg.storeDir != "" {
		st, err := openPlanStore(cfg.storeDir, s.logf)
		if err != nil {
			s.storeErr = fmt.Errorf("open plan store %s: %w", cfg.storeDir, err)
		} else {
			s.store = st
		}
	}
	return s
}

// Headroom reports how many admission slots are currently free — the
// load-shedding signal shedCost scales the batch/sweep cost caps by.
func (s *Service) Headroom() int {
	free := s.maxInFlight - s.inflight.Load()
	if free < 0 {
		free = 0
	}
	return int(free)
}

// shedCost rejects a batch or sweep whose cost (jobs, trials, cells)
// exceeds the CURRENT headroom: the static cap scaled by the admission
// gate's free fraction. An idle service accepts up to the full static
// cap — this sheds nothing the fixed limits would have allowed — a
// half-busy one half, and a saturated one answers heavy requests with
// ErrOverloaded before any of their work runs. Integer arithmetic keeps
// the limit deterministic.
func (s *Service) shedCost(what string, cost, static int) error {
	free := s.Headroom()
	if limit := int(int64(static) * int64(free) / s.maxInFlight); cost > limit {
		s.shed.Add(1)
		return fmt.Errorf("%w: %d %s above the current headroom of %d (%d free of %d in-flight slots)",
			ErrOverloaded, cost, what, limit, free, s.maxInFlight)
	}
	return nil
}

// do runs one admitted request. It claims an admission slot, or sheds
// the request with ErrOverloaded when the gate is full; it never
// blocks: shedding in microseconds is the point — a client's retry
// lands after the burst, where queueing here would pile goroutines
// until the process thrashes. It applies the server-side budget, when
// one is configured, and accounts a budget that fired: the operation
// died of DeadlineExceeded while the caller's own context was still
// live (a client that brought its own expired deadline is not the
// server's doing). Every job (runJob) and every sweep funnels through
// it, so the in-flight gauge and the gate see all the work, not just
// cold planning.
func (s *Service) do(ctx context.Context, op func(ctx context.Context) error) error {
	if s.inflight.Add(1) > s.maxInFlight {
		s.inflight.Add(-1)
		s.shed.Add(1)
		return fmt.Errorf("%w: %d requests in flight", ErrOverloaded, s.maxInFlight)
	}
	defer s.inflight.Add(-1)
	bctx := ctx
	if s.timeout > 0 {
		var cancel context.CancelFunc
		bctx, cancel = context.WithTimeout(ctx, s.timeout)
		defer cancel()
	}
	err := op(bctx)
	if s.timeout > 0 && errors.Is(err, context.DeadlineExceeded) && ctx.Err() == nil {
		s.expired.Add(1)
	}
	return err
}

// Stats is a point-in-time snapshot of the two cache levels, the
// admission gate and the store. Entries and Capacity are summed over
// the plan cache's shards (each holds Capacity/Shards plans); Hits and
// Misses count its lookups: a hit is a request answered by a resident
// or coalesced plan, a miss one whose flight ran the planner (a
// structure-hit is a miss that reused a scaffold).
type Stats struct {
	Hits     uint64 `json:"hits"`
	Misses   uint64 `json:"misses"`
	Entries  int    `json:"entries"`
	Capacity int    `json:"capacity"`
	Shards   int    `json:"shards"`
	// InFlight is the admission gauge: requests currently executing
	// (MaxInFlight bounds it). Shed counts requests rejected with
	// ErrOverloaded — the HTTP layer's 429s — and DeadlineExpired the
	// server-side request budgets that fired (503s).
	InFlight        int    `json:"in_flight"`
	MaxInFlight     int    `json:"max_inflight"`
	Shed            uint64 `json:"shed"`
	DeadlineExpired uint64 `json:"deadline_expired"`
	// StructureHits counts plan-cache misses answered via a resident
	// structure scaffold (the near-duplicate fast path: workflow and
	// Algorithm 1 schedule reused, only the parameter tail re-run).
	// StructureEntries/StructureCapacity describe the scaffold cache;
	// all zero when the fast path is disabled (WithStructureCache(0) or
	// a custom WithPlanner).
	StructureHits     uint64 `json:"structure_hits"`
	StructureEntries  int    `json:"structure_entries"`
	StructureCapacity int    `json:"structure_capacity"`
	// StoreHits counts plans reloaded from the persistent store on the
	// request path (after an eviction or on a fresh replica: the
	// record's scenario is planned again, but not counted as a miss or
	// a structure hit); StoreLoads plans rehydrated eagerly at boot by
	// LoadStore or absorbed from a peer by Follow. StoreRecords and
	// StoreBytes describe the store's on-disk state and Compactions its
	// rewrite passes. All zero without WithStore.
	StoreHits    uint64 `json:"store_hits"`
	StoreLoads   uint64 `json:"store_loads"`
	StoreRecords int    `json:"store_records"`
	StoreBytes   int64  `json:"store_bytes"`
	Compactions  uint64 `json:"compactions"`
}

// Stats returns the cache counters, the admission gate's gauge and
// shed/deadline counters, and the store's state.
func (s *Service) Stats() Stats {
	st := Stats{
		Hits:            s.hits.Load(),
		Misses:          s.misses.Load(),
		Shards:          len(s.plans.shards),
		MaxInFlight:     int(s.maxInFlight),
		Shed:            s.shed.Load(),
		DeadlineExpired: s.expired.Load(),
		StoreHits:       s.storeHits.Load(),
		StoreLoads:      s.storeLoads.Load(),
	}
	if s.store != nil {
		st.StoreRecords = s.store.Records()
		st.StoreBytes = s.store.Bytes()
		st.Compactions = s.store.Compactions()
	}
	if in := s.inflight.Load(); in > 0 {
		st.InFlight = int(in)
	}
	st.Entries, st.Capacity = s.plans.size()
	st.StructureHits = s.structureHits.Load()
	if s.scaffolds != nil {
		st.StructureEntries, st.StructureCapacity = s.scaffolds.size()
	}
	return st
}

// Plan returns the solved plan for sc, from cache when warm. Cached
// plans are deterministic replays of the cold path, so a hit is
// bit-identical to a miss.
func (s *Service) Plan(ctx context.Context, sc Scenario) (*Plan, error) {
	p, _, err := s.PlanDetail(ctx, sc)
	return p, err
}

// PlanDetail is Plan plus the three-valued cache outcome: CacheHit
// (resident or coalesced), CacheStructureHit (near-duplicate fast
// path: scaffold reused, parameter tail re-run) or CacheMiss (full
// cold pipeline, or a persistent-store rehydration). All three return
// bit-identical plans; the outcome only reports how much work the
// request cost.
func (s *Service) PlanDetail(ctx context.Context, sc Scenario) (*Plan, CacheOutcome, error) {
	r := s.runJob(ctx, Job{Kind: JobPlan, Scenario: sc})
	return r.Plan, r.Outcome, r.Err
}

// planForKey is the cache lookup behind runJob, after validation, with
// the canonical hash already computed (the response reuses it instead
// of hashing a potentially multi-megabyte injected document twice).
func (s *Service) planForKey(ctx context.Context, sc Scenario, key string) (*Plan, CacheOutcome, error) {
	v, resident, err := s.plans.get(ctx, key, func(ctx context.Context) (cachedPlan, error) {
		// Try the persistent store before counting a miss: an evicted
		// (or restart-lost) plan reloads from its record as a store hit,
		// and only a genuinely unknown scenario counts as a miss. The
		// write-through on success is what fills the store in the first
		// place.
		if p, ok := s.storeLoad(ctx, key); ok {
			s.storeHits.Add(1)
			return cachedPlan{p, CacheMiss}, nil
		}
		s.misses.Add(1)
		p, outcome, err := s.planCold(ctx, sc)
		if err != nil {
			return cachedPlan{}, err
		}
		if outcome == CacheStructureHit {
			s.structureHits.Add(1)
		}
		s.storePut(key, p)
		return cachedPlan{p, outcome}, nil
	})
	switch {
	case err != nil:
		return nil, CacheMiss, err
	case resident:
		// Resident entry, or coalesced onto another goroutine's
		// successful flight: served from memory either way.
		s.hits.Add(1)
		return v.plan, CacheHit, nil
	}
	return v.plan, v.outcome, nil
}

// planCold computes a plan that is not resident: a miss, or a store
// record's scenario (reload). With the structure cache enabled, every
// cold plan goes through the scaffold pipeline — look up (or build, coalesced per structure key)
// the scenario's scaffold, then run only the parameter-dependent tail.
// A plan whose scaffold was already resident is the near-duplicate
// fast path and reports CacheStructureHit; a fresh scaffold is a plain
// miss that also warms the scaffold cache for the parameter variants
// behind it. With the fast path disabled, the configured planner runs.
// The caller counts the outcome: planForKey counts a miss's structure
// hit, and a reload counts none.
func (s *Service) planCold(ctx context.Context, sc Scenario) (*Plan, CacheOutcome, error) {
	if s.scaffolds == nil {
		p, err := s.planner(ctx, sc)
		return p, CacheMiss, err
	}
	// A coalesced wait on another variant's build counts as resident:
	// it shared the build exactly like a plan cache's coalesced hit.
	sf, resident, err := s.scaffolds.get(ctx, sc.StructureKey(), func(ctx context.Context) (*planScaffold, error) {
		return buildScaffold(ctx, sc)
	})
	if err != nil {
		return nil, CacheMiss, err
	}
	outcome := CacheMiss
	if resident {
		outcome = CacheStructureHit
	}
	p, err := planFromScaffold(ctx, sc, sf)
	if err != nil {
		return nil, CacheMiss, err
	}
	return p, outcome, nil
}

// Estimate plans sc through the cache and evaluates it with the given
// method (canonicalised through ParseMethod), under one admission slot
// and one request budget.
func (s *Service) Estimate(ctx context.Context, sc Scenario, m Method, opts ...EstimateOption) (float64, error) {
	r := s.runJob(ctx, Job{Kind: JobEstimate, Scenario: sc, Method: m, EstimateOptions: opts})
	return r.Estimate, r.Err
}

// Simulate plans sc through the cache and runs the discrete-event
// simulator on the plan, under one admission slot and one request
// budget.
func (s *Service) Simulate(ctx context.Context, sc Scenario, opts ...SimOption) (SimResult, error) {
	r := s.runJob(ctx, Job{Kind: JobSimulate, Scenario: sc, SimOptions: opts})
	return r.Sim, r.Err
}
