package hanccr

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// smallScenario is a cheap-to-plan cell used by the service tests.
func smallScenario(fam string, seed int64, strat Strategy) Scenario {
	return NewScenario(
		WithFamily(fam), WithTasks(40), WithProcs(3),
		WithSeed(seed), WithStrategy(strat),
	)
}

// TestServiceCacheHitBitIdentical pins the service's core promise: a
// warm hit returns the very plan the cold miss computed, and both
// agree exactly with an uncached NewPlan.
func TestServiceCacheHitBitIdentical(t *testing.T) {
	ctx := context.Background()
	svc := NewService()
	sc := smallScenario("genome", 7, CkptSome)

	cold, outcome, err := svc.PlanDetail(ctx, sc)
	if err != nil {
		t.Fatal(err)
	}
	if outcome == CacheHit {
		t.Fatal("first request reported a cache hit")
	}
	warm, outcome, err := svc.PlanDetail(ctx, sc)
	if err != nil {
		t.Fatal(err)
	}
	if outcome != CacheHit {
		t.Fatal("second request missed the cache")
	}
	if warm != cold {
		t.Fatal("cache hit returned a different plan instance")
	}
	direct, err := NewPlan(ctx, sc)
	if err != nil {
		t.Fatal(err)
	}
	if warm.ExpectedMakespan() != direct.ExpectedMakespan() {
		t.Fatalf("cached plan EM %.17g != direct %.17g", warm.ExpectedMakespan(), direct.ExpectedMakespan())
	}
	de, err := direct.Estimate(ctx, Dodin)
	if err != nil {
		t.Fatal(err)
	}
	we, err := warm.Estimate(ctx, Dodin)
	if err != nil {
		t.Fatal(err)
	}
	if de != we {
		t.Fatalf("cached estimate %.17g != direct %.17g", we, de)
	}
	st := svc.Stats()
	if st.Hits != 1 || st.Misses != 1 || st.Entries != 1 {
		t.Fatalf("stats = %+v, want 1 hit / 1 miss / 1 entry", st)
	}
}

// TestServiceLRUEviction checks the cache is bounded and evicts least
// recently used plans first. One shard makes the recency order global,
// so the eviction victim is exact; per-shard eviction is covered by
// TestServicePerShardLRUEviction.
func TestServiceLRUEviction(t *testing.T) {
	ctx := context.Background()
	svc := NewService(WithCacheCapacity(2), WithShards(1))
	a := smallScenario("genome", 1, CkptSome)
	b := smallScenario("genome", 2, CkptSome)
	c := smallScenario("genome", 3, CkptSome)

	for _, sc := range []Scenario{a, b} {
		if _, err := svc.Plan(ctx, sc); err != nil {
			t.Fatal(err)
		}
	}
	// Touch a so b is the LRU victim when c arrives.
	if _, outcome, _ := svc.PlanDetail(ctx, a); outcome != CacheHit {
		t.Fatal("a should be resident")
	}
	if _, err := svc.Plan(ctx, c); err != nil {
		t.Fatal(err)
	}
	if st := svc.Stats(); st.Entries != 2 {
		t.Fatalf("entries = %d, want 2", st.Entries)
	}
	if _, outcome, _ := svc.PlanDetail(ctx, a); outcome != CacheHit {
		t.Error("a was evicted despite being recently used")
	}
	if _, outcome, _ := svc.PlanDetail(ctx, b); outcome == CacheHit {
		t.Error("b survived eviction in a capacity-2 cache")
	}
}

// TestServiceErrorsNotCached checks a failed plan does not poison the
// cache.
func TestServiceErrorsNotCached(t *testing.T) {
	ctx := context.Background()
	svc := NewService()
	bad := NewScenario(WithWorkflow("diamond", "json", []byte(nonMSPGDoc)))
	if _, err := svc.Plan(ctx, bad); err == nil {
		t.Fatal("expected a planning error")
	}
	if st := svc.Stats(); st.Entries != 0 {
		t.Fatalf("failed plan left %d cache entries", st.Entries)
	}
	// A cancelled first request must not pin a dead entry either.
	cctx, cancel := context.WithCancel(ctx)
	cancel()
	good := smallScenario("montage", 5, CkptSome)
	if _, err := svc.Plan(cctx, good); err == nil {
		t.Fatal("expected cancellation")
	}
	if p, err := svc.Plan(ctx, good); err != nil || p == nil {
		t.Fatalf("retry after cancellation failed: %v", err)
	}
}

// TestServiceConcurrentMixedTraffic hammers one Service from many
// goroutines with mixed plan/estimate/simulate/compare traffic over a
// small scenario set (forcing heavy key collision and some eviction)
// and checks every answer equals the serial reference. Run under -race
// by `make check`, this is also the data-race proof for the LRU and the
// per-plan segment DAG and memoized estimates.
func TestServiceConcurrentMixedTraffic(t *testing.T) {
	ctx := context.Background()
	scenarios := []Scenario{
		smallScenario("genome", 7, CkptSome),
		smallScenario("genome", 7, CkptAll),
		smallScenario("genome", 7, CkptNone),
		smallScenario("montage", 7, CkptSome),
		smallScenario("ligo", 7, CkptSome),
		smallScenario("cybershake", 7, CkptSome),
	}
	type ref struct {
		em, dodin float64
		simMean   float64
		cmp       *Comparison
	}
	refs := make([]ref, len(scenarios))
	for i, sc := range scenarios {
		p, err := NewPlan(ctx, sc)
		if err != nil {
			t.Fatal(err)
		}
		d, err := p.Estimate(ctx, Dodin)
		if err != nil {
			t.Fatal(err)
		}
		sim, err := p.Simulate(ctx, WithSimTrials(200), WithSimWorkers(1))
		if err != nil {
			t.Fatal(err)
		}
		cmp, err := Compare(ctx, sc)
		if err != nil {
			t.Fatal(err)
		}
		refs[i] = ref{em: p.ExpectedMakespan(), dodin: d, simMean: sim.Mean, cmp: cmp}
	}

	// Smaller than the scenario set to force eviction under load; one
	// shard keeps the capacity bound exact (sharded traffic is pinned by
	// TestServiceShardedMatchesSerialReference).
	svc := NewService(WithCacheCapacity(4), WithShards(1))
	const goroutines = 8
	const iters = 30
	var wg sync.WaitGroup
	errc := make(chan error, goroutines)
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for it := 0; it < iters; it++ {
				i := (g + it) % len(scenarios)
				sc, want := scenarios[i], refs[i]
				switch it % 4 {
				case 0:
					p, err := svc.Plan(ctx, sc)
					if err != nil {
						errc <- err
						return
					}
					if p.ExpectedMakespan() != want.em {
						errc <- fmt.Errorf("plan EM %.17g != ref %.17g", p.ExpectedMakespan(), want.em)
						return
					}
				case 1:
					d, err := svc.Estimate(ctx, sc, Dodin)
					if err != nil {
						errc <- err
						return
					}
					if d != want.dodin {
						errc <- fmt.Errorf("dodin %.17g != ref %.17g", d, want.dodin)
						return
					}
				case 2:
					s, err := svc.Simulate(ctx, sc, WithSimTrials(200), WithSimWorkers(2))
					if err != nil {
						errc <- err
						return
					}
					if s.Mean != want.simMean {
						errc <- fmt.Errorf("sim mean %.17g != ref %.17g", s.Mean, want.simMean)
						return
					}
				default:
					cmp, err := comparePlans(ctx, svc, sc)
					if err != nil {
						errc <- err
						return
					}
					for _, pair := range [][2]*Plan{{cmp.Some, want.cmp.Some}, {cmp.All, want.cmp.All}, {cmp.None, want.cmp.None}} {
						if got, ref := pair[0].ExpectedMakespan(), pair[1].ExpectedMakespan(); got != ref {
							errc <- fmt.Errorf("compare %s EM %.17g != ref %.17g", pair[0].Strategy(), got, ref)
							return
						}
					}
				}
			}
		}(g)
	}
	wg.Wait()
	close(errc)
	for err := range errc {
		t.Fatal(err)
	}
	st := svc.Stats()
	if st.Entries > 4 {
		t.Fatalf("cache exceeded capacity: %+v", st)
	}
	if st.Hits+st.Misses == 0 {
		t.Fatal("no traffic recorded")
	}
}

// comparePlans is how a Service compares the paper's three strategies:
// three serial strategy-pinned PlanDetail calls, collected into a
// Comparison. Strategy is part of the plan key but not of the structure
// key, so the three share one scaffold — one Algorithm 1 schedule, as
// the paper's comparison requires.
func comparePlans(ctx context.Context, svc *Service, sc Scenario) (*Comparison, error) {
	var plans [3]*Plan
	for i, st := range [...]Strategy{CkptSome, CkptAll, CkptNone} {
		pinned := sc
		pinned.strategy = st
		p, _, err := svc.PlanDetail(ctx, pinned)
		if err != nil {
			return nil, err
		}
		plans[i] = p
	}
	return &Comparison{Some: plans[0], All: plans[1], None: plans[2]}, nil
}

// TestServiceCompareMatchesFacadeCompare pins a Service comparison
// (three strategy-pinned plan requests sharing one cached scaffold)
// against the one-shot Compare (one shared schedule): every family,
// several seeds, all three strategies, byte-identical encoded plans.
func TestServiceCompareMatchesFacadeCompare(t *testing.T) {
	ctx := context.Background()
	svc := NewService()
	for _, fam := range []string{"genome", "montage", "ligo", "cybershake"} {
		for seed := int64(11); seed <= 13; seed++ {
			sc := smallScenario(fam, seed, CkptSome)
			direct, err := Compare(ctx, sc)
			if err != nil {
				t.Fatal(err)
			}
			cached, err := comparePlans(ctx, svc, sc)
			if err != nil {
				t.Fatal(err)
			}
			assertComparisonsIdentical(t, fmt.Sprintf("%s/seed=%d", fam, seed), cached, direct)
		}
	}
}

// assertComparisonsIdentical fails unless every strategy's plan in got
// encodes to the same bytes as in want.
func assertComparisonsIdentical(t *testing.T, name string, got, want *Comparison) {
	t.Helper()
	for _, pair := range []struct {
		strat     Strategy
		got, want *Plan
	}{{CkptSome, got.Some, want.Some}, {CkptAll, got.All, want.All}, {CkptNone, got.None, want.None}} {
		g, err := encodePlan(pair.got)
		if err != nil {
			t.Fatal(err)
		}
		w, err := encodePlan(pair.want)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(g, w) {
			t.Fatalf("%s %s: Service comparison plan diverges from Compare", name, pair.strat)
		}
	}
}

// TestServiceCompareCounters pins what a cold Service comparison costs:
// with the scaffold cache, one full miss builds the shared scaffold and
// the other two strategies are structure-hits on it (Misses counts all
// three, StructureHits the two); without it, three full misses. Either
// way the plans match the facade Compare byte for byte.
func TestServiceCompareCounters(t *testing.T) {
	ctx := context.Background()
	sc := smallScenario("ligo", 17, CkptSome)
	direct, err := Compare(ctx, sc)
	if err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		name               string
		opts               []ServiceOption
		structureHits      uint64
		structureResidents int
	}{
		{"scaffold", nil, 2, 1},
		{"no-scaffold", []ServiceOption{WithStructureCache(0)}, 0, 0},
	} {
		t.Run(tc.name, func(t *testing.T) {
			svc := NewService(tc.opts...)
			cmp, err := comparePlans(ctx, svc, sc)
			if err != nil {
				t.Fatal(err)
			}
			st := svc.Stats()
			if st.Misses != 3 || st.StructureHits != tc.structureHits || st.Hits != 0 || st.Entries != 3 {
				t.Fatalf("cold Compare: %+v, want 3 misses (%d structure-hits), 0 hits, 3 entries", st, tc.structureHits)
			}
			if st.StructureEntries != tc.structureResidents {
				t.Fatalf("cold Compare left %d scaffolds, want %d", st.StructureEntries, tc.structureResidents)
			}
			assertComparisonsIdentical(t, tc.name, cmp, direct)
		})
	}
}

// TestServiceFailedCoalescedWaitsAreNotHits pins the hit counter: a
// waiter coalesced onto a flight that fails got no plan, so it is not
// a hit. Eight concurrent requests against a failing planner share one
// flight and count one miss and no hit.
func TestServiceFailedCoalescedWaitsAreNotHits(t *testing.T) {
	ctx := context.Background()
	errPlan := errors.New("injected planner failure")
	entered, release := make(chan struct{}), make(chan struct{})
	var calls atomic.Int32
	svc := NewService(WithPlanner(func(ctx context.Context, sc Scenario) (*Plan, error) {
		if calls.Add(1) == 1 {
			close(entered)
		}
		<-release
		return nil, errPlan
	}))
	sc := smallScenario("genome", 41, CkptSome)
	const callers = 8
	errs := make(chan error, callers)
	call := func() {
		_, err := svc.Plan(ctx, sc)
		errs <- err
	}
	go call()
	<-entered
	for i := 1; i < callers; i++ {
		go call()
	}
	// Hold the flight until every caller is admitted, then a little
	// longer so each has parked on it.
	deadline := time.Now().Add(10 * time.Second)
	for svc.Stats().InFlight < callers {
		if time.Now().After(deadline) {
			t.Fatalf("only %d of %d callers admitted", svc.Stats().InFlight, callers)
		}
		time.Sleep(time.Millisecond)
	}
	time.Sleep(50 * time.Millisecond)
	close(release)
	for i := 0; i < callers; i++ {
		if err := <-errs; !errors.Is(err, errPlan) {
			t.Fatalf("caller %d: %v, want the planner's failure", i, err)
		}
	}
	if st := svc.Stats(); st.Hits != 0 || st.Misses != 1 || st.Entries != 0 {
		t.Fatalf("stats = %+v, want 0 hits / 1 miss / 0 entries", st)
	}
	if n := calls.Load(); n != 1 {
		t.Fatalf("planner ran %d times, want 1 shared flight", n)
	}
}

// TestServiceForeignCancellationDoesNotPoisonWaiters pins the
// singleflight fix: a cancelled initiator must not fail a coalesced
// waiter whose own context is live — the waiter retries as the new
// initiator and gets a real plan.
func TestServiceForeignCancellationDoesNotPoisonWaiters(t *testing.T) {
	svc := NewService()
	sc := smallScenario("genome", 21, CkptSome)
	cctx, cancel := context.WithCancel(context.Background())
	cancel()
	// The cancelled caller seeds the in-flight entry and fails...
	if _, err := svc.Plan(cctx, sc); err == nil {
		t.Fatal("cancelled initiator must fail")
	}
	// ...but a healthy caller right after must succeed.
	p, err := svc.Plan(context.Background(), sc)
	if err != nil || p == nil {
		t.Fatalf("healthy caller failed after foreign cancellation: %v", err)
	}
}

// TestScenarioKeyNoFieldBoundaryCollision pins the length-prefixed hash
// input: moving bytes between the injected document's name and body
// must change the key.
func TestScenarioKeyNoFieldBoundaryCollision(t *testing.T) {
	a := NewScenario(WithWorkflow("n", "json", []byte("PAYLOAD-A|format=json|doc=42:rest")))
	b := NewScenario(WithWorkflow("n|format=json|doc=42:PAYLOAD-A", "json", []byte("rest")))
	if a.Key() == b.Key() {
		t.Fatal("scenario keys collide across the name/document boundary")
	}
}

// TestNonPositiveTrialsRejected pins the ErrBadScenario guard on
// explicit nonsense trial counts.
func TestNonPositiveTrialsRejected(t *testing.T) {
	ctx := context.Background()
	p, err := NewPlan(ctx, smallScenario("genome", 7, CkptSome))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := p.Estimate(ctx, MonteCarlo, WithMCTrials(-5)); !errors.Is(err, ErrBadScenario) {
		t.Errorf("Estimate(-5 trials): %v", err)
	}
	if _, err := p.Simulate(ctx, WithSimTrials(0)); !errors.Is(err, ErrBadScenario) {
		t.Errorf("Simulate(0 trials): %v", err)
	}
}

// TestServiceCompareSeedsCache pins the shared-schedule comparison
// path: a cold Service comparison seeds all three per-strategy plans,
// so the follow-up single-strategy requests and a second comparison
// are pure hits.
func TestServiceCompareSeedsCache(t *testing.T) {
	ctx := context.Background()
	svc := NewService()
	sc := smallScenario("genome", 31, CkptSome)
	first, err := comparePlans(ctx, svc, sc)
	if err != nil {
		t.Fatal(err)
	}
	st := svc.Stats()
	if st.Entries != 3 || st.Hits != 0 {
		t.Fatalf("after cold Compare: %+v, want 3 seeded entries, 0 hits", st)
	}
	for _, strat := range []Strategy{CkptSome, CkptAll, CkptNone} {
		if _, outcome, err := svc.PlanDetail(ctx, smallScenario("genome", 31, strat)); err != nil || outcome != CacheHit {
			t.Fatalf("%s not seeded (outcome=%q, err=%v)", strat, outcome, err)
		}
	}
	second, err := comparePlans(ctx, svc, sc)
	if err != nil {
		t.Fatal(err)
	}
	if second.Some != first.Some || second.All != first.All || second.None != first.None {
		t.Fatal("warm Compare did not serve the seeded plans")
	}
}

// liveHeap returns the live heap after a full collection.
func liveHeap() int64 {
	runtime.GC()
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	return int64(m.HeapAlloc)
}

// TestServiceColdTrafficHeapBounded pins that a Service's memory is
// bounded by its caches, not by the traffic it has seen: cold-planning
// hundreds of distinct structures through small plan and scaffold
// caches must leave the live heap where a few dozen left it. A
// workflow cache that outlives the Service's own bounded levels (a
// process-wide generator memo, say) grows the heap by one workflow per
// structure and fails this test.
func TestServiceColdTrafficHeapBounded(t *testing.T) {
	ctx := context.Background()
	const warm, more = 40, 360
	scenario := func(i int) Scenario {
		return NewScenario(WithFamily("genome"), WithTasks(120), WithProcs(5), WithSeed(int64(7_000_000+i)))
	}
	// One workflow's retained size sets the scale of a leak.
	held := make([]*Workflow, 16)
	before := liveHeap()
	for i := range held {
		w, err := GenerateWorkflow(ctx, scenario(-1-i))
		if err != nil {
			t.Fatal(err)
		}
		held[i] = w
	}
	perWorkflow := (liveHeap() - before) / int64(len(held))
	runtime.KeepAlive(held)

	svc := NewService(WithCacheCapacity(4), WithStructureCache(2))
	for i := 0; i < warm+more; i++ {
		if i == warm {
			before = liveHeap()
		}
		if _, err := svc.Plan(ctx, scenario(i)); err != nil {
			t.Fatal(err)
		}
	}
	grown := liveHeap() - before
	// Retaining every new structure would grow the heap by about
	// more*perWorkflow; allow a tenth of that for collector noise.
	if limit := more * perWorkflow / 10; grown > limit {
		t.Fatalf("live heap grew %.2f MB over %d more distinct structures (%.3f MB per workflow, limit %.2f MB): something retains every structure",
			float64(grown)/1e6, more, float64(perWorkflow)/1e6, float64(limit)/1e6)
	}
	if st := svc.Stats(); st.Misses != warm+more {
		t.Fatalf("%d misses, want %d distinct cold plans", st.Misses, warm+more)
	}
	t.Logf("live heap grew %.2f MB over %d structures (%.3f MB per workflow)", float64(grown)/1e6, more, float64(perWorkflow)/1e6)
}
