package hanccr

import (
	"context"
	"fmt"
	"sync"
	"testing"
)

// shardIndexOf reports which plan-cache shard a key maps to.
func shardIndexOf(s *Service, key string) int {
	sh := s.plans.shardFor(key)
	for i, cand := range s.plans.shards {
		if cand == sh {
			return i
		}
	}
	return -1
}

// resident reports whether sc's plan currently sits in the cache,
// without planning it on a miss (PlanDetail would).
func resident(s *Service, sc Scenario) bool {
	key := sc.Key()
	sh := s.plans.shardFor(key)
	sh.mu.Lock()
	defer sh.mu.Unlock()
	_, ok := sh.entries[key]
	return ok
}

// TestServiceShardedMatchesSerialReference drives concurrent mixed
// plan/estimate/simulate traffic through services sharded 1, 4 and 16
// ways and pins every answer to the serial unsharded reference —
// sharding may only change lock granularity and eviction locality,
// never a single bit of any response. Run under -race via make check.
func TestServiceShardedMatchesSerialReference(t *testing.T) {
	ctx := context.Background()
	scenarios := []Scenario{
		smallScenario("genome", 7, CkptSome),
		smallScenario("genome", 7, CkptAll),
		smallScenario("genome", 7, CkptNone),
		smallScenario("montage", 7, CkptSome),
		smallScenario("ligo", 7, CkptSome),
		smallScenario("cybershake", 7, CkptSome),
	}
	type ref struct{ em, dodin, simMean float64 }
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
		refs[i] = ref{em: p.ExpectedMakespan(), dodin: d, simMean: sim.Mean}
	}

	for _, shards := range []int{1, 4, 16} {
		t.Run(fmt.Sprintf("shards=%d", shards), func(t *testing.T) {
			svc := NewService(WithCacheCapacity(4), WithShards(shards))
			const goroutines = 8
			const iters = 24
			var wg sync.WaitGroup
			errc := make(chan error, goroutines)
			for g := 0; g < goroutines; g++ {
				wg.Add(1)
				go func(g int) {
					defer wg.Done()
					for it := 0; it < iters; it++ {
						i := (g + it) % len(scenarios)
						sc, want := scenarios[i], refs[i]
						switch it % 3 {
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
						default:
							s, err := svc.Simulate(ctx, sc, WithSimTrials(200), WithSimWorkers(2))
							if err != nil {
								errc <- err
								return
							}
							if s.Mean != want.simMean {
								errc <- fmt.Errorf("sim mean %.17g != ref %.17g", s.Mean, want.simMean)
								return
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
			if st.Shards != shards {
				t.Fatalf("stats shards = %d, want %d", st.Shards, shards)
			}
			if st.Entries > st.Capacity {
				t.Fatalf("cache exceeded its sharded capacity: %+v", st)
			}
			if st.Hits+st.Misses == 0 {
				t.Fatal("no traffic recorded")
			}
		})
	}
}

// TestServicePerShardLRUEviction pins eviction locality: with one slot
// per shard, two scenarios landing on the same shard evict each other
// while a scenario on another shard stays resident.
func TestServicePerShardLRUEviction(t *testing.T) {
	ctx := context.Background()
	svc := NewService(WithCacheCapacity(4), WithShards(4)) // one slot per shard

	// Probe seeds until we have two scenarios on one shard and a third
	// on a different shard.
	var sameA, sameB, other Scenario
	var haveSame, haveOther bool
	first := smallScenario("genome", 1, CkptSome)
	firstShard := shardIndexOf(svc, first.Key())
	sameA = first
	for seed := int64(2); seed < 200 && (!haveSame || !haveOther); seed++ {
		sc := smallScenario("genome", seed, CkptSome)
		if shardIndexOf(svc, sc.Key()) == firstShard {
			if !haveSame {
				sameB, haveSame = sc, true
			}
		} else if !haveOther {
			other, haveOther = sc, true
		}
	}
	if !haveSame || !haveOther {
		t.Fatal("could not find colliding and non-colliding scenarios in 200 seeds")
	}

	for _, sc := range []Scenario{other, sameA} {
		if _, err := svc.Plan(ctx, sc); err != nil {
			t.Fatal(err)
		}
	}
	// sameB lands on sameA's full one-slot shard: sameA must fall out,
	// other (different shard) must survive.
	if _, err := svc.Plan(ctx, sameB); err != nil {
		t.Fatal(err)
	}
	if !resident(svc, sameB) {
		t.Error("sameB should be resident in its shard")
	}
	if resident(svc, sameA) {
		t.Error("sameA survived eviction in a one-slot shard")
	}
	if !resident(svc, other) {
		t.Error("other-shard entry was evicted by traffic on a different shard")
	}
	st := svc.Stats()
	if st.Entries > st.Capacity {
		t.Fatalf("entries %d exceed capacity %d", st.Entries, st.Capacity)
	}
}

// TestServiceSingleflightCoalescing pins the per-entry coalescing
// under contention: many goroutines requesting the same cold scenario
// must share one planning flight — one miss, identical plan pointer
// for everyone, hits for the waiters.
func TestServiceSingleflightCoalescing(t *testing.T) {
	ctx := context.Background()
	for _, shards := range []int{1, 4, 16} {
		t.Run(fmt.Sprintf("shards=%d", shards), func(t *testing.T) {
			svc := NewService(WithShards(shards))
			sc := smallScenario("genome", 99, CkptSome)
			const goroutines = 16
			start := make(chan struct{})
			plans := make([]*Plan, goroutines)
			errs := make([]error, goroutines)
			var wg sync.WaitGroup
			for g := 0; g < goroutines; g++ {
				wg.Add(1)
				go func(g int) {
					defer wg.Done()
					<-start
					plans[g], errs[g] = svc.Plan(ctx, sc)
				}(g)
			}
			close(start)
			wg.Wait()
			for g, err := range errs {
				if err != nil {
					t.Fatalf("goroutine %d: %v", g, err)
				}
				if plans[g] != plans[0] {
					t.Fatalf("goroutine %d got a different plan instance — flight not coalesced", g)
				}
			}
			st := svc.Stats()
			if st.Misses != 1 {
				t.Errorf("misses = %d, want exactly 1 coalesced flight", st.Misses)
			}
			if st.Hits != goroutines-1 {
				t.Errorf("hits = %d, want %d waiters", st.Hits, goroutines-1)
			}
		})
	}
}
