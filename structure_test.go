package hanccr

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"reflect"
	"runtime"
	"testing"
)

// paramVariants returns n parameter-only variants of one structure:
// same family/tasks/procs/seed, distinct (pfail, ccr, strategy) tails.
func paramVariants(fam string, seed int64, n int) []Scenario {
	strategies := []Strategy{CkptSome, CkptAll, CkptNone}
	out := make([]Scenario, n)
	for i := range out {
		out[i] = NewScenario(
			WithFamily(fam), WithTasks(40), WithProcs(3), WithSeed(seed),
			WithPFail(0.001*float64(1+i%4)), WithCCR(0.01*float64(1+i/4)),
			WithStrategy(strategies[i%len(strategies)]),
		)
	}
	return out
}

// TestScaffoldSharedAcrossParamVariants pins the scaffold cache's
// soundness premise directly at the builder: every parameter variant of
// one structure builds the identical scaffold — same superchain
// processor assignment, same chain archive, same redundant-edge count —
// so reusing the first variant's scaffold for the rest can never change
// a schedule.
func TestScaffoldSharedAcrossParamVariants(t *testing.T) {
	ctx := context.Background()
	variants := paramVariants("genome", 7, 6)
	base, err := buildScaffold(ctx, variants[0])
	if err != nil {
		t.Fatal(err)
	}
	if len(base.Chains) == 0 || len(base.Procs) != len(base.Chains) {
		t.Fatalf("implausible scaffold: %d procs, %d chains", len(base.Procs), len(base.Chains))
	}
	for i, sc := range variants[1:] {
		if sc.StructureKey() != variants[0].StructureKey() {
			t.Fatalf("variant %d is not a parameter-only variant", i+1)
		}
		sf, err := buildScaffold(ctx, sc)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(sf.Procs, base.Procs) || !reflect.DeepEqual(sf.Chains, base.Chains) {
			t.Fatalf("variant %d built a different schedule scaffold", i+1)
		}
		if sf.redundant != base.redundant {
			t.Fatalf("variant %d: redundant = %d, want %d", i+1, sf.redundant, base.redundant)
		}
	}
}

// TestStructureHitBitIdentical is the fast path's core guarantee: plans
// served via a resident scaffold are byte-identical (the persistent
// store's canonical encoding) to the same scenarios planned by a
// scaffold-free reference service, across shard counts and batch worker
// counts. Run under -race by make check, this is also the data-race
// proof for the scaffold cache and the scaffold-sharing planning tail.
func TestStructureHitBitIdentical(t *testing.T) {
	ctx := context.Background()
	// Two structures × 6 parameter variants each: every combo below sees
	// exactly 2 scaffold builds and 10 structure-hits (each scenario's
	// plan key is unique, so per structure one request initiates the
	// build — serially the first, concurrently whichever wins — and the
	// rest find or coalesce onto it).
	var scenarios []Scenario
	scenarios = append(scenarios, paramVariants("genome", 3, 6)...)
	scenarios = append(scenarios, paramVariants("montage", 5, 6)...)

	// Scaffold-free reference: WithPlanner(NewPlan) disables the fast
	// path without otherwise changing the service.
	refSvc := NewService(WithPlanner(NewPlan))
	if st := refSvc.Stats(); st.StructureCapacity != 0 {
		t.Fatalf("WithPlanner service still has a structure cache: %+v", st)
	}
	refs := make([][]byte, len(scenarios))
	for i, sc := range scenarios {
		p, outcome, err := refSvc.PlanDetail(ctx, sc)
		if err != nil {
			t.Fatal(err)
		}
		if outcome != CacheMiss {
			t.Fatalf("reference request %d: outcome %q, want miss", i, outcome)
		}
		refs[i] = planBytes(t, p)
	}

	jobs := make([]Job, len(scenarios))
	for i, sc := range scenarios {
		jobs[i] = Job{Kind: JobPlan, Scenario: sc}
	}
	workerCounts := []int{1, 4}
	if n := runtime.NumCPU(); n != 1 && n != 4 {
		workerCounts = append(workerCounts, n)
	}
	for _, shards := range []int{1, 4} {
		for _, workers := range workerCounts {
			t.Run(fmt.Sprintf("shards=%d/workers=%d", shards, workers), func(t *testing.T) {
				svc := NewService(WithShards(shards))
				results, err := svc.Batch(ctx, jobs, WithBatchWorkers(workers))
				if err != nil {
					t.Fatal(err)
				}
				for i, r := range results {
					if r.Err != nil {
						t.Fatal(r.Err)
					}
					if !bytes.Equal(planBytes(t, r.Plan), refs[i]) {
						t.Fatalf("scenario %d: fast-path plan differs from scaffold-free reference", i)
					}
					if r.Outcome == CacheHit {
						t.Fatalf("scenario %d: full hit on distinct keys", i)
					}
				}
				st := svc.Stats()
				if want := uint64(len(scenarios) - 2); st.StructureHits != want {
					t.Fatalf("structure_hits = %d, want %d (misses %d)", st.StructureHits, want, st.Misses)
				}
				if st.StructureEntries != 2 {
					t.Fatalf("structure_entries = %d, want 2", st.StructureEntries)
				}
			})
		}
	}
}

// TestServicePlanDetailOutcomes walks one scenario family through the
// three-valued outcome contract: cold structure = miss, parameter
// variant = structure-hit, repeat = hit — with the stats counters
// moving in lockstep.
func TestServicePlanDetailOutcomes(t *testing.T) {
	ctx := context.Background()
	svc := NewService()
	base := smallScenario("genome", 7, CkptSome)
	variant := NewScenario(
		WithFamily("genome"), WithTasks(40), WithProcs(3), WithSeed(7),
		WithStrategy(CkptSome), WithPFail(0.01),
	)

	cold, outcome, err := svc.PlanDetail(ctx, base)
	if err != nil {
		t.Fatal(err)
	}
	if outcome != CacheMiss {
		t.Fatalf("cold outcome = %q, want miss", outcome)
	}
	near, outcome, err := svc.PlanDetail(ctx, variant)
	if err != nil {
		t.Fatal(err)
	}
	if outcome != CacheStructureHit {
		t.Fatalf("near-duplicate outcome = %q, want structure-hit", outcome)
	}
	if outcome == CacheHit {
		t.Fatal("a structure-hit must not report a hit: the plan was computed by this call")
	}
	if near == cold {
		t.Fatal("parameter variant returned the base plan instance")
	}
	warm, outcome, err := svc.PlanDetail(ctx, variant)
	if err != nil {
		t.Fatal(err)
	}
	if outcome != CacheHit || warm != near {
		t.Fatalf("repeat outcome = %q (same instance: %v), want hit of the same plan", outcome, warm == near)
	}
	st := svc.Stats()
	if st.Misses != 2 || st.Hits != 1 || st.StructureHits != 1 {
		t.Fatalf("stats = %+v, want 2 misses / 1 hit / 1 structure-hit", st)
	}
	if st.StructureEntries != 1 || st.StructureCapacity != DefaultStructureCacheCapacity {
		t.Fatalf("scaffold cache = %d/%d, want 1/%d", st.StructureEntries, st.StructureCapacity, DefaultStructureCacheCapacity)
	}
}

// TestStructureCacheDisabled pins the opt-out: WithStructureCache(0)
// restores the pre-split behavior exactly — every miss runs the full
// cold pipeline, no scaffold is cached, no outcome is a structure-hit —
// and the disabled service still answers bit-identically.
func TestStructureCacheDisabled(t *testing.T) {
	ctx := context.Background()
	svc := NewService(WithStructureCache(0))
	for i, sc := range paramVariants("genome", 9, 4) {
		p, outcome, err := svc.PlanDetail(ctx, sc)
		if err != nil {
			t.Fatal(err)
		}
		if outcome != CacheMiss {
			t.Fatalf("request %d: outcome = %q, want miss with the fast path disabled", i, outcome)
		}
		ref, err := NewPlan(ctx, sc)
		if err != nil {
			t.Fatal(err)
		}
		if p.ExpectedMakespan() != ref.ExpectedMakespan() {
			t.Fatalf("request %d: EM %.17g != reference %.17g", i, p.ExpectedMakespan(), ref.ExpectedMakespan())
		}
	}
	st := svc.Stats()
	if st.StructureHits != 0 || st.StructureEntries != 0 || st.StructureCapacity != 0 {
		t.Fatalf("disabled fast path left scaffold state: %+v", st)
	}
}

// TestStructureCacheBounded pins the scaffold LRU's capacity: with room
// for one scaffold, a second structure evicts the first, and replanning
// a variant of the evicted structure rebuilds (miss) instead of hitting.
func TestStructureCacheBounded(t *testing.T) {
	ctx := context.Background()
	svc := NewService(WithShards(1), WithStructureCache(1))
	a := paramVariants("genome", 1, 2)
	b := paramVariants("montage", 2, 1)

	if _, outcome, err := svc.PlanDetail(ctx, a[0]); err != nil || outcome != CacheMiss {
		t.Fatalf("a[0]: %q, %v", outcome, err)
	}
	if _, outcome, err := svc.PlanDetail(ctx, b[0]); err != nil || outcome != CacheMiss {
		t.Fatalf("b[0]: %q, %v", outcome, err)
	}
	if st := svc.Stats(); st.StructureEntries != 1 {
		t.Fatalf("structure_entries = %d, want 1 (capacity 1)", st.StructureEntries)
	}
	// a's scaffold was evicted by b's: a parameter variant of a is a
	// plain miss again (and re-warms the scaffold cache).
	if _, outcome, err := svc.PlanDetail(ctx, a[1]); err != nil || outcome != CacheMiss {
		t.Fatalf("a[1] after eviction: %q, %v (want miss)", outcome, err)
	}
	if st := svc.Stats(); st.StructureHits != 0 {
		t.Fatalf("structure_hits = %d, want 0", st.StructureHits)
	}
}

// TestHTTPXCacheThreeValues drives the three-valued X-Cache contract
// through the real handler: miss on a cold structure, structure-hit on
// a parameter variant, hit on a repeat — and the structure-hit body is
// byte-identical to the same request against a scaffold-free daemon.
func TestHTTPXCacheThreeValues(t *testing.T) {
	srv := httptest.NewServer(NewHandler(NewService()))
	defer srv.Close()
	refSrv := httptest.NewServer(NewHandler(NewService(WithPlanner(NewPlan))))
	defer refSrv.Close()

	cold := `{"family":"genome","tasks":40,"procs":3,"seed":7}`
	variant := `{"family":"genome","tasks":40,"procs":3,"seed":7,"pfail":0.01}`

	status, _, hdr := postJSON(t, srv.Client(), srv.URL+"/v1/plan", cold)
	if status != http.StatusOK || hdr.Get("X-Cache") != "miss" {
		t.Fatalf("cold: %d, X-Cache %q", status, hdr.Get("X-Cache"))
	}
	status, body, hdr := postJSON(t, srv.Client(), srv.URL+"/v1/plan", variant)
	if status != http.StatusOK || hdr.Get("X-Cache") != "structure-hit" {
		t.Fatalf("variant: %d, X-Cache %q", status, hdr.Get("X-Cache"))
	}
	status, refBody, refHdr := postJSON(t, refSrv.Client(), refSrv.URL+"/v1/plan", variant)
	if status != http.StatusOK || refHdr.Get("X-Cache") != "miss" {
		t.Fatalf("reference variant: %d, X-Cache %q", status, refHdr.Get("X-Cache"))
	}
	if body != refBody {
		t.Fatalf("structure-hit body differs from scaffold-free reference:\nfast: %s\nref:  %s", body, refBody)
	}
	status, repeat, hdr := postJSON(t, srv.Client(), srv.URL+"/v1/plan", variant)
	if status != http.StatusOK || hdr.Get("X-Cache") != "hit" {
		t.Fatalf("repeat: %d, X-Cache %q", status, hdr.Get("X-Cache"))
	}
	if repeat != body {
		t.Fatal("hit body differs from the structure-hit that filled it")
	}
}

// TestHTTPStatsNestedGroups pins the /v1/stats v3 schema: the version
// marker and exactly the four nested groups — the flat v1 keys that v2
// still emitted beside them are gone.
func TestHTTPStatsNestedGroups(t *testing.T) {
	svc := NewService()
	srv := httptest.NewServer(NewHandler(svc))
	defer srv.Close()

	// One miss + one structure-hit + one hit of known shape.
	for _, body := range []string{
		`{"family":"genome","tasks":40,"procs":3,"seed":7}`,
		`{"family":"genome","tasks":40,"procs":3,"seed":7,"pfail":0.01}`,
		`{"family":"genome","tasks":40,"procs":3,"seed":7,"pfail":0.01}`,
	} {
		if status, resp, _ := postJSON(t, srv.Client(), srv.URL+"/v1/plan", body); status != http.StatusOK {
			t.Fatalf("plan: %d %s", status, resp)
		}
	}

	resp, err := srv.Client().Get(srv.URL + "/v1/stats")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var got map[string]json.RawMessage
	if err := json.NewDecoder(resp.Body).Decode(&got); err != nil {
		t.Fatal(err)
	}
	if string(got["schema_version"]) != "3" {
		t.Fatalf("schema_version = %s, want 3", got["schema_version"])
	}
	var cache CacheGroup
	if err := json.Unmarshal(got["cache"], &cache); err != nil {
		t.Fatalf("cache group: %v", err)
	}
	if cache.Hits != 1 || cache.Misses != 2 || cache.Entries != 2 {
		t.Fatalf("cache group = %+v, want 1 hit / 2 misses / 2 entries", cache)
	}
	var structure StructureCacheGroup
	if err := json.Unmarshal(got["structure_cache"], &structure); err != nil {
		t.Fatalf("structure_cache group: %v", err)
	}
	if !structure.Enabled || structure.Hits != 1 || structure.Entries != 1 {
		t.Fatalf("structure_cache group = %+v, want enabled with 1 hit / 1 entry", structure)
	}
	for _, group := range []string{"store", "gate"} {
		if _, ok := got[group]; !ok {
			t.Fatalf("missing %q group", group)
		}
	}
	// The flat v1 keys were dropped at version 3.
	for _, flat := range []string{"hits", "misses", "entries", "capacity", "shed", "store_hits", "structure_hits"} {
		if _, ok := got[flat]; ok {
			t.Fatalf("deprecated flat key %q is still emitted", flat)
		}
	}
	if len(got) != 5 {
		t.Fatalf("stats body has keys %v, want schema_version plus the four groups", got)
	}
}

// TestHTTPEstimateParsesMethodCaseInsensitive pins satellite wiring:
// the estimate endpoint canonicalizes the method name via ParseMethod
// (echoing the canonical spelling) and rejects unknown methods with the
// typed 400, naming the accepted set.
func TestHTTPEstimateParsesMethodCaseInsensitive(t *testing.T) {
	srv := httptest.NewServer(NewHandler(NewService()))
	defer srv.Close()

	status, body, _ := postJSON(t, srv.Client(), srv.URL+"/v1/estimate",
		`{"family":"genome","tasks":40,"procs":3,"seed":7,"method":"dodin"}`)
	if status != http.StatusOK {
		t.Fatalf("lower-case method: %d %s", status, body)
	}
	var er EstimateResponse
	if err := json.Unmarshal([]byte(body), &er); err != nil {
		t.Fatal(err)
	}
	if er.Method != string(Dodin) {
		t.Fatalf("echoed method = %q, want canonical %q", er.Method, Dodin)
	}
	status, body, _ = postJSON(t, srv.Client(), srv.URL+"/v1/estimate",
		`{"family":"genome","tasks":40,"procs":3,"seed":7,"method":"Gaussian"}`)
	if status != http.StatusBadRequest {
		t.Fatalf("unknown method: %d %s, want 400", status, body)
	}
	status, body, _ = postJSON(t, srv.Client(), srv.URL+"/v1/plan",
		`{"family":"genome","tasks":40,"procs":3,"seed":7,"strategy":"ckptall"}`)
	if status != http.StatusOK {
		t.Fatalf("lower-case strategy: %d %s, want 200", status, body)
	}
	var pr PlanResponse
	if err := json.Unmarshal([]byte(body), &pr); err != nil {
		t.Fatal(err)
	}
	if pr.Strategy != string(CkptAll) {
		t.Fatalf("plan strategy = %q, want canonical %q", pr.Strategy, CkptAll)
	}
}
