package hanccr

import (
	"context"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"repro/internal/mspg"
	"repro/internal/pegasus"
)

// TestPlanFromScaffoldAllocs guards the parameter tail a structure-hit
// runs (clone, calibrate, rebuild, place, evaluate) against going back
// to copying the immutable M-SPG tree and graph topology and to
// allocating every segment law and edge of the segment DAG on its own.
// Before the tail stopped copying them, a montage-300 plan made 2 627
// allocations under CkptSome and 2 172 under ExitOnly; the bound is
// half of each.
func TestPlanFromScaffoldAllocs(t *testing.T) {
	ctx := context.Background()
	sf, err := buildScaffold(ctx, NewScenario(WithFamily("montage"), WithTasks(300)))
	if err != nil {
		t.Fatal(err)
	}
	for _, c := range []struct {
		st     Strategy
		parent float64
	}{
		{CkptSome, 2627},
		{ExitOnly, 2172},
	} {
		sc := NewScenario(WithFamily("montage"), WithTasks(300), WithStrategy(c.st), WithPFail(1e-3), WithCCR(0.1))
		allocs := testing.AllocsPerRun(20, func() {
			if _, err := planFromScaffold(ctx, sc, sf); err != nil {
				t.Fatal(err)
			}
		})
		t.Logf("%s: %.0f allocations per plan", c.st, allocs)
		if bound := c.parent / 2; allocs > bound {
			t.Errorf("%s: planFromScaffold makes %.0f allocations per plan, want at most %.0f", c.st, allocs, bound)
		}
	}
}

// TestBuildScaffoldAllocs guards a cold miss's generation and
// Algorithm 1 (buildScaffold) against going back to growing one
// adjacency list per task and per file one append at a time, and to
// building two maps per linearized subtree in Algorithm 1. Before the
// graph kept one dependency log and one packed index, a 300-task
// scaffold made 4 544 allocations for montage and 4 282 for cybershake;
// the bound is 80% of each.
func TestBuildScaffoldAllocs(t *testing.T) {
	ctx := context.Background()
	for _, c := range []struct {
		family string
		parent float64
	}{
		{"montage", 4544},
		{"cybershake", 4282},
	} {
		sc := NewScenario(WithFamily(c.family), WithTasks(300))
		allocs := testing.AllocsPerRun(20, func() {
			if _, err := buildScaffold(ctx, sc); err != nil {
				t.Fatal(err)
			}
		})
		t.Logf("%s: %.0f allocations per scaffold", c.family, allocs)
		if bound := 0.8 * c.parent; allocs > bound {
			t.Errorf("%s: buildScaffold makes %.0f allocations per scaffold, want at most %.0f", c.family, allocs, bound)
		}
	}
}

// TestWorkflowCloneAllocs guards the clone every structure-hit and
// sweep cell starts from against going back to copying topology: a
// clone copies only the file sizes and shares the tree, the task and
// file tables, the dependency log and the adjacency index, so it makes
// the same few allocations at any size. Before, a montage clone copied
// the task and file tables and the headers of four adjacency tables.
func TestWorkflowCloneAllocs(t *testing.T) {
	var counts []float64
	for _, n := range []int{300, 1000} {
		w, err := pegasus.Generate("montage", pegasus.Options{Tasks: n, Seed: 1})
		if err != nil {
			t.Fatal(err)
		}
		var c *mspg.Workflow // kept past the call, so the clone escapes as in the tail
		allocs := testing.AllocsPerRun(20, func() { c = w.Clone() })
		if c.G.NumTasks() != w.G.NumTasks() {
			t.Fatalf("montage-%d: clone has %d tasks, want %d", n, c.G.NumTasks(), w.G.NumTasks())
		}
		t.Logf("montage-%d: %.0f allocations per clone", n, allocs)
		counts = append(counts, allocs)
	}
	if counts[0] != counts[1] || counts[1] > 4 {
		t.Errorf("Workflow.Clone makes %v allocations at 300 and 1000 tasks, want the same count, at most 4", counts)
	}
}

// TestHandlerHitAllocs guards the merged job handler on the resident
// paths perfbench's hot-estimate workload times: a /v1/plan hit and a
// /v1/estimate Dodin hit, each served by NewHandler through an
// httptest recorder (the request and recorder are part of the count).
// The bounds are the measured counts, so a new allocation on either
// path fails the test.
func TestHandlerHitAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector's instrumentation allocates")
	}
	h := NewHandler(NewService())
	for _, c := range []struct {
		path, body string
		bound      float64
	}{
		{"/v1/plan", `{"family":"genome","tasks":40,"procs":3,"seed":7}`, 35},
		{"/v1/estimate", `{"family":"genome","tasks":40,"procs":3,"seed":7,"method":"Dodin"}`, 36},
	} {
		serve := func() *httptest.ResponseRecorder {
			rec := httptest.NewRecorder()
			h.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, c.path, strings.NewReader(c.body)))
			return rec
		}
		serve() // the cold miss that makes the plan (and its Dodin estimate) resident
		if rec := serve(); rec.Code != http.StatusOK || rec.Header().Get("X-Cache") != string(CacheHit) {
			t.Fatalf("%s: %d X-Cache %q: %s", c.path, rec.Code, rec.Header().Get("X-Cache"), rec.Body)
		}
		allocs := testing.AllocsPerRun(100, func() { serve() })
		t.Logf("%s hit: %.0f allocations per request", c.path, allocs)
		if allocs > c.bound {
			t.Errorf("%s hit makes %.0f allocations per request, want at most %.0f", c.path, allocs, c.bound)
		}
	}
}
