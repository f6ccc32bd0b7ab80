package hanccr

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"net/http/httptest"
	"reflect"
	"runtime"
	"strings"
	"testing"

	"repro/internal/expt"
)

// batchTestJobs is a heterogeneous job mix over a small scenario set,
// including a failing scenario and an unknown kind in the middle so
// per-job error isolation is exercised.
func batchTestJobs() []Job {
	return []Job{
		{Kind: JobPlan, Scenario: smallScenario("genome", 7, CkptSome)},
		{Kind: JobEstimate, Scenario: smallScenario("genome", 7, CkptSome), Method: Dodin},
		{Kind: JobSimulate, Scenario: smallScenario("montage", 7, CkptSome),
			SimOptions: []SimOption{WithSimTrials(200), WithSimWorkers(2)}},
		{Kind: JobPlan, Scenario: NewScenario(WithFamily("nope"))},                      // invalid scenario
		{Kind: JobKind("transmogrify"), Scenario: smallScenario("genome", 7, CkptSome)}, // unknown kind
		{Kind: JobEstimate, Scenario: smallScenario("ligo", 9, CkptAll), Method: MonteCarlo,
			EstimateOptions: []EstimateOption{WithMCTrials(2000), WithEstimateWorkers(2)}},
		{Kind: JobPlan, Scenario: smallScenario("cybershake", 3, CkptNone)},
		{Kind: JobSimulate, Scenario: smallScenario("genome", 7, CkptSome),
			SimOptions: []SimOption{WithSimTrials(200)}},
		{Kind: JobPlan, Scenario: smallScenario("genome", 7, CkptSome)}, // duplicate: cache hit
	}
}

// TestServiceBatchMatchesSerialReference pins Service.Batch to the
// serial single-request reference for every shard count × worker count
// combination: slot i of a batch must hold exactly what sequential
// single calls would have produced, and per-job failures must not
// disturb their neighbours.
func TestServiceBatchMatchesSerialReference(t *testing.T) {
	ctx := context.Background()
	jobs := batchTestJobs()

	// Serial reference: one fresh unsharded service, jobs in order.
	refSvc := NewService(WithShards(1))
	refs := make([]JobResult, len(jobs))
	for i, j := range jobs {
		refs[i] = refSvc.runJob(ctx, j)
	}
	if refs[3].Err == nil || refs[4].Err == nil {
		t.Fatal("reference failing jobs did not fail")
	}

	for _, shards := range []int{1, 4, 16} {
		for _, workers := range []int{1, runtime.NumCPU()} {
			t.Run(fmt.Sprintf("shards=%d/workers=%d", shards, workers), func(t *testing.T) {
				svc := NewService(WithShards(shards))
				got, err := svc.Batch(ctx, jobs, WithBatchWorkers(workers))
				if err != nil {
					t.Fatal(err)
				}
				if len(got) != len(refs) {
					t.Fatalf("got %d results, want %d", len(got), len(refs))
				}
				for i := range refs {
					want := refs[i]
					g := got[i]
					if (g.Err == nil) != (want.Err == nil) {
						t.Fatalf("job %d: err %v, want %v", i, g.Err, want.Err)
					}
					if want.Err != nil {
						if g.Err.Error() != want.Err.Error() {
							t.Fatalf("job %d: err %q, want %q", i, g.Err, want.Err)
						}
						continue
					}
					if g.Key != want.Key || g.Kind != want.Kind {
						t.Fatalf("job %d: key/kind diverge", i)
					}
					if g.Plan.ExpectedMakespan() != want.Plan.ExpectedMakespan() {
						t.Fatalf("job %d: EM %.17g != ref %.17g", i, g.Plan.ExpectedMakespan(), want.Plan.ExpectedMakespan())
					}
					if g.Estimate != want.Estimate {
						t.Fatalf("job %d: estimate %.17g != ref %.17g", i, g.Estimate, want.Estimate)
					}
					if g.Sim != want.Sim {
						t.Fatalf("job %d: sim %+v != ref %+v", i, g.Sim, want.Sim)
					}
				}
			})
		}
	}
}

// TestServiceBatchInvalidJobsTyped pins the error taxonomy of failing
// batch jobs.
func TestServiceBatchInvalidJobsTyped(t *testing.T) {
	svc := NewService()
	got, err := svc.Batch(context.Background(), batchTestJobs())
	if err != nil {
		t.Fatal(err)
	}
	if !errors.Is(got[3].Err, ErrBadScenario) {
		t.Errorf("invalid scenario: %v", got[3].Err)
	}
	if !errors.Is(got[4].Err, ErrBadScenario) || !strings.Contains(got[4].Err.Error(), "transmogrify") {
		t.Errorf("unknown kind: %v", got[4].Err)
	}
}

// batchWire is the decoded shape of a /v1/batch response with the
// per-job payloads kept as raw bytes, so byte-identity against the
// single-endpoint bodies can be asserted exactly.
type batchWire struct {
	Results []struct {
		Plan     json.RawMessage `json:"plan"`
		Estimate json.RawMessage `json:"estimate"`
		Simulate json.RawMessage `json:"simulate"`
		Error    string          `json:"error"`
		Status   int             `json:"status"`
	} `json:"results"`
}

// TestHTTPBatchByteIdenticalToSingleEndpoints posts the same work once
// as individual /v1/plan|estimate|simulate requests and once as one
// /v1/batch, across shard counts {1,4,16} and workers {1, NumCPU}, and
// requires each batch slot's payload to be byte-identical to the
// single-endpoint response body.
func TestHTTPBatchByteIdenticalToSingleEndpoints(t *testing.T) {
	singles := []struct{ path, kind, body string }{
		{"/v1/plan", "plan", `{"family":"genome","tasks":40,"procs":3,"seed":7}`},
		{"/v1/estimate", "estimate", `{"family":"genome","tasks":40,"procs":3,"seed":7,"method":"Dodin"}`},
		{"/v1/simulate", "simulate", `{"family":"montage","tasks":40,"procs":3,"seed":7,"trials":200,"workers":2}`},
		{"/v1/estimate", "estimate", `{"family":"ligo","tasks":40,"procs":3,"seed":9,"method":"MonteCarlo","mc_trials":2000}`},
		{"/v1/plan", "plan", `{"family":"cybershake","tasks":40,"procs":3,"seed":3,"strategy":"CkptNone"}`},
		// Lower-case names: the slot echoes the canonical method and
		// strategy exactly as the single endpoint does.
		{"/v1/estimate", "estimate", `{"family":"genome","tasks":40,"procs":3,"seed":7,"method":"dodin"}`},
		{"/v1/plan", "plan", `{"family":"montage","tasks":40,"procs":3,"seed":5,"strategy":"ckptall"}`},
	}
	refSrv := httptest.NewServer(NewHandler(NewService(WithShards(1))))
	defer refSrv.Close()
	refBodies := make([]string, len(singles))
	for i, s := range singles {
		status, body, _ := postJSON(t, refSrv.Client(), refSrv.URL+s.path, s.body)
		if status != http.StatusOK {
			t.Fatalf("reference %s: %d %s", s.path, status, body)
		}
		refBodies[i] = body
	}

	var jobs []string
	for _, s := range singles {
		jobs = append(jobs, fmt.Sprintf(`{"kind":%q,%s`, s.kind, s.body[1:]))
	}
	for _, shards := range []int{1, 4, 16} {
		for _, workers := range []int{1, runtime.NumCPU()} {
			t.Run(fmt.Sprintf("shards=%d/workers=%d", shards, workers), func(t *testing.T) {
				srv := httptest.NewServer(NewHandler(NewService(WithShards(shards))))
				defer srv.Close()
				batchBody := fmt.Sprintf(`{"workers":%d,"jobs":[%s]}`, workers, strings.Join(jobs, ","))
				status, body, _ := postJSON(t, srv.Client(), srv.URL+"/v1/batch", batchBody)
				if status != http.StatusOK {
					t.Fatalf("batch: %d %s", status, body)
				}
				var wire batchWire
				if err := json.Unmarshal([]byte(body), &wire); err != nil {
					t.Fatal(err)
				}
				if len(wire.Results) != len(singles) {
					t.Fatalf("%d results, want %d", len(wire.Results), len(singles))
				}
				for i, res := range wire.Results {
					if res.Error != "" {
						t.Fatalf("job %d failed: %s", i, res.Error)
					}
					var payload json.RawMessage
					switch singles[i].kind {
					case "plan":
						payload = res.Plan
					case "estimate":
						payload = res.Estimate
					default:
						payload = res.Simulate
					}
					want := bytes.TrimSpace([]byte(refBodies[i]))
					if !bytes.Equal(payload, want) {
						t.Errorf("job %d payload differs from single %s:\nbatch:  %s\nsingle: %s",
							i, singles[i].path, payload, want)
					}
				}
			})
		}
	}
}

// TestUnknownMethodRejectedBeforePlanning pins that an unknown
// estimator is rejected before any planning, on every entry point: a
// /v1/batch slot and /v1/estimate answer 400, Service.Batch and
// Service.Estimate return ErrUnknownMethod, and none of them plans
// (Stats().Misses stays put, nothing becomes resident).
func TestUnknownMethodRejectedBeforePlanning(t *testing.T) {
	ctx := context.Background()
	svc := NewService()
	srv := httptest.NewServer(NewHandler(svc))
	defer srv.Close()
	const scenario = `"family":"genome","tasks":40,"procs":3,"seed":7`
	// One resident plan, so a wrongly planned job would show as a second
	// miss rather than the first.
	if status, body, _ := postJSON(t, srv.Client(), srv.URL+"/v1/plan", `{`+scenario+`}`); status != http.StatusOK {
		t.Fatalf("plan: %d %s", status, body)
	}
	unchanged := func(entry string) {
		t.Helper()
		if st := svc.Stats(); st.Misses != 1 || st.Entries != 1 {
			t.Fatalf("%s: stats %+v, want the 1 miss and 1 entry of the priming plan", entry, st)
		}
	}
	other := `"family":"montage","tasks":40,"procs":3,"seed":7`

	status, body, _ := postJSON(t, srv.Client(), srv.URL+"/v1/batch", `{"jobs":[{"kind":"estimate",`+other+`,"method":"Oracle"}]}`)
	var wire batchWire
	if err := json.Unmarshal([]byte(body), &wire); err != nil || status != http.StatusOK || len(wire.Results) != 1 {
		t.Fatalf("batch: %d %s (%v)", status, body, err)
	}
	if res := wire.Results[0]; res.Status != http.StatusBadRequest || !strings.Contains(res.Error, "Oracle") {
		t.Fatalf("batch slot = %d %q, want 400 naming the method", res.Status, res.Error)
	}
	unchanged("/v1/batch slot")

	if status, body, _ := postJSON(t, srv.Client(), srv.URL+"/v1/estimate", `{`+other+`,"method":"Oracle"}`); status != http.StatusBadRequest {
		t.Fatalf("/v1/estimate: %d %s, want 400", status, body)
	}
	unchanged("/v1/estimate")

	sc := smallScenario("montage", 7, CkptSome)
	got, err := svc.Batch(ctx, []Job{{Kind: JobEstimate, Scenario: sc, Method: "Oracle"}})
	if err != nil {
		t.Fatal(err)
	}
	if !errors.Is(got[0].Err, ErrUnknownMethod) || got[0].Plan != nil {
		t.Fatalf("Service.Batch job: err %v plan %v, want ErrUnknownMethod and no plan", got[0].Err, got[0].Plan)
	}
	unchanged("Service.Batch job")

	if _, err := svc.Estimate(ctx, sc, "Oracle"); !errors.Is(err, ErrUnknownMethod) {
		t.Fatalf("Service.Estimate: %v, want ErrUnknownMethod", err)
	}
	unchanged("Service.Estimate")
}

// TestHTTPPlanIgnoresJobFields pins that /v1/plan takes its kind from
// the path: a body that also carries another kind and that kind's
// tuning fields answers exactly the plain PlanResponse bytes.
func TestHTTPPlanIgnoresJobFields(t *testing.T) {
	srv := httptest.NewServer(NewHandler(NewService()))
	defer srv.Close()
	const scenario = `"family":"genome","tasks":40,"procs":3,"seed":7`
	status, plain, _ := postJSON(t, srv.Client(), srv.URL+"/v1/plan", `{`+scenario+`}`)
	if status != http.StatusOK {
		t.Fatalf("plain plan: %d %s", status, plain)
	}
	status, loaded, hdr := postJSON(t, srv.Client(), srv.URL+"/v1/plan",
		`{`+scenario+`,"kind":"simulate","method":"Oracle","trials":99000000,"mc_trials":5}`)
	if status != http.StatusOK {
		t.Fatalf("plan with job fields: %d %s", status, loaded)
	}
	if loaded != plain {
		t.Fatalf("plan with job fields answered\n%s\nwant the plain plan\n%s", loaded, plain)
	}
	if got := hdr.Get("X-Cache"); got != string(CacheHit) {
		t.Fatalf("X-Cache = %q, want hit", got)
	}
}

// TestBatchJobRequestCoversSingleRequests guards decoding the single
// endpoints into the batch job type: every field of EstimateRequest
// and SimulateRequest must exist in BatchJobRequest with the same JSON
// name and type, or a single-endpoint field would silently be dropped.
func TestBatchJobRequestCoversSingleRequests(t *testing.T) {
	union := reflect.TypeOf(BatchJobRequest{})
	jsonName := func(f reflect.StructField) string {
		name, _, _ := strings.Cut(f.Tag.Get("json"), ",")
		return name
	}
	for _, single := range []reflect.Type{reflect.TypeOf(EstimateRequest{}), reflect.TypeOf(SimulateRequest{})} {
		for i := 0; i < single.NumField(); i++ {
			f := single.Field(i)
			u, ok := union.FieldByName(f.Name)
			switch {
			case !ok || len(u.Index) != 1:
				t.Errorf("%s.%s has no top-level BatchJobRequest field", single.Name(), f.Name)
			case u.Type != f.Type || u.Anonymous != f.Anonymous || jsonName(u) != jsonName(f):
				t.Errorf("%s.%s is %v json:%q, BatchJobRequest.%s is %v json:%q",
					single.Name(), f.Name, f.Type, jsonName(f), u.Name, u.Type, jsonName(u))
			}
		}
	}
}

// TestHTTPBatchErrors pins the batch endpoint's request-level and
// per-job error contract.
func TestHTTPBatchErrors(t *testing.T) {
	srv := httptest.NewServer(NewHandler(NewService()))
	defer srv.Close()

	// Request-level failures: no jobs, and an aggregate trial demand
	// above the batch cap even though every job is under the per-job cap.
	overAggregate := `{"jobs":[` + strings.Repeat(`{"kind":"simulate","family":"genome","trials":9900000},`, 10) +
		`{"kind":"simulate","family":"genome","trials":9900000}]}`
	for _, body := range []string{`{}`, `{"jobs":[]}`, overAggregate} {
		status, resp, _ := postJSON(t, srv.Client(), srv.URL+"/v1/batch", body)
		if status != http.StatusBadRequest {
			t.Errorf("batch %.60s: status %d, want 400 (%s)", body, status, resp)
		}
	}

	// Per-job failures leave the neighbouring jobs intact.
	body := `{"jobs":[
		{"kind":"plan","family":"genome","tasks":40,"procs":3},
		{"kind":"plan","family":"nope"},
		{"kind":"frobnicate","family":"genome"},
		{"kind":"simulate","family":"genome","tasks":40,"procs":3,"trials":99000000},
		{"kind":"estimate","family":"genome","tasks":40,"procs":3,"method":"Dodin"}
	]}`
	status, resp, _ := postJSON(t, srv.Client(), srv.URL+"/v1/batch", body)
	if status != http.StatusOK {
		t.Fatalf("batch: %d %s", status, resp)
	}
	var wire batchWire
	if err := json.Unmarshal([]byte(resp), &wire); err != nil {
		t.Fatal(err)
	}
	if wire.Results[0].Plan == nil || wire.Results[4].Estimate == nil {
		t.Fatalf("healthy jobs did not succeed: %s", resp)
	}
	for _, i := range []int{1, 2, 3} {
		if wire.Results[i].Status != http.StatusBadRequest || wire.Results[i].Error == "" {
			t.Errorf("job %d: status %d error %q, want 400 with message", i, wire.Results[i].Status, wire.Results[i].Error)
		}
	}
}

// TestHTTPSweepByteIdenticalAndMatchesEngine runs a small §VI-style
// grid through /v1/sweep at workers 1 and NumCPU: the two response
// bodies must be byte-identical, and the rows must equal what the
// experiment engine computes directly.
func TestHTTPSweepByteIdenticalAndMatchesEngine(t *testing.T) {
	srv := httptest.NewServer(NewHandler(NewService()))
	defer srv.Close()
	grid := `"family":"genome","sizes":[40],"procs":[3],"pfails":[0.001],"ccr_min":0.001,"ccr_max":0.01,"points_per_decade":2`

	status, serial, _ := postJSON(t, srv.Client(), srv.URL+"/v1/sweep",
		fmt.Sprintf(`{%s,"workers":1}`, grid))
	if status != http.StatusOK {
		t.Fatalf("sweep workers=1: %d %s", status, serial)
	}
	status, parallel, _ := postJSON(t, srv.Client(), srv.URL+"/v1/sweep",
		fmt.Sprintf(`{%s,"workers":%d}`, grid, runtime.NumCPU()))
	if status != http.StatusOK {
		t.Fatalf("sweep workers=NumCPU: %d %s", status, parallel)
	}
	if serial != parallel {
		t.Fatalf("sweep response depends on the worker count:\nserial:   %s\nparallel: %s", serial, parallel)
	}

	var resp SweepResponse
	if err := json.Unmarshal([]byte(serial), &resp); err != nil {
		t.Fatal(err)
	}
	cfg := expt.SweepConfig{
		Family: "genome", Sizes: []int{40}, Procs: []int{3},
		PFails: []float64{0.001}, CCRMin: 0.001, CCRMax: 0.01, PointsPerDecade: 2,
	}
	rows, err := expt.RunSweep(context.Background(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	if resp.Cells != len(rows) || len(resp.Rows) != len(rows) {
		t.Fatalf("sweep returned %d rows, engine %d", len(resp.Rows), len(rows))
	}
	for i, row := range rows {
		got := resp.Rows[i]
		if got.CCR != row.CCR || got.EMSome != row.EMSome || got.EMAll != row.EMAll ||
			got.EMNone != row.EMNone || got.RelAll != row.RelAll || got.RelNone != row.RelNone {
			t.Fatalf("row %d diverges from the engine:\nhttp:   %+v\nengine: %+v", i, got, row)
		}
	}
}

// TestHTTPSweepErrors pins the sweep endpoint's validation contract.
func TestHTTPSweepErrors(t *testing.T) {
	srv := httptest.NewServer(NewHandler(NewService()))
	defer srv.Close()
	cases := []string{
		`{"family":"nope"}`,
		`{"family":"genome","pfails":[1.5]}`,
		`{"family":"genome","sizes":[0]}`,
		`{"family":"genome","procs":[-1]}`,
		`{"family":"genome","ccr_min":0.1,"ccr_max":0.001}`,
		`{"family":"genome","sizes":[40,50,60],"procs":[1,2,3,4,5,6,7,8,9,10],"points_per_decade":2000}`, // over the cell cap
	}
	for _, body := range cases {
		status, resp, _ := postJSON(t, srv.Client(), srv.URL+"/v1/sweep", body)
		if status != http.StatusBadRequest {
			t.Errorf("sweep %s: status %d, want 400 (%s)", body, status, resp)
		}
	}
}
