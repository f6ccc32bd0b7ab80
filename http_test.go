package hanccr

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"strings"
	"sync"
	"testing"
)

func postJSON(t *testing.T, client *http.Client, url, body string) (int, string, http.Header) {
	t.Helper()
	resp, err := client.Post(url, "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	blob, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return resp.StatusCode, string(blob), resp.Header
}

// TestHTTPPlanCacheHitByteIdentical drives cmd/serve's handler through
// httptest: the response body of a cache hit must be byte-identical to
// the cold miss that filled it — only the X-Cache header differs.
func TestHTTPPlanCacheHitByteIdentical(t *testing.T) {
	srv := httptest.NewServer(NewHandler(NewService()))
	defer srv.Close()
	req := `{"family":"genome","tasks":40,"procs":3,"seed":7}`

	status, cold, hdr := postJSON(t, srv.Client(), srv.URL+"/v1/plan", req)
	if status != http.StatusOK {
		t.Fatalf("cold plan: %d %s", status, cold)
	}
	if got := hdr.Get("X-Cache"); got != "miss" {
		t.Fatalf("cold X-Cache = %q", got)
	}
	status, warm, hdr := postJSON(t, srv.Client(), srv.URL+"/v1/plan", req)
	if status != http.StatusOK {
		t.Fatalf("warm plan: %d %s", status, warm)
	}
	if got := hdr.Get("X-Cache"); got != "hit" {
		t.Fatalf("warm X-Cache = %q", got)
	}
	if cold != warm {
		t.Fatalf("hit body differs from miss:\ncold: %s\nwarm: %s", cold, warm)
	}
	var pr PlanResponse
	if err := json.Unmarshal([]byte(cold), &pr); err != nil {
		t.Fatal(err)
	}
	if pr.Strategy != "CkptSome" || pr.ExpectedMakespan <= 0 || pr.Key == "" {
		t.Fatalf("implausible plan response: %+v", pr)
	}
}

// TestHTTPConcurrentMixedTraffic exercises the daemon under concurrent
// mixed plan/estimate/simulate traffic (run with -race via make check)
// and verifies every response — hit or miss, whatever the interleaving —
// is byte-identical to the serial reference answer for its request.
func TestHTTPConcurrentMixedTraffic(t *testing.T) {
	srv := httptest.NewServer(NewHandler(NewService(WithCacheCapacity(4))))
	defer srv.Close()

	requests := []struct{ path, body string }{
		{"/v1/plan", `{"family":"genome","tasks":40,"procs":3,"seed":7}`},
		{"/v1/plan", `{"family":"montage","tasks":40,"procs":3,"seed":7,"strategy":"CkptAll"}`},
		{"/v1/plan", `{"family":"ligo","tasks":40,"procs":3,"seed":7,"strategy":"CkptNone"}`},
		{"/v1/estimate", `{"family":"genome","tasks":40,"procs":3,"seed":7,"method":"Dodin"}`},
		{"/v1/estimate", `{"family":"montage","tasks":40,"procs":3,"seed":7,"method":"MonteCarlo","mc_trials":2000,"workers":2}`},
		{"/v1/simulate", `{"family":"genome","tasks":40,"procs":3,"seed":7,"trials":200,"workers":2}`},
		{"/v1/simulate", `{"family":"cybershake","tasks":40,"procs":3,"seed":7,"trials":200}`},
	}
	// Serial reference pass on a fresh service.
	refSrv := httptest.NewServer(NewHandler(NewService()))
	defer refSrv.Close()
	refs := make([]string, len(requests))
	for i, r := range requests {
		status, body, _ := postJSON(t, refSrv.Client(), refSrv.URL+r.path, r.body)
		if status != http.StatusOK {
			t.Fatalf("reference %s: %d %s", r.path, status, body)
		}
		refs[i] = body
	}

	const goroutines = 8
	const iters = 20
	var wg sync.WaitGroup
	errc := make(chan error, goroutines)
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for it := 0; it < iters; it++ {
				i := (g*3 + it) % len(requests)
				r := requests[i]
				resp, err := srv.Client().Post(srv.URL+r.path, "application/json", strings.NewReader(r.body))
				if err != nil {
					errc <- err
					return
				}
				body, err := io.ReadAll(resp.Body)
				resp.Body.Close()
				if err != nil {
					errc <- err
					return
				}
				if resp.StatusCode != http.StatusOK {
					errc <- fmt.Errorf("%s: %d %s", r.path, resp.StatusCode, body)
					return
				}
				if !bytes.Equal(body, []byte(refs[i])) {
					errc <- fmt.Errorf("%s response differs from serial reference:\ngot:  %s\nwant: %s", r.path, body, refs[i])
					return
				}
			}
		}(g)
	}
	wg.Wait()
	close(errc)
	for err := range errc {
		t.Fatal(err)
	}
}

// TestHTTPHealthz checks liveness plus cache statistics plumbing.
func TestHTTPHealthz(t *testing.T) {
	svc := NewService()
	srv := httptest.NewServer(NewHandler(svc))
	defer srv.Close()
	postJSON(t, srv.Client(), srv.URL+"/v1/plan", `{"family":"genome","tasks":40,"procs":3}`)

	resp, err := srv.Client().Get(srv.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var hr HealthResponse
	if err := json.NewDecoder(resp.Body).Decode(&hr); err != nil {
		t.Fatal(err)
	}
	if hr.Status != "ok" || hr.Cache.Entries != 1 || hr.Cache.Misses != 1 {
		t.Fatalf("healthz = %+v", hr)
	}
}

// TestHTTPErrorStatuses pins the error contract of the API.
func TestHTTPErrorStatuses(t *testing.T) {
	srv := httptest.NewServer(NewHandler(NewService()))
	defer srv.Close()
	cases := []struct {
		path, body string
		status     int
	}{
		{"/v1/plan", `{"family":"nope"}`, http.StatusBadRequest},
		{"/v1/plan", `{"procs":-1}`, http.StatusBadRequest},
		{"/v1/plan", `{"strategy":"CkptMaybe"}`, http.StatusBadRequest},
		{"/v1/plan", `not json`, http.StatusBadRequest},
		{"/v1/plan", fmt.Sprintf(`{"workflow_json":%s}`, nonMSPGDoc), http.StatusUnprocessableEntity},
		{"/v1/estimate", `{"family":"genome","tasks":40,"procs":3,"method":"Oracle"}`, http.StatusBadRequest},
	}
	for _, tc := range cases {
		status, body, _ := postJSON(t, srv.Client(), srv.URL+tc.path, tc.body)
		if status != tc.status {
			t.Errorf("%s %s: status %d, want %d (%s)", tc.path, tc.body, status, tc.status, body)
		}
		if !strings.Contains(body, "error") {
			t.Errorf("%s: error body missing error field: %s", tc.path, body)
		}
	}
	// Non-POST on /v1 endpoints.
	resp, err := srv.Client().Get(srv.URL + "/v1/plan")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusMethodNotAllowed {
		t.Errorf("GET /v1/plan: %d, want 405", resp.StatusCode)
	}
}

// TestHTTPNegativeTrialsRejected pins the 400 contract for nonsense
// trial counts (previously a 200 with zeroed fields).
func TestHTTPNegativeTrialsRejected(t *testing.T) {
	srv := httptest.NewServer(NewHandler(NewService()))
	defer srv.Close()
	for _, tc := range []struct{ path, body string }{
		{"/v1/simulate", `{"family":"genome","tasks":40,"procs":3,"trials":-5}`},
		{"/v1/estimate", `{"family":"genome","tasks":40,"procs":3,"method":"MonteCarlo","mc_trials":-1}`},
	} {
		status, body, _ := postJSON(t, srv.Client(), srv.URL+tc.path, tc.body)
		if status != http.StatusBadRequest {
			t.Errorf("%s %s: status %d, want 400 (%s)", tc.path, tc.body, status, body)
		}
	}
}

// TestHTTPScenarioSizeCap pins the size caps: a generated task count,
// a processor count or a sweep size just above its cap is a 400 that
// never reaches the planner (the miss counter stays at 0), and an
// injected document one task above the cap is a 400 too.
func TestHTTPScenarioSizeCap(t *testing.T) {
	svc := NewService()
	srv := httptest.NewServer(NewHandler(svc))
	defer srv.Close()
	tasks, procs := maxScenarioTasks+1, maxScenarioProcs+1
	for _, tc := range []struct{ path, body string }{
		{"/v1/plan", fmt.Sprintf(`{"family":"genome","tasks":%d}`, tasks)},
		{"/v1/plan", fmt.Sprintf(`{"family":"genome","tasks":10,"procs":%d}`, procs)},
		{"/v1/estimate", fmt.Sprintf(`{"family":"genome","tasks":10,"procs":%d,"method":"MonteCarlo"}`, procs)},
		{"/v1/simulate", fmt.Sprintf(`{"family":"ligo","tasks":%d,"procs":3}`, tasks)},
		{"/v1/sweep", fmt.Sprintf(`{"family":"genome","sizes":[50,%d],"procs":[3]}`, tasks)},
		{"/v1/sweep", fmt.Sprintf(`{"family":"genome","sizes":[50],"procs":[3,%d]}`, procs)},
	} {
		status, body, _ := postJSON(t, srv.Client(), srv.URL+tc.path, tc.body)
		if status != http.StatusBadRequest || !strings.Contains(body, "above the limit") {
			t.Errorf("%s %s: status %d, want 400 naming the limit (%s)", tc.path, tc.body, status, body)
		}
	}
	if m := svc.Stats().Misses; m != 0 {
		t.Fatalf("over-cap requests reached the planner: %d misses", m)
	}
	for _, sc := range []Scenario{
		NewScenario(WithTasks(tasks)),
		NewScenario(WithTasks(10), WithProcs(procs)),
	} {
		if err := sc.Validate(); !errors.Is(err, ErrBadScenario) {
			t.Errorf("Validate: %v, want ErrBadScenario", err)
		}
	}

	var doc strings.Builder
	doc.WriteString(`{"tasks":[`)
	for i := 0; i < tasks; i++ {
		if i > 0 {
			doc.WriteByte(',')
		}
		fmt.Fprintf(&doc, `{"id":%d,"name":"t%d","weight":1}`, i, i)
	}
	doc.WriteString(`],"files":[]}`)
	status, body, _ := postJSON(t, srv.Client(), srv.URL+"/v1/plan", fmt.Sprintf(`{"procs":3,"workflow_json":%s}`, doc.String()))
	if status != http.StatusBadRequest || !strings.Contains(body, "above the limit") {
		t.Errorf("document of %d tasks: status %d, want 400 naming the limit (%.200s)", tasks, status, body)
	}
}

// TestHTTPMethodContract is the satellite method-contract test: the
// read-only endpoints answer GET and reject every other verb with 405
// plus an Allow header (healthz used to accept POST and DELETE).
func TestHTTPMethodContract(t *testing.T) {
	srv := httptest.NewServer(NewHandler(NewService()))
	defer srv.Close()

	for _, tc := range []struct {
		method, path string
		wantStatus   int
	}{
		{http.MethodGet, "/healthz", http.StatusOK},
		{http.MethodPost, "/healthz", http.StatusMethodNotAllowed},
		{http.MethodPut, "/healthz", http.StatusMethodNotAllowed},
		{http.MethodDelete, "/healthz", http.StatusMethodNotAllowed},
		{http.MethodGet, "/v1/stats", http.StatusOK},
		{http.MethodPost, "/v1/stats", http.StatusMethodNotAllowed},
		{http.MethodPut, "/v1/stats", http.StatusMethodNotAllowed},
		{http.MethodDelete, "/v1/stats", http.StatusMethodNotAllowed},
		// /v1/store is GET-only too; without -store a GET is 404.
		{http.MethodGet, "/v1/store", http.StatusNotFound},
		{http.MethodPost, "/v1/store", http.StatusMethodNotAllowed},
		{http.MethodDelete, "/v1/store", http.StatusMethodNotAllowed},
	} {
		req, err := http.NewRequest(tc.method, srv.URL+tc.path, nil)
		if err != nil {
			t.Fatal(err)
		}
		resp, err := srv.Client().Do(req)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != tc.wantStatus {
			t.Errorf("%s %s = %d, want %d", tc.method, tc.path, resp.StatusCode, tc.wantStatus)
		}
		if tc.wantStatus == http.StatusMethodNotAllowed {
			if got := resp.Header.Get("Allow"); got != http.MethodGet {
				t.Errorf("%s %s: Allow = %q, want GET", tc.method, tc.path, got)
			}
		}
	}
}

// TestHTTPRecordFailureLogged is the discarded-error regression test
// for the durable log: a store record that cannot be written must
// reach the service log while the planning request that produced it
// still succeeds.
func TestHTTPRecordFailureLogged(t *testing.T) {
	var log logRecorder
	svc := NewService(WithStore(t.TempDir()), WithServiceLogf(log.logf))
	if err := svc.CloseStore(); err != nil { // every later Put fails
		t.Fatal(err)
	}
	srv := httptest.NewServer(NewHandler(svc))
	defer srv.Close()

	status, body, _ := postJSON(t, srv.Client(), srv.URL+"/v1/plan",
		`{"family":"genome","tasks":40,"procs":3,"seed":1}`)
	if status != http.StatusOK {
		t.Fatalf("plan must survive a store write failure, got %d %s", status, body)
	}
	if !log.has("store: write", "file already closed") {
		t.Fatalf("record failure never reached the log; logged: %q", log.lines)
	}
}

// TestHTTPStoreEndpoint pins GET /v1/store: the snapshot body is every
// segment file verbatim behind its header line, a (segment, offset)
// cursor resumes mid-segment, and a bad cursor is a 400 — the contract
// serve -tail's follower builds on.
func TestHTTPStoreEndpoint(t *testing.T) {
	svc := NewService(WithStore(t.TempDir()))
	defer svc.CloseStore()
	st := svc.store
	st.segBytes = 512 // a record is ~400 bytes: three of them rotate
	srv := httptest.NewServer(NewHandler(svc))
	defer srv.Close()

	for seed := 1; seed <= 3; seed++ {
		body := fmt.Sprintf(`{"family":"genome","tasks":40,"procs":3,"seed":%d}`, seed)
		if status, resp, _ := postJSON(t, srv.Client(), srv.URL+"/v1/plan", body); status != http.StatusOK {
			t.Fatalf("plan: %d %s", status, resp)
		}
	}
	segs := st.segments()
	if len(segs) < 2 {
		t.Fatalf("store holds segments %v, want a rotation", segs)
	}
	// The snapshot is every segment behind its header; the resume
	// cursor sits after the first record of the first segment.
	var want, wantResume string
	var off int
	for i, seq := range segs {
		blob, err := os.ReadFile(st.segPath(seq))
		if err != nil {
			t.Fatal(err)
		}
		want += headerLine(seq, 0) + "\n" + string(blob)
		if i == 0 {
			off = bytes.IndexByte(blob, '\n') + 1
			wantResume = headerLine(seq, int64(off)) + "\n" + string(blob[off:])
		} else {
			wantResume += headerLine(seq, 0) + "\n" + string(blob)
		}
	}

	get := func(query string) (int, string, http.Header) {
		t.Helper()
		resp, err := srv.Client().Get(srv.URL + "/v1/store" + query)
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		blob, err := io.ReadAll(resp.Body)
		if err != nil {
			t.Fatal(err)
		}
		return resp.StatusCode, string(blob), resp.Header
	}

	status, body, hdr := get("")
	if status != http.StatusOK || body != want {
		t.Fatalf("GET /v1/store = %d:\n%q\nwant the segments verbatim behind headers:\n%q", status, body, want)
	}
	if got := hdr.Get("Content-Type"); got != ndjsonContentType {
		t.Fatalf("Content-Type = %q, want %q", got, ndjsonContentType)
	}
	if status, body, _ = get(fmt.Sprintf("?segment=%d&offset=%d", segs[0], off)); status != http.StatusOK || body != wantResume {
		t.Fatalf("cursor resume = %d %q, want %q", status, body, wantResume)
	}
	for _, bad := range []string{"?offset=abc", "?offset=-1", "?segment=-1", "?segment=x&offset=0"} {
		if status, _, _ = get(bad); status != http.StatusBadRequest {
			t.Fatalf("bad cursor %s = %d, want 400", bad, status)
		}
	}

	plain := httptest.NewServer(NewHandler(NewService()))
	defer plain.Close()
	resp, err := plain.Client().Get(plain.URL + "/v1/store")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusNotFound {
		t.Fatalf("GET /v1/store without a store = %d, want 404", resp.StatusCode)
	}
}
