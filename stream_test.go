package hanccr

import (
	"bufio"
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"runtime"
	"strings"
	"sync/atomic"
	"testing"
	"time"
)

// TestSweepConfigValidation is the table-driven contract of
// SweepRequest.sweepConfig: what is rejected, with which message, and
// at which cell ceiling.
func TestSweepConfigValidation(t *testing.T) {
	cases := []struct {
		name    string
		req     SweepRequest
		cap     int
		wantErr string // substring; "" means valid
	}{
		{"defaults are the paper grid", SweepRequest{}, maxSweepCells, ""},
		{"unknown family", SweepRequest{Family: "nope"}, maxSweepCells, "unknown family"},
		{"empty sizes list", SweepRequest{Sizes: []int{}}, maxSweepCells, "sweep grid is empty"},
		{"empty procs list", SweepRequest{Procs: []int{}}, maxSweepCells, "sweep grid is empty"},
		{"empty pfails list", SweepRequest{PFails: []float64{}}, maxSweepCells, "sweep grid is empty"},
		{"zero size", SweepRequest{Sizes: []int{0}}, maxSweepCells, "at least one task"},
		{"negative procs", SweepRequest{Procs: []int{-1}}, maxSweepCells, "at least one processor"},
		{"pfail at one", SweepRequest{PFails: []float64{1}}, maxSweepCells, "outside [0, 1)"},
		{"inverted CCR range", SweepRequest{CCRMin: 1, CCRMax: 0.001}, maxSweepCells, "bad CCR range"},
		{"over the buffered cap", SweepRequest{PointsPerDecade: 10_000}, maxSweepCells, "above the daemon limit"},
		{"same grid under the streaming cap", SweepRequest{PointsPerDecade: 10_000}, DefaultStreamSweepCells, ""},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			cfg, err := tc.req.sweepConfig(tc.cap)
			if tc.wantErr == "" {
				if err != nil {
					t.Fatalf("unexpected error: %v", err)
				}
				if cfg.NumCells() == 0 {
					t.Fatal("valid request produced an empty grid")
				}
				return
			}
			if err == nil {
				t.Fatalf("no error, want one containing %q (got config %+v)", tc.wantErr, cfg)
			}
			if !strings.Contains(err.Error(), tc.wantErr) {
				t.Fatalf("error %q does not contain %q", err, tc.wantErr)
			}
			if status := errorStatus(err); status != http.StatusBadRequest {
				t.Fatalf("status %d, want 400", status)
			}
		})
	}
}

// streamLines splits an NDJSON body into its lines.
func streamLines(t *testing.T, body string) []string {
	t.Helper()
	lines := strings.Split(strings.TrimSuffix(body, "\n"), "\n")
	if len(lines) == 0 {
		t.Fatal("empty NDJSON body")
	}
	return lines
}

// TestHTTPSweepStreamGolden is the streaming-vs-buffered golden: for
// shards {1, 4} × workers {1, NumCPU}, the NDJSON row lines
// concatenated must be byte-identical to the buffered response's Rows
// elements, whether streaming was selected by the "stream" field or by
// the Accept header. Run under -race via make check.
func TestHTTPSweepStreamGolden(t *testing.T) {
	grid := `"family":"genome","sizes":[40],"procs":[3],"pfails":[0.001],"ccr_min":0.001,"ccr_max":0.01,"points_per_decade":5`
	for _, shards := range []int{1, 4} {
		for _, workers := range []int{1, runtime.NumCPU()} {
			t.Run(fmt.Sprintf("shards=%d/workers=%d", shards, workers), func(t *testing.T) {
				srv := httptest.NewServer(NewHandler(NewService(WithShards(shards))))
				defer srv.Close()
				req := fmt.Sprintf(`{%s,"workers":%d}`, grid, workers)

				status, buffered, hdr := postJSON(t, srv.Client(), srv.URL+"/v1/sweep", req)
				if status != http.StatusOK {
					t.Fatalf("buffered sweep: %d %s", status, buffered)
				}
				if ct := hdr.Get("Content-Type"); ct != "application/json" {
					t.Fatalf("buffered Content-Type = %q", ct)
				}
				var ref struct {
					Family string            `json:"family"`
					Cells  int               `json:"cells"`
					Rows   []json.RawMessage `json:"rows"`
				}
				if err := json.Unmarshal([]byte(buffered), &ref); err != nil {
					t.Fatal(err)
				}
				if ref.Cells != 6 || len(ref.Rows) != 6 {
					t.Fatalf("buffered grid has %d cells / %d rows, want 6", ref.Cells, len(ref.Rows))
				}

				streamedReq := fmt.Sprintf(`{%s,"workers":%d,"stream":true}`, grid, workers)
				status, streamed, hdr := postJSON(t, srv.Client(), srv.URL+"/v1/sweep", streamedReq)
				if status != http.StatusOK {
					t.Fatalf("streamed sweep: %d %s", status, streamed)
				}
				if ct := hdr.Get("Content-Type"); ct != ndjsonContentType {
					t.Fatalf("streamed Content-Type = %q", ct)
				}
				lines := streamLines(t, streamed)
				if len(lines) != 1+len(ref.Rows) {
					t.Fatalf("stream has %d lines, want header + %d rows", len(lines), len(ref.Rows))
				}
				var head SweepStreamHeader
				if err := json.Unmarshal([]byte(lines[0]), &head); err != nil {
					t.Fatalf("header line %q: %v", lines[0], err)
				}
				if head.Family != ref.Family || head.Cells != ref.Cells {
					t.Fatalf("stream header %+v, buffered says family=%s cells=%d", head, ref.Family, ref.Cells)
				}
				for i, row := range ref.Rows {
					if lines[1+i] != string(row) {
						t.Fatalf("row %d differs:\nstream:   %s\nbuffered: %s", i, lines[1+i], row)
					}
				}

				// Accept-header negotiation must produce the identical stream.
				hr, err := http.NewRequest(http.MethodPost, srv.URL+"/v1/sweep",
					strings.NewReader(fmt.Sprintf(`{%s,"workers":%d}`, grid, workers)))
				if err != nil {
					t.Fatal(err)
				}
				hr.Header.Set("Accept", ndjsonContentType)
				resp, err := srv.Client().Do(hr)
				if err != nil {
					t.Fatal(err)
				}
				var sb strings.Builder
				scan := bufio.NewScanner(resp.Body)
				for scan.Scan() {
					sb.WriteString(scan.Text())
					sb.WriteByte('\n')
				}
				resp.Body.Close()
				if err := scan.Err(); err != nil {
					t.Fatal(err)
				}
				if sb.String() != streamed {
					t.Fatal("Accept-negotiated stream differs from stream:true body")
				}
			})
		}
	}
}

// flushCounter counts Flush calls on top of a ResponseRecorder, so a
// handler-level test can assert per-row flushing.
type flushCounter struct {
	*httptest.ResponseRecorder
	flushes atomic.Int64
}

func (f *flushCounter) Flush() {
	f.flushes.Add(1)
	f.ResponseRecorder.Flush()
}

// TestHTTPSweepStreamFlushes pins that every streamed line — the
// header and each row — is flushed to the client as it is produced,
// not buffered until the sweep completes.
func TestHTTPSweepStreamFlushes(t *testing.T) {
	h := NewHandler(NewService())
	body := `{"family":"genome","sizes":[40],"procs":[3],"pfails":[0.001],"ccr_min":0.001,"ccr_max":0.01,"points_per_decade":5,"stream":true}`
	w := &flushCounter{ResponseRecorder: httptest.NewRecorder()}
	h.ServeHTTP(w, httptest.NewRequest(http.MethodPost, "/v1/sweep", strings.NewReader(body)))
	if w.Code != http.StatusOK {
		t.Fatalf("status %d: %s", w.Code, w.Body.String())
	}
	lines := streamLines(t, w.Body.String())
	if len(lines) != 7 { // header + 6 rows
		t.Fatalf("%d lines, want 7", len(lines))
	}
	if got := w.flushes.Load(); got < int64(len(lines)) {
		t.Fatalf("flushed %d times for %d lines, want one flush per line", got, len(lines))
	}
}

// TestAccessLog pins the daemons' access-log wrapper: a streamed sweep
// still flushes once per line through it, and each request logs one
// "METHOD PATH STATUS DURATION" line with the status the handler wrote
// (200 when it wrote none).
func TestAccessLog(t *testing.T) {
	var logged []string
	logf := func(format string, args ...any) { logged = append(logged, fmt.Sprintf(format, args...)) }
	api := AccessLog(NewHandler(NewService()), logf)
	cases := []struct {
		name   string
		h      http.Handler
		method string
		path   string
		body   string
		status int
		lines  int // NDJSON lines of a streamed response, each flushed
	}{
		{"streamed sweep", api, http.MethodPost, "/v1/sweep",
			`{"family":"genome","sizes":[40],"procs":[3],"pfails":[0.001],"ccr_min":0.001,"ccr_max":0.01,"points_per_decade":5,"stream":true}`,
			http.StatusOK, 7}, // header + 6 rows
		{"bad request", api, http.MethodPost, "/v1/plan", `{"family":"nope"}`, http.StatusBadRequest, 0},
		{"method not allowed", api, http.MethodGet, "/v1/plan", "", http.StatusMethodNotAllowed, 0},
		{"no WriteHeader", AccessLog(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
			fmt.Fprint(w, "ok")
		}), logf), http.MethodGet, "/implicit", "", http.StatusOK, 0},
	}
	for _, tc := range cases {
		logged = logged[:0]
		w := &flushCounter{ResponseRecorder: httptest.NewRecorder()}
		tc.h.ServeHTTP(w, httptest.NewRequest(tc.method, tc.path, strings.NewReader(tc.body)))
		if w.Code != tc.status {
			t.Fatalf("%s: status %d, want %d: %s", tc.name, w.Code, tc.status, w.Body.String())
		}
		if len(logged) != 1 {
			t.Fatalf("%s: %d log lines, want 1: %q", tc.name, len(logged), logged)
		}
		fields := strings.Split(logged[0], " ")
		if len(fields) != 4 || fields[0] != tc.method || fields[1] != tc.path || fields[2] != fmt.Sprint(tc.status) {
			t.Fatalf("%s: logged %q, want %q", tc.name, logged[0], fmt.Sprintf("%s %s %d <duration>", tc.method, tc.path, tc.status))
		}
		if d, err := time.ParseDuration(fields[3]); err != nil || d != d.Truncate(time.Microsecond) {
			t.Fatalf("%s: duration field %q is not a microsecond-truncated duration (%v)", tc.name, fields[3], err)
		}
		if tc.lines > 0 {
			if lines := streamLines(t, w.Body.String()); len(lines) != tc.lines {
				t.Fatalf("%s: %d lines, want %d", tc.name, len(lines), tc.lines)
			}
			if got := w.flushes.Load(); got < int64(tc.lines) {
				t.Fatalf("%s: flushed %d times through the access log for %d lines, want one flush per line", tc.name, got, tc.lines)
			}
		}
	}
}

// TestHTTPSweepStreamLargeGridCancel is the scale half of the
// streaming contract: a 100k-cell grid — far above the buffered cap —
// must start streaming rows immediately (nothing buffers server-side;
// the bounded reorder window is asserted in internal/par), and a
// client cancelling mid-stream must abort the sweep cleanly instead of
// running the remaining cells.
func TestHTTPSweepStreamLargeGridCancel(t *testing.T) {
	pfails := make([]string, 1000)
	for i := range pfails {
		pfails[i] = fmt.Sprintf("%g", float64(i)/2000)
	}
	grid := fmt.Sprintf(`"family":"genome","sizes":[40],"procs":[3],"pfails":[%s],"ccr_min":0.0001,"ccr_max":1,"points_per_decade":25`,
		strings.Join(pfails, ","))

	srv := httptest.NewServer(NewHandler(NewService()))
	defer srv.Close()

	// Buffered, the same grid must be refused outright.
	status, body, _ := postJSON(t, srv.Client(), srv.URL+"/v1/sweep", "{"+grid+"}")
	if status != http.StatusBadRequest || !strings.Contains(body, "above the daemon limit") {
		t.Fatalf("buffered 100k-cell sweep: %d %s, want a 400 cap rejection", status, body)
	}

	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, srv.URL+"/v1/sweep",
		strings.NewReader(`{`+grid+`,"stream":true}`))
	if err != nil {
		t.Fatal(err)
	}
	resp, err := srv.Client().Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("streamed 100k-cell sweep: %d", resp.StatusCode)
	}
	scan := bufio.NewScanner(resp.Body)
	if !scan.Scan() {
		t.Fatalf("no header line: %v", scan.Err())
	}
	var head SweepStreamHeader
	if err := json.Unmarshal(scan.Bytes(), &head); err != nil {
		t.Fatalf("header %q: %v", scan.Text(), err)
	}
	if head.Cells < 100_000 {
		t.Fatalf("grid has %d cells, the test wants >= 100k", head.Cells)
	}
	// Rows arriving while >99% of the grid is still unevaluated is the
	// streaming proof: a buffering server could not produce them yet.
	for i := 0; i < 2; i++ {
		if !scan.Scan() {
			t.Fatalf("row %d never arrived: %v", i, scan.Err())
		}
		var row SweepRow
		if err := json.Unmarshal(scan.Bytes(), &row); err != nil {
			t.Fatalf("row %d %q: %v", i, scan.Text(), err)
		}
		if row.Tasks != 40 || row.Procs != 3 {
			t.Fatalf("row %d = %+v", i, row)
		}
	}
	cancel()
	// The server must tear the response down promptly once the client
	// is gone; draining the remainder must not take anywhere near the
	// full 100k-cell compute time.
	start := time.Now()
	for scan.Scan() {
	}
	if d := time.Since(start); d > 30*time.Second {
		t.Fatalf("stream took %s to terminate after cancellation", d)
	}
}

// TestHTTPClientDisconnectIs499 pins the accounting fix: a request
// whose own context is cancelled (the client hung up) is recorded as
// 499, not as a 5xx server failure, and the disconnect is logged.
func TestHTTPClientDisconnectIs499(t *testing.T) {
	var logged atomic.Int64
	h := NewHandler(NewService(), WithLogf(func(string, ...any) { logged.Add(1) }))
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	req := httptest.NewRequest(http.MethodPost, "/v1/plan",
		strings.NewReader(`{"family":"genome","tasks":40,"procs":3}`)).WithContext(ctx)
	w := httptest.NewRecorder()
	h.ServeHTTP(w, req)
	if w.Code != statusClientClosedRequest {
		t.Fatalf("status %d, want %d", w.Code, statusClientClosedRequest)
	}
	if logged.Load() == 0 {
		t.Fatal("disconnect was not logged")
	}
}

// TestErrorStatusServerCancellationStays503 pins the other half of the
// split: a cancellation that did NOT come from the request context —
// server shutdown, a deadline — still maps to 503.
func TestErrorStatusServerCancellationStays503(t *testing.T) {
	if got := errorStatus(context.Canceled); got != http.StatusServiceUnavailable {
		t.Fatalf("canceled: %d, want 503", got)
	}
	if got := errorStatus(context.DeadlineExceeded); got != http.StatusServiceUnavailable {
		t.Fatalf("deadline: %d, want 503", got)
	}
	// And a live request whose error is a cancellation from elsewhere
	// (request context still fine) is not a client disconnect.
	r := httptest.NewRequest(http.MethodPost, "/v1/plan", nil)
	if clientGone(r, context.Canceled) {
		t.Fatal("cancellation with a live request context classified as a disconnect")
	}
}

// TestWriteJSONSurfacesEncodeFailure pins the writeJSON bugfix: an
// encode failure — previously discarded — reaches the handler's
// logger.
func TestWriteJSONSurfacesEncodeFailure(t *testing.T) {
	var msgs []string
	cfg := handlerConfig{logf: func(format string, args ...any) {
		msgs = append(msgs, fmt.Sprintf(format, args...))
	}}
	cfg.writeJSON(httptest.NewRecorder(), http.StatusOK, map[string]any{"bad": make(chan int)})
	if len(msgs) != 1 || !strings.Contains(msgs[0], "unsupported type") {
		t.Fatalf("logged %q, want one unsupported-type encode error", msgs)
	}
}

// TestSweepConfigClampsWorkers pins the daemon-side clamp: a client
// cannot size the sweep goroutine pool (and with it the streaming
// reorder window) beyond the host's cores.
func TestSweepConfigClampsWorkers(t *testing.T) {
	for _, workers := range []int{-5, runtime.GOMAXPROCS(0) + 1, 1 << 20} {
		cfg, err := SweepRequest{Workers: workers}.sweepConfig(maxSweepCells)
		if err != nil {
			t.Fatal(err)
		}
		if cfg.Workers != 0 {
			t.Fatalf("workers %d passed through as %d, want clamp to 0 (all cores)", workers, cfg.Workers)
		}
	}
	cfg, err := SweepRequest{Workers: 1}.sweepConfig(maxSweepCells)
	if err != nil {
		t.Fatal(err)
	}
	if cfg.Workers != 1 {
		t.Fatalf("in-range workers 1 became %d", cfg.Workers)
	}
}
