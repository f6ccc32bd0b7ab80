package hanccr

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"net/http/httptest"
	"os"
	"strings"
	"testing"
)

// TestScenarioLogRecordWarmRoundtrip is the restart story end to end:
// live traffic recorded by the handler is replayed into a fresh
// service, which then answers the same scenarios as pure cache hits.
func TestScenarioLogRecordWarmRoundtrip(t *testing.T) {
	ctx := context.Background()
	var buf bytes.Buffer
	slog := NewScenarioLog(&buf)
	srv := httptest.NewServer(NewHandler(NewService(), WithScenarioLog(slog)))

	requests := []struct{ path, body string }{
		{"/v1/plan", `{"family":"genome","tasks":40,"procs":3,"seed":7}`},
		{"/v1/estimate", `{"family":"montage","tasks":40,"procs":3,"seed":7,"method":"Dodin"}`},
		{"/v1/batch", `{"jobs":[
			{"kind":"plan","family":"ligo","tasks":40,"procs":3,"seed":9},
			{"kind":"plan","family":"nope"},
			{"kind":"simulate","family":"cybershake","tasks":40,"procs":3,"seed":3,"trials":200}
		]}`},
	}
	for _, r := range requests {
		status, body, _ := postJSON(t, srv.Client(), srv.URL+r.path, r.body)
		if status != http.StatusOK {
			t.Fatalf("%s: %d %s", r.path, status, body)
		}
	}
	// Invalid requests must not be recorded, and neither must cache
	// hits — replaying the first request verbatim adds no line, so the
	// log stays near the distinct-scenario count even when it is also
	// the next boot's warm input.
	postJSON(t, srv.Client(), srv.URL+"/v1/plan", `{"family":"nope"}`)
	postJSON(t, srv.Client(), srv.URL+"/v1/plan", requests[0].body)
	srv.Close()

	lines := strings.Count(buf.String(), "\n")
	if lines != 4 { // plan + estimate + 2 valid batch jobs
		t.Fatalf("recorded %d lines, want 4:\n%s", lines, buf.String())
	}

	for _, workers := range []int{1, 3} {
		fresh := NewService()
		warmed, failed, err := fresh.WarmFromLog(ctx, bytes.NewReader(buf.Bytes()), workers)
		if err != nil {
			t.Fatal(err)
		}
		if warmed != 4 || failed != 0 {
			t.Fatalf("workers=%d: warmed %d / failed %d, want 4 / 0", workers, warmed, failed)
		}
		for _, line := range strings.Split(strings.TrimSpace(buf.String()), "\n") {
			var req ScenarioRequest
			if err := json.Unmarshal([]byte(line), &req); err != nil {
				t.Fatalf("log line %q: %v", line, err)
			}
			if _, outcome, err := fresh.PlanDetail(ctx, req.Scenario()); err != nil || outcome != CacheHit {
				t.Fatalf("workers=%d: scenario %s not warm (outcome=%q, err=%v)", workers, line, outcome, err)
			}
		}
	}
}

// TestWarmFromLogBadLine pins the corrupt-log contract: a broken line
// aborts the warm-up with its line number instead of being skipped.
func TestWarmFromLogBadLine(t *testing.T) {
	log := `{"family":"genome","tasks":40,"procs":3}

this is not json
`
	svc := NewService()
	_, _, err := svc.WarmFromLog(context.Background(), strings.NewReader(log), 1)
	if err == nil || !strings.Contains(err.Error(), "line 3") {
		t.Fatalf("want a line-3 parse error, got %v", err)
	}
}

// TestWarmFromLogPlanFailuresCounted pins the lenient half: a line
// that parses but does not plan only increments failed.
func TestWarmFromLogPlanFailuresCounted(t *testing.T) {
	log := `{"family":"genome","tasks":40,"procs":3}
{"family":"genome","procs":-1}
`
	svc := NewService()
	warmed, failed, err := svc.WarmFromLog(context.Background(), strings.NewReader(log), 2)
	if err != nil {
		t.Fatal(err)
	}
	if warmed != 1 || failed != 1 {
		t.Fatalf("warmed %d / failed %d, want 1 / 1", warmed, failed)
	}
}

// TestWarmFromLogOverlongLineNamesLine pins the scanner-failure fix: a
// line beyond the token limit used to surface as an anonymous
// "scenario log:" error; it must now name the offending line so an
// over-long entry is findable in a large log.
func TestWarmFromLogOverlongLineNamesLine(t *testing.T) {
	var log strings.Builder
	log.WriteString(`{"family":"genome","tasks":40,"procs":3}` + "\n")
	log.WriteString("\n") // blank lines still count toward the line number
	log.WriteString(`{"workflow_name":"` + strings.Repeat("x", maxScenarioLogLine) + `"}` + "\n")
	svc := NewService()
	warmed, _, err := svc.WarmFromLog(context.Background(), strings.NewReader(log.String()), 2)
	if err == nil || !strings.Contains(err.Error(), "line 3") {
		t.Fatalf("want a line-3 scanner error, got %v", err)
	}
	if !errors.Is(err, bufio.ErrTooLong) {
		t.Fatalf("err = %v, want bufio.ErrTooLong underneath", err)
	}
	if warmed != 1 {
		t.Fatalf("warmed %d, want the 1 good line before the abort", warmed)
	}
}

// TestWarmFromLogStreamsLargeLog replays a log far deeper than the
// bounded hand-off channel through a small pool — the memory claim is
// "never resident as a whole", and this at least pins that the
// producer/worker plumbing survives depth >> channel capacity with
// every line counted exactly once.
func TestWarmFromLogStreamsLargeLog(t *testing.T) {
	var log strings.Builder
	const lines = 500
	for i := 0; i < lines; i++ {
		fmt.Fprintf(&log, `{"family":"genome","tasks":40,"procs":3,"seed":%d}`+"\n", i%7)
	}
	svc := NewService()
	warmed, failed, err := svc.WarmFromLog(context.Background(), strings.NewReader(log.String()), 3)
	if err != nil {
		t.Fatal(err)
	}
	// 7 distinct seeds; duplicates warm as cache hits and still count.
	if warmed != lines || failed != 0 {
		t.Fatalf("warmed %d / failed %d, want %d / 0", warmed, failed, lines)
	}
	if st := svc.Stats(); st.Entries != 7 {
		t.Fatalf("cache holds %d plans, want 7 distinct", st.Entries)
	}
}

// TestWarmFromLogCancellation pins that a cancelled context stops the
// replay with the context error instead of hanging the producer on the
// bounded channel.
func TestWarmFromLogCancellation(t *testing.T) {
	var log strings.Builder
	for i := 0; i < 200; i++ {
		fmt.Fprintf(&log, `{"family":"genome","tasks":40,"procs":3,"seed":%d}`+"\n", i)
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	svc := NewService()
	_, _, err := svc.WarmFromLog(ctx, strings.NewReader(log.String()), 2)
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
}

// scheduledWriter fails exactly the scripted write calls (1-based):
// partial calls write half the bytes then error, total calls write
// nothing. Everything else passes through.
type scheduledWriter struct {
	w       bytes.Buffer
	calls   int
	partial map[int]bool
	total   map[int]bool
}

func (s *scheduledWriter) Write(p []byte) (int, error) {
	s.calls++
	switch {
	case s.total[s.calls]:
		return 0, errors.New("injected total write failure")
	case s.partial[s.calls]:
		n, _ := s.w.Write(p[:len(p)/2])
		return n, errors.New("injected short write")
	}
	return s.w.Write(p)
}

// TestScenarioLogShortWriteRecovery is the dirty-flag regression test:
// a partial write used to leave the log with a torn line that silently
// glued itself to the NEXT record, corrupting both. Record must now
// emit a recovery newline before the next record so exactly one line
// (the salvaged fragment) is lost, and a total failure (0 bytes
// written) must NOT inject a spurious blank line.
func TestScenarioLogShortWriteRecovery(t *testing.T) {
	// Call 2 = record B dies halfway; call 3 is the recovery newline
	// before C; call 5 = record D writes nothing at all.
	sw := &scheduledWriter{partial: map[int]bool{2: true}, total: map[int]bool{5: true}}
	slog := NewScenarioLog(sw)

	rec := func(seed int64) error {
		return slog.Record(ScenarioRequest{Family: "genome", Tasks: 40, Procs: 3, Seed: &seed})
	}
	if err := rec(1); err != nil { // A
		t.Fatalf("record A: %v", err)
	}
	if err := rec(2); err == nil { // B: torn mid-line
		t.Fatal("record B: want the injected short-write error")
	}
	if err := rec(3); err != nil { // C: must be preceded by a recovery newline
		t.Fatalf("record C: %v", err)
	}
	if err := rec(4); err == nil { // D: total failure, nothing written
		t.Fatal("record D: want the injected total-failure error")
	}
	if err := rec(5); err != nil { // E: no recovery newline needed after D
		t.Fatalf("record E: %v", err)
	}

	blob := sw.w.String()
	lines := strings.Split(blob, "\n")
	if lines[len(lines)-1] != "" {
		t.Fatalf("log does not end in a newline:\n%q", blob)
	}
	lines = lines[:len(lines)-1]
	// A, half-of-B (closed by the recovery newline), C, E — and no
	// blank line between C and E from the total failure.
	if len(lines) != 4 {
		t.Fatalf("log holds %d lines, want 4 (A, fragment, C, E):\n%q", len(lines), blob)
	}
	wantSeed := func(line string, seed int64) {
		t.Helper()
		var req ScenarioRequest
		if err := json.Unmarshal([]byte(line), &req); err != nil {
			t.Fatalf("line %q: %v", line, err)
		}
		if req.Seed == nil || *req.Seed != seed {
			t.Fatalf("line %q: want seed %d", line, seed)
		}
	}
	wantSeed(lines[0], 1)
	if json.Valid([]byte(lines[1])) {
		t.Fatalf("salvaged fragment %q unexpectedly parses — the short write was not torn", lines[1])
	}
	wantSeed(lines[2], 3)
	wantSeed(lines[3], 5)

	// The tailer's half of the contract: a snapshot read of this log
	// delivers A, C and E and skips exactly the fragment.
	path := t.TempDir() + "/recovered.jsonl"
	if err := os.WriteFile(path, []byte(blob), 0o644); err != nil {
		t.Fatal(err)
	}
	var got []int64
	var skipped int
	err := TailLog(context.Background(), path, func(req ScenarioRequest) error {
		got = append(got, *req.Seed)
		return nil
	}, TailOnce(), TailOnSkip(func([]byte, error) { skipped++ }))
	if err != nil {
		t.Fatal(err)
	}
	if fmt.Sprint(got) != "[1 3 5]" || skipped != 1 {
		t.Fatalf("tailed seeds %v with %d skips, want [1 3 5] with 1 skip", got, skipped)
	}
}
