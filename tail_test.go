package hanccr

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http/httptest"
	"os"
	"path/filepath"
	"sync"
	"testing"
	"time"
)

// tailTestInterval keeps the poll loops snappy under test.
const tailTestInterval = 10 * time.Millisecond

func mustRecord(t *testing.T, l *ScenarioLog, body string) {
	t.Helper()
	var req ScenarioRequest
	mustUnmarshalScenario(t, body, &req)
	if err := l.Record(req); err != nil {
		t.Fatalf("record %s: %v", body, err)
	}
}

func mustUnmarshalScenario(t *testing.T, body string, dst *ScenarioRequest) {
	t.Helper()
	if err := json.Unmarshal([]byte(body), dst); err != nil {
		t.Fatalf("unmarshal %s: %v", body, err)
	}
}

// TestTailLogFollowsAppends pins the follow contract: records appended
// after the tailer started are delivered without reopening anything.
func TestTailLogFollowsAppends(t *testing.T) {
	path := filepath.Join(t.TempDir(), "log.jsonl")
	l, err := OpenScenarioLog(path)
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	mustRecord(t, l, `{"family":"genome","tasks":40,"procs":3,"seed":1}`)

	ctx, cancel := context.WithCancel(context.Background())
	got := make(chan ScenarioRequest, 16)
	done := make(chan error, 1)
	go func() {
		done <- TailLog(ctx, path, func(req ScenarioRequest) error {
			got <- req
			return nil
		}, TailInterval(tailTestInterval))
	}()

	recv := func() ScenarioRequest {
		t.Helper()
		select {
		case r := <-got:
			return r
		case <-time.After(10 * time.Second):
			t.Fatal("tailer delivered nothing in 10s")
			return ScenarioRequest{}
		}
	}
	if r := recv(); r.Seed == nil || *r.Seed != 1 {
		t.Fatalf("first delivery = %+v, want seed 1", r)
	}
	mustRecord(t, l, `{"family":"montage","tasks":40,"procs":3,"seed":2}`)
	if r := recv(); r.Family != "montage" {
		t.Fatalf("second delivery = %+v, want the appended montage record", r)
	}
	cancel()
	if err := <-done; !errors.Is(err, context.Canceled) {
		t.Fatalf("TailLog returned %v, want context.Canceled", err)
	}
}

// TestTailLogOnceAndOffset pins snapshot mode and offset resume: a
// TailOnce read stops at EOF, and TailFrom(offset) skips exactly the
// bytes already consumed — including an offset beyond the file size,
// which restarts from the beginning instead of waiting forever.
func TestTailLogOnceAndOffset(t *testing.T) {
	path := filepath.Join(t.TempDir(), "log.jsonl")
	l, err := OpenScenarioLog(path)
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	mustRecord(t, l, `{"family":"genome","tasks":40,"procs":3,"seed":1}`)
	mustRecord(t, l, `{"family":"genome","tasks":40,"procs":3,"seed":2}`)

	collect := func(opts ...TailOption) []ScenarioRequest {
		t.Helper()
		var out []ScenarioRequest
		opts = append(opts, TailOnce(), TailInterval(tailTestInterval))
		if err := TailLog(context.Background(), path, func(req ScenarioRequest) error {
			out = append(out, req)
			return nil
		}, opts...); err != nil {
			t.Fatal(err)
		}
		return out
	}

	if got := collect(); len(got) != 2 {
		t.Fatalf("snapshot delivered %d records, want 2", len(got))
	}
	blob, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	// Offset of the second record = length of the first line incl \n.
	var firstLine int64
	for i, b := range blob {
		if b == '\n' {
			firstLine = int64(i + 1)
			break
		}
	}
	got := collect(TailFrom(firstLine))
	if len(got) != 1 || got[0].Seed == nil || *got[0].Seed != 2 {
		t.Fatalf("offset resume delivered %+v, want only seed 2", got)
	}
	if got := collect(TailFrom(int64(len(blob)) + 999)); len(got) != 2 {
		t.Fatalf("over-size offset delivered %d records, want a restart from 0 with 2", len(got))
	}
}

// TestTailLogSkipsSalvagedFragment pins the tailer half of the
// short-write recovery contract: a partially written line is never
// delivered while it has no newline, and once a recovery newline turns
// it into a garbage line, the tailer skips it (reporting via
// TailOnSkip) and keeps delivering the records after it.
func TestTailLogSkipsSalvagedFragment(t *testing.T) {
	path := filepath.Join(t.TempDir(), "log.jsonl")
	good1 := `{"family":"genome","tasks":40,"procs":3,"seed":1}` + "\n"
	frag := `{"family":"montage","ta` // half a record, no newline
	if err := os.WriteFile(path, []byte(good1+frag), 0o644); err != nil {
		t.Fatal(err)
	}

	var got []ScenarioRequest
	var skipped int
	opts := []TailOption{TailOnce(), TailInterval(tailTestInterval),
		TailOnSkip(func([]byte, error) { skipped++ })}
	run := func() {
		t.Helper()
		got, skipped = nil, 0
		if err := TailLog(context.Background(), path, func(req ScenarioRequest) error {
			got = append(got, req)
			return nil
		}, opts...); err != nil {
			t.Fatal(err)
		}
	}

	run()
	if len(got) != 1 || skipped != 0 {
		t.Fatalf("with a dangling partial line: delivered %d, skipped %d; want 1 delivered, 0 skipped", len(got), skipped)
	}

	// The writer recovers: newline closes the fragment, then a good record.
	good2 := `{"family":"ligo","tasks":40,"procs":3,"seed":2}` + "\n"
	f, err := os.OpenFile(path, os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.WriteString("\n" + good2); err != nil {
		t.Fatal(err)
	}
	f.Close()

	run()
	if len(got) != 2 || skipped != 1 {
		t.Fatalf("after recovery: delivered %d, skipped %d; want 2 delivered, 1 skipped", len(got), skipped)
	}
	if got[1].Family != "ligo" {
		t.Fatalf("record after the fragment = %+v, want the ligo one", got[1])
	}
}

// shortWriter wraps a writer and fails exactly the scripted calls:
// partial calls write half the bytes then error (a full disk mid-
// line), total calls write nothing (a permission error). Calls are
// 1-based.
type shortWriter struct {
	mu      sync.Mutex
	w       io.Writer
	calls   int
	partial map[int]bool
	total   map[int]bool
}

func (s *shortWriter) Write(p []byte) (int, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
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

// TestTailUnderWriteRace is the satellite race test: one goroutine
// appends records through a ScenarioLog whose writer injects a
// scripted partial write, while Service.Follow tails the same file
// into a second Service. Every successfully recorded miss must land in
// the follower's cache, the counts must match the writer's, and the
// salvaged fragment must be skipped — all under -race.
func TestTailUnderWriteRace(t *testing.T) {
	path := filepath.Join(t.TempDir(), "log.jsonl")
	f, err := os.OpenFile(path, os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	// Call 8 dies halfway through a record; call 20 writes nothing.
	// (The recovery newline after call 8 is itself a write call, so the
	// scripted calls are spaced apart.)
	sw := &shortWriter{w: f, partial: map[int]bool{8: true}, total: map[int]bool{20: true}}
	slog := NewScenarioLog(sw)

	follower := NewService()
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	type followResult struct {
		absorbed, failed int
		err              error
	}
	resc := make(chan followResult, 1)
	go func() {
		a, fl, err := follower.Follow(ctx, path, 3)
		resc <- followResult{a, fl, err}
	}()

	const (
		records  = 40
		distinct = 5
	)
	var wrote int // successful records
	writerDone := make(chan struct{})
	go func() {
		defer close(writerDone)
		for i := 0; i < records; i++ {
			seed := i % distinct
			err := slog.Record(ScenarioRequest{Family: "genome", Tasks: 30, Procs: 3, Seed: int64p(int64(seed))})
			if err == nil {
				wrote++
			}
		}
		// Sentinel: a final unique scenario, written last, so the test
		// knows when the follower has caught up with the whole log.
		if err := slog.Record(ScenarioRequest{Family: "genome", Tasks: 30, Procs: 3, Seed: int64p(999)}); err != nil {
			t.Errorf("sentinel record: %v", err)
			return
		}
		wrote++
	}()
	<-writerDone
	if wrote != records-2+1 {
		t.Fatalf("writer recorded %d lines, want %d (two scripted failures)", wrote, records-2+1)
	}

	// Wait until the follower has absorbed every written line: all
	// distinct scenarios resident (incl. the sentinel) and one cache
	// touch per delivered line.
	deadline := time.Now().Add(60 * time.Second)
	for {
		st := follower.Stats()
		if st.Entries == distinct+1 && st.Hits+st.Misses == uint64(wrote) {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("follower never caught up: stats %+v, want %d entries and %d touches", st, distinct+1, wrote)
		}
		time.Sleep(5 * time.Millisecond)
	}
	awaitPlanned(t, follower, ScenarioRequest{Family: "genome", Tasks: 30, Procs: 3, Seed: int64p(999)})
	cancel()
	res := <-resc
	if res.err != nil && !errors.Is(res.err, context.Canceled) {
		t.Fatalf("Follow returned %v", res.err)
	}
	if res.absorbed != wrote || res.failed != 0 {
		t.Fatalf("Follow absorbed %d / failed %d, want %d / 0 (the fragment must be skipped, not failed)", res.absorbed, res.failed, wrote)
	}
}

// TestFollowHTTPWarmsFromPeer is the cross-process story over HTTP: a
// follower Service tails a peer replica's GET /v1/log stream and
// absorbs both the traffic recorded before it connected and the
// records that arrive while it is attached.
func TestFollowHTTPWarmsFromPeer(t *testing.T) {
	path := filepath.Join(t.TempDir(), "peer.jsonl")
	slog, err := OpenScenarioLog(path)
	if err != nil {
		t.Fatal(err)
	}
	defer slog.Close()
	peer := httptest.NewServer(NewHandler(NewService(), WithScenarioLog(slog)))
	defer peer.Close()

	post := func(seed int) {
		t.Helper()
		body := fmt.Sprintf(`{"family":"genome","tasks":40,"procs":3,"seed":%d}`, seed)
		status, resp, _ := postJSON(t, peer.Client(), peer.URL+"/v1/plan", body)
		if status != 200 {
			t.Fatalf("peer plan: %d %s", status, resp)
		}
	}
	for seed := 1; seed <= 3; seed++ {
		post(seed)
	}

	follower := NewService()
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	type followResult struct {
		absorbed, failed int
		err              error
	}
	resc := make(chan followResult, 1)
	go func() {
		a, fl, err := follower.Follow(ctx, peer.URL, 2)
		resc <- followResult{a, fl, err}
	}()

	waitFor := func(entries int, touches uint64) {
		t.Helper()
		deadline := time.Now().Add(60 * time.Second)
		for {
			st := follower.Stats()
			if st.Entries == entries && st.Hits+st.Misses == touches {
				return
			}
			if time.Now().After(deadline) {
				t.Fatalf("follower stats %+v, want %d entries / %d touches", st, entries, touches)
			}
			time.Sleep(5 * time.Millisecond)
		}
	}
	// Backlog: the three scenarios planned before the follower attached.
	waitFor(3, 3)
	// Live propagation: a new scenario on the peer reaches the follower
	// without any reconnect.
	post(4)
	waitFor(4, 4)
	awaitPlanned(t, follower, ScenarioRequest{Family: "genome", Tasks: 40, Procs: 3, Seed: int64p(4)})

	cancel()
	res := <-resc
	if res.err != nil && !errors.Is(res.err, context.Canceled) {
		t.Fatalf("Follow returned %v", res.err)
	}
	if res.absorbed != 4 || res.failed != 0 {
		t.Fatalf("Follow absorbed %d / failed %d, want 4 / 0", res.absorbed, res.failed)
	}
}

// awaitPlanned blocks until req's plan is resident and complete in svc.
// A stats poll is already satisfied once the last miss's flight has
// started; cancelling the follower then would kill that flight and
// fail the absorbed count. Joining the flight waits it out.
func awaitPlanned(t *testing.T, svc *Service, req ScenarioRequest) {
	t.Helper()
	if _, outcome, err := svc.PlanDetail(context.Background(), req.Scenario()); err != nil || outcome != CacheHit {
		t.Fatalf("%+v not resident: outcome %q, err %v", req, outcome, err)
	}
}

func int64p(v int64) *int64 { return &v }
