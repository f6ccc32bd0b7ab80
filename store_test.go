package hanccr

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"hash/crc32"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
)

// storeTestScenarios is a spread over strategies, families, the exact
// cost model and an injected document — every decode path the store
// has.
func storeTestScenarios(t *testing.T) []Scenario {
	t.Helper()
	base := NewScenario(WithFamily("montage"), WithTasks(40), WithProcs(4), WithSeed(7))
	wf, err := GenerateWorkflow(context.Background(), base)
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := wf.WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	// The injected scenario is built from wire-round-tripped bytes so
	// the HTTP comparison below hashes to the same key: json.Marshal
	// compacts and escapes a RawMessage, and Scenario.Key() hashes the
	// document verbatim.
	seven := int64(7)
	blob, err := json.Marshal(ScenarioRequest{
		WorkflowJSON: buf.Bytes(), WorkflowName: "montage-inline", Procs: 4, Seed: &seven,
	})
	if err != nil {
		t.Fatal(err)
	}
	var rt ScenarioRequest
	if err := json.Unmarshal(blob, &rt); err != nil {
		t.Fatal(err)
	}
	injected := rt.Scenario()
	if err := injected.Validate(); err != nil {
		t.Fatal(err)
	}
	return []Scenario{
		NewScenario(WithFamily("genome"), WithTasks(50), WithProcs(5)),
		NewScenario(WithFamily("montage"), WithTasks(40), WithProcs(4), WithStrategy(CkptAll)),
		NewScenario(WithFamily("ligo"), WithTasks(50), WithProcs(5), WithStrategy(CkptNone)),
		NewScenario(WithFamily("genome"), WithTasks(40), WithProcs(3), WithStrategy(ExitOnly), WithExactCostModel()),
		NewScenario(WithFamily("cybershake"), WithTasks(30), WithProcs(3), WithPFail(0.01), WithCCR(0.5)),
		injected,
	}
}

// failingPlanner is a WithPlanner seam that fails the test on any
// invocation — proof a service answered purely from its store/cache.
func failingPlanner(t *testing.T) func(ctx context.Context, sc Scenario) (*Plan, error) {
	return func(ctx context.Context, sc Scenario) (*Plan, error) {
		t.Errorf("planner invoked for %.12s: plan was not served from the store", sc.Key())
		return nil, fmt.Errorf("planner must not run")
	}
}

// countingPlanner counts real planner runs.
func countingPlanner(calls *atomic.Int64) func(ctx context.Context, sc Scenario) (*Plan, error) {
	return func(ctx context.Context, sc Scenario) (*Plan, error) {
		calls.Add(1)
		return NewPlan(ctx, sc)
	}
}

// TestStoreRoundTripByteIdentical is the store's core contract: a plan
// rehydrated from disk by a process that never runs the planner
// answers Plan/Estimate/Simulate and the HTTP plan endpoint
// byte-identical to a freshly planned reference.
func TestStoreRoundTripByteIdentical(t *testing.T) {
	ctx := context.Background()
	dir := t.TempDir()
	scenarios := storeTestScenarios(t)

	// Writer process: plan everything cold with the store attached.
	writer := NewService(WithStore(dir))
	if err := writer.StoreErr(); err != nil {
		t.Fatal(err)
	}
	for _, sc := range scenarios {
		if _, err := writer.Plan(ctx, sc); err != nil {
			t.Fatalf("%.12s: %v", sc.Key(), err)
		}
	}
	if st := writer.Stats(); st.StoreRecords != len(scenarios) {
		t.Fatalf("store holds %d records, want %d", st.StoreRecords, len(scenarios))
	}
	if err := writer.CloseStore(); err != nil {
		t.Fatal(err)
	}

	// Reference: a storeless service planning from scratch.
	ref := NewService()
	refSrv := httptest.NewServer(NewHandler(ref))
	defer refSrv.Close()

	// Reader process: same directory, a planner that fails the test if
	// touched. LoadStore must rehydrate every record.
	reader := NewService(WithStore(dir), WithPlanner(failingPlanner(t)), WithShards(4))
	if err := reader.StoreErr(); err != nil {
		t.Fatal(err)
	}
	loaded, dropped, err := reader.LoadStore(ctx, 0)
	if err != nil {
		t.Fatal(err)
	}
	if loaded != len(scenarios) || dropped != 0 {
		t.Fatalf("LoadStore = (%d loaded, %d dropped), want (%d, 0)", loaded, dropped, len(scenarios))
	}
	if st := reader.Stats(); st.StoreLoads != uint64(len(scenarios)) {
		t.Fatalf("StoreLoads = %d, want %d", st.StoreLoads, len(scenarios))
	}
	readerSrv := httptest.NewServer(NewHandler(reader))
	defer readerSrv.Close()

	for i, sc := range scenarios {
		refPlan, err := ref.Plan(ctx, sc)
		if err != nil {
			t.Fatal(err)
		}
		gotPlan, outcome, err := reader.PlanDetail(ctx, sc)
		if err != nil {
			t.Fatal(err)
		}
		if outcome != CacheHit {
			t.Fatalf("scenario %d: rehydrated plan was not a cache hit", i)
		}
		// Estimate: every method, bit-exact against the reference.
		for _, m := range Methods() {
			want, err := refPlan.Estimate(ctx, m)
			if err != nil {
				t.Fatal(err)
			}
			got, err := gotPlan.Estimate(ctx, m)
			if err != nil {
				t.Fatal(err)
			}
			if got != want {
				t.Errorf("scenario %d %s: rehydrated estimate %.17g != fresh %.17g", i, m, got, want)
			}
		}
		// Simulate: bit-exact summary.
		wantSim, err := refPlan.Simulate(ctx, WithSimTrials(200))
		if err != nil {
			t.Fatal(err)
		}
		gotSim, err := gotPlan.Simulate(ctx, WithSimTrials(200))
		if err != nil {
			t.Fatal(err)
		}
		if gotSim != wantSim {
			t.Errorf("scenario %d: rehydrated simulation %+v != fresh %+v", i, gotSim, wantSim)
		}
		// HTTP: response bodies byte-identical, rehydrated side is a hit.
		req := sc.requestBody(t)
		_, wantBody, _ := postJSON(t, refSrv.Client(), refSrv.URL+"/v1/plan", req)
		_, gotBody, hdr := postJSON(t, readerSrv.Client(), readerSrv.URL+"/v1/plan", req)
		if gotBody != wantBody {
			t.Errorf("scenario %d: HTTP body differs\nstore: %s\nfresh: %s", i, gotBody, wantBody)
		}
		if got := hdr.Get("X-Cache"); got != "hit" {
			t.Errorf("scenario %d: X-Cache = %q, want hit", i, got)
		}
	}
	if st := reader.Stats(); st.Misses != 0 {
		t.Fatalf("reader counted %d planner misses, want 0", st.Misses)
	}
}

// requestBody renders a scenario as a /v1/plan request. Only the
// fields the store test scenarios use are mapped.
func (s Scenario) requestBody(t *testing.T) string {
	t.Helper()
	req := ScenarioRequest{
		Family: s.family, Tasks: s.tasks, Procs: s.procs,
		PFail: &s.pfail, CCR: &s.ccr, Seed: &s.seed, Bandwidth: s.bandwidth,
		Ragged: s.ragged, Strategy: string(s.strategy), ExactModel: s.exact,
	}
	if s.graph != nil {
		req.WorkflowJSON = json.RawMessage(s.graph)
		req.WorkflowName = s.source
		req.Family = ""
		req.Tasks = 0
	}
	blob, err := json.Marshal(req)
	if err != nil {
		t.Fatal(err)
	}
	return string(blob)
}

// TestStoreEvictionReload pins the LRU/store interplay: an entry
// evicted from a full cache re-loads from the store on its next
// request — counted as a store hit, not a planner miss — and every
// response stays byte-identical to a storeless reference. Shards 1 and
// 4, concurrent second pass (run under -race via make check).
func TestStoreEvictionReload(t *testing.T) {
	ctx := context.Background()
	scenarios := make([]Scenario, 6)
	for i := range scenarios {
		scenarios[i] = NewScenario(WithFamily("genome"), WithTasks(40), WithProcs(3), WithSeed(int64(100+i)))
	}
	ref := NewService()
	wantEM := make([]float64, len(scenarios))
	for i, sc := range scenarios {
		p, err := ref.Plan(ctx, sc)
		if err != nil {
			t.Fatal(err)
		}
		wantEM[i] = p.ExpectedMakespan()
	}
	for _, shards := range []int{1, 4} {
		t.Run(fmt.Sprintf("shards=%d", shards), func(t *testing.T) {
			var calls atomic.Int64
			// Capacity 1 forces per-shard capacity 1: with 6 distinct
			// scenarios every shard keeps evicting.
			svc := NewService(WithStore(t.TempDir()), WithShards(shards),
				WithCacheCapacity(1), WithPlanner(countingPlanner(&calls)))
			if err := svc.StoreErr(); err != nil {
				t.Fatal(err)
			}
			defer svc.CloseStore()
			for i, sc := range scenarios {
				p, err := svc.Plan(ctx, sc)
				if err != nil {
					t.Fatal(err)
				}
				if p.ExpectedMakespan() != wantEM[i] {
					t.Fatalf("scenario %d: first-pass EM differs from storeless reference", i)
				}
			}
			if got := calls.Load(); got != int64(len(scenarios)) {
				t.Fatalf("first pass ran the planner %d times, want %d", got, len(scenarios))
			}
			// Second pass, concurrent: every evicted scenario must come
			// back from the store, never from the planner.
			var wg sync.WaitGroup
			for i, sc := range scenarios {
				wg.Add(1)
				go func(i int, sc Scenario) {
					defer wg.Done()
					p, err := svc.Plan(ctx, sc)
					if err != nil {
						t.Error(err)
						return
					}
					if p.ExpectedMakespan() != wantEM[i] {
						t.Errorf("scenario %d: reloaded EM differs from storeless reference", i)
					}
				}(i, sc)
			}
			wg.Wait()
			if got := calls.Load(); got != int64(len(scenarios)) {
				t.Fatalf("second pass re-ran the planner (%d total calls, want %d)", got, len(scenarios))
			}
			st := svc.Stats()
			if st.Misses != uint64(len(scenarios)) {
				t.Fatalf("misses = %d, want %d (store reloads must not count)", st.Misses, len(scenarios))
			}
			if st.StoreHits+st.Hits < uint64(len(scenarios)) {
				t.Fatalf("second pass served %d store hits + %d cache hits, want >= %d", st.StoreHits, st.Hits, len(scenarios))
			}
			if st.StoreHits == 0 {
				t.Fatal("no store hits at capacity 1: evictions were not reloaded from disk")
			}
		})
	}
}

// TestStoreTornTailRecovery pins the store's crash tolerance: a
// torn record at the tail of the newest segment is skipped on open (no
// failed boot, the other records stay live) and the next Put recovers
// around it.
func TestStoreTornTailRecovery(t *testing.T) {
	dir := t.TempDir()
	st, err := OpenPlanStore(dir)
	if err != nil {
		t.Fatal(err)
	}
	if err := st.Put("k1", []byte(`{"a":1}`)); err != nil {
		t.Fatal(err)
	}
	if err := st.Put("k2", []byte(`{"b":2}`)); err != nil {
		t.Fatal(err)
	}
	if err := st.Close(); err != nil {
		t.Fatal(err)
	}
	// Crash mid-append: a record prefix with no terminating newline.
	seg := filepath.Join(dir, "plans-000001.seg")
	f, err := os.OpenFile(seg, os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.WriteString(`{"key":"k3","crc":123,"plan":{"tru`); err != nil {
		t.Fatal(err)
	}
	f.Close()

	st, err = OpenPlanStore(dir)
	if err != nil {
		t.Fatalf("recovery open failed: %v", err)
	}
	if got := st.Records(); got != 2 {
		t.Fatalf("recovered %d records, want 2 (torn tail skipped)", got)
	}
	for key, want := range map[string]string{"k1": `{"a":1}`, "k2": `{"b":2}`} {
		payload, ok, err := st.Get(key)
		if err != nil || !ok || string(payload) != want {
			t.Fatalf("Get(%s) = (%q, %v, %v), want %q", key, payload, ok, err, want)
		}
	}
	// The next Put writes a recovery newline first; a third open sees
	// all three records.
	if err := st.Put("k3", []byte(`{"c":3}`)); err != nil {
		t.Fatal(err)
	}
	if err := st.Close(); err != nil {
		t.Fatal(err)
	}
	st, err = OpenPlanStore(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	if got := st.Records(); got != 3 {
		t.Fatalf("after recovery Put: %d records, want 3", got)
	}
	if payload, ok, err := st.Get("k3"); err != nil || !ok || string(payload) != `{"c":3}` {
		t.Fatalf("Get(k3) = (%q, %v, %v)", payload, ok, err)
	}
}

// TestStoreCorruptRecordSkipped flips a byte inside a mid-file record:
// the CRC catches it at open, the record is dropped, and the later
// record survives.
func TestStoreCorruptRecordSkipped(t *testing.T) {
	dir := t.TempDir()
	st, err := OpenPlanStore(dir)
	if err != nil {
		t.Fatal(err)
	}
	if err := st.Put("k1", []byte(`{"a":1234567}`)); err != nil {
		t.Fatal(err)
	}
	if err := st.Put("k2", []byte(`{"b":2}`)); err != nil {
		t.Fatal(err)
	}
	if err := st.Close(); err != nil {
		t.Fatal(err)
	}
	seg := filepath.Join(dir, "plans-000001.seg")
	blob, err := os.ReadFile(seg)
	if err != nil {
		t.Fatal(err)
	}
	i := bytes.Index(blob, []byte("1234567"))
	if i < 0 {
		t.Fatal("payload not found in segment")
	}
	blob[i] = '9'
	if err := os.WriteFile(seg, blob, 0o644); err != nil {
		t.Fatal(err)
	}
	st, err = OpenPlanStore(dir)
	if err != nil {
		t.Fatalf("open with corrupt record failed: %v", err)
	}
	defer st.Close()
	if _, ok, _ := st.Get("k1"); ok {
		t.Fatal("corrupt k1 still served")
	}
	if payload, ok, err := st.Get("k2"); err != nil || !ok || string(payload) != `{"b":2}` {
		t.Fatalf("Get(k2) = (%q, %v, %v)", payload, ok, err)
	}
}

// TestStoreLineCap pins maxStoreLine at both ends of the store: Put
// accepts a record whose line sits exactly at the cap and refuses one
// byte more, so the store never writes a line its readers would skip;
// and an over-cap line planted on disk is skipped on reopen (logged,
// counted dead) and by the stream (which re-synchronizes the cursor
// with a header), without losing the records around it.
func TestStoreLineCap(t *testing.T) {
	dir := t.TempDir()
	var log logRecorder
	st, err := OpenPlanStore(dir, WithStoreLogf(log.logf))
	if err != nil {
		t.Fatal(err)
	}
	payload := bytes.Repeat([]byte("x"), maxStoreLine-200)
	payload[0], payload[len(payload)-1] = '"', '"'
	// The key pads the line to the cap without touching the CRC.
	key := strings.Repeat("k", 1+maxStoreLine-len(recordLine(t, "k", payload)))
	if n := len(recordLine(t, key, payload)); n != maxStoreLine {
		t.Fatalf("test line is %d bytes, want exactly %d", n, maxStoreLine)
	}
	if err := st.Put(key, payload); err != nil {
		t.Fatalf("a line at the cap was refused: %v", err)
	}
	if err := st.Put(key+"k", payload); err == nil {
		t.Fatal("a line one byte over the cap was written")
	}
	if st.Records() != 1 {
		t.Fatalf("store holds %d records, want the one at the cap", st.Records())
	}
	if err := st.Close(); err != nil {
		t.Fatal(err)
	}

	seg := filepath.Join(dir, "plans-000001.seg")
	f, err := os.OpenFile(seg, os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		t.Fatal(err)
	}
	fi, err := f.Stat()
	if err != nil {
		t.Fatal(err)
	}
	small := recordLine(t, "small", []byte(`{"v":1}`))
	if _, err := f.Write(append(bytes.Repeat([]byte("y"), maxStoreLine+1), '\n')); err != nil {
		t.Fatal(err)
	}
	if _, err := f.Write(append(small, '\n')); err != nil {
		t.Fatal(err)
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}
	st, err = OpenPlanStore(dir, WithStoreLogf(log.logf))
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	if keys := st.Keys(); len(keys) != 2 || keys[0] != key || keys[1] != "small" {
		t.Fatalf("reopened store indexes %d keys, want the at-cap record and the one after the over-cap line", len(keys))
	}
	if !log.has(fmt.Sprintf("offset %d (%d bytes)", fi.Size(), maxStoreLine+2)) {
		t.Fatalf("over-cap line not logged at its offset; log: %.200q", log.lines)
	}
	var got []string
	if err := st.stream(context.Background(), storeCursor{}, false, func(line []byte) error {
		if len(line) > 1024 {
			got = append(got, fmt.Sprintf("<%d bytes>", len(line)))
		} else {
			got = append(got, string(line))
		}
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	want := []string{headerLine(1, 0), fmt.Sprintf("<%d bytes>", maxStoreLine), headerLine(1, fi.Size()+maxStoreLine+2), string(small)}
	if fmt.Sprint(got) != fmt.Sprint(want) {
		t.Fatalf("stream = %q, want %q", got, want)
	}
}

// TestStoreCompaction pins the compaction contract: superseded and
// dropped records are reclaimed, live ones survive (also across
// rotated segments), and the rewritten store reopens identically.
func TestStoreCompaction(t *testing.T) {
	dir := t.TempDir()
	st, err := OpenPlanStore(dir, WithStoreCompactMinBytes(1<<30)) // no auto-compaction
	if err != nil {
		t.Fatal(err)
	}
	big := bytes.Repeat([]byte("x"), 4096)
	if err := st.Put("k1", []byte(fmt.Sprintf(`{"v":%q}`, big))); err != nil {
		t.Fatal(err)
	}
	if err := st.Put("k2", []byte(`{"keep":true}`)); err != nil {
		t.Fatal(err)
	}
	if err := st.Put("k1", []byte(`{"v":"small"}`)); err != nil { // supersedes the big record
		t.Fatal(err)
	}
	if err := st.Put("k3", []byte(`{"drop":true}`)); err != nil {
		t.Fatal(err)
	}
	st.Drop("k3")
	before := st.Bytes()
	if err := st.Compact(); err != nil {
		t.Fatal(err)
	}
	if got := st.Compactions(); got != 1 {
		t.Fatalf("compactions = %d, want 1", got)
	}
	if after := st.Bytes(); after >= before {
		t.Fatalf("compaction did not shrink the store: %d -> %d bytes", before, after)
	}
	if got := st.Records(); got != 2 {
		t.Fatalf("%d records after compaction, want 2", got)
	}
	for key, want := range map[string]string{"k1": `{"v":"small"}`, "k2": `{"keep":true}`} {
		if payload, ok, err := st.Get(key); err != nil || !ok || string(payload) != want {
			t.Fatalf("after compaction Get(%s) = (%q, %v, %v), want %q", key, payload, ok, err, want)
		}
	}
	segs, err := filepath.Glob(filepath.Join(dir, "plans-*.seg"))
	if err != nil {
		t.Fatal(err)
	}
	if len(segs) != 1 {
		t.Fatalf("%d segment files after compaction, want 1: %v", len(segs), segs)
	}
	if err := st.Close(); err != nil {
		t.Fatal(err)
	}
	st, err = OpenPlanStore(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	if got := st.Records(); got != 2 {
		t.Fatalf("reopened compacted store has %d records, want 2", got)
	}
}

// TestStoreRotationAndAutoCompaction: a tiny segment threshold rotates
// on every Put and replay spans the files; a superseded record larger
// than the live data triggers the size-based compaction from inside
// Put itself.
func TestStoreRotationAndAutoCompaction(t *testing.T) {
	dir := t.TempDir()
	st, err := OpenPlanStore(dir, WithStoreSegmentBytes(1), WithStoreCompactMinBytes(1<<30))
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 3; i++ {
		if err := st.Put(fmt.Sprintf("k%d", i), []byte(fmt.Sprintf(`{"i":%d}`, i))); err != nil {
			t.Fatal(err)
		}
	}
	segs, _ := filepath.Glob(filepath.Join(dir, "plans-*.seg"))
	if len(segs) < 3 {
		t.Fatalf("%d segment files with 1-byte rotation threshold, want >= 3", len(segs))
	}
	if err := st.Close(); err != nil {
		t.Fatal(err)
	}
	st, err = OpenPlanStore(dir)
	if err != nil {
		t.Fatal(err)
	}
	if got := st.Records(); got != 3 {
		t.Fatalf("replay across rotated segments found %d records, want 3", got)
	}
	st.Close()

	auto, err := OpenPlanStore(t.TempDir(), WithStoreCompactMinBytes(1))
	if err != nil {
		t.Fatal(err)
	}
	defer auto.Close()
	big := fmt.Sprintf(`{"v":%q}`, bytes.Repeat([]byte("y"), 4096))
	if err := auto.Put("k", []byte(big)); err != nil {
		t.Fatal(err)
	}
	if err := auto.Put("k", []byte(`{"v":1}`)); err != nil {
		t.Fatal(err)
	}
	if got := auto.Compactions(); got != 1 {
		t.Fatalf("auto compactions = %d, want 1 (dead %d bytes should outweigh live)", got, auto.Bytes())
	}
	if payload, ok, err := auto.Get("k"); err != nil || !ok || string(payload) != `{"v":1}` {
		t.Fatalf("after auto compaction Get(k) = (%q, %v, %v)", payload, ok, err)
	}
}

// TestStoreDecodeGuards pins the always-on integrity checks: a record
// filed under the wrong key, or whose payload was tampered with, is
// dropped and re-planned — never served.
func TestStoreDecodeGuards(t *testing.T) {
	ctx := context.Background()
	scA := NewScenario(WithFamily("genome"), WithTasks(40), WithProcs(3))
	scB := NewScenario(WithFamily("genome"), WithTasks(40), WithProcs(3), WithSeed(99))
	pA, err := NewPlan(ctx, scA)
	if err != nil {
		t.Fatal(err)
	}
	payloadA, err := encodePlan(pA)
	if err != nil {
		t.Fatal(err)
	}

	st, err := OpenPlanStore(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	// scA's plan filed under scB's key: the decoded scenario hashes to
	// scA, so the key check must reject it.
	if err := st.Put(scB.Key(), payloadA); err != nil {
		t.Fatal(err)
	}
	// A tampered expected makespan with a fresh CRC: framing-valid, but
	// the recomputed estimate cannot match the stored bits.
	var sp storedPlan
	if err := json.Unmarshal(payloadA, &sp); err != nil {
		t.Fatal(err)
	}
	sp.EMBits++
	tampered, err := json.Marshal(sp)
	if err != nil {
		t.Fatal(err)
	}
	if err := st.Put(scA.Key(), tampered); err != nil {
		t.Fatal(err)
	}

	var calls atomic.Int64
	svc := NewService(WithPlanStore(st), WithPlanner(countingPlanner(&calls)))
	defer svc.CloseStore()
	for i, sc := range []Scenario{scA, scB} {
		p, err := svc.Plan(ctx, sc)
		if err != nil {
			t.Fatal(err)
		}
		if p.ExpectedMakespan() != pA.ExpectedMakespan() && sc.Key() == scA.Key() {
			t.Errorf("scenario %d: re-planned EM differs from reference", i)
		}
	}
	if got := calls.Load(); got != 2 {
		t.Fatalf("planner ran %d times, want 2 (both poisoned records re-planned)", got)
	}
	if st.Records() != 2 {
		t.Fatalf("store holds %d records, want 2 (poisoned records replaced by write-through)", st.Records())
	}
	// The rewritten records must now be the honest encodings.
	if payload, ok, err := st.Get(scA.Key()); err != nil || !ok || !bytes.Equal(payload, payloadA) {
		t.Fatalf("store record for scA was not repaired (ok=%v err=%v)", ok, err)
	}
}

// TestStoreVerifyMode pins what WithStoreVerify adds beyond the
// structural checks: a record describing a *consistent but different*
// plan (here: ExitOnly's checkpoint marks filed as the CkptSome plan,
// with all cross-check bits made self-consistent) decodes fine without
// verify — and is caught, dropped and re-planned with verify on.
func TestStoreVerifyMode(t *testing.T) {
	ctx := context.Background()
	// High pfail so CkptSome places interior checkpoints and genuinely
	// differs from ExitOnly.
	some := NewScenario(WithFamily("genome"), WithTasks(50), WithProcs(5), WithPFail(0.05))
	exit := NewScenario(WithFamily("genome"), WithTasks(50), WithProcs(5), WithPFail(0.05), WithStrategy(ExitOnly))
	pSome, err := NewPlan(ctx, some)
	if err != nil {
		t.Fatal(err)
	}
	pExit, err := NewPlan(ctx, exit)
	if err != nil {
		t.Fatal(err)
	}
	if pSome.NumCheckpoints() == pExit.NumCheckpoints() {
		t.Fatal("test needs CkptSome and ExitOnly to place different checkpoints; pick other knobs")
	}
	honest, err := encodePlan(pSome)
	if err != nil {
		t.Fatal(err)
	}
	alt, err := encodePlan(pExit)
	if err != nil {
		t.Fatal(err)
	}
	var spHonest, spAlt storedPlan
	if err := json.Unmarshal(honest, &spHonest); err != nil {
		t.Fatal(err)
	}
	if err := json.Unmarshal(alt, &spAlt); err != nil {
		t.Fatal(err)
	}
	// The splice: CkptSome's scenario carrying ExitOnly's plan
	// artifacts. Every recomputable quantity (segments, EM, FFM) is
	// consistent with the marks, so structural decoding accepts it.
	spliced := spHonest
	spliced.Chains = spAlt.Chains
	spliced.Checkpoints = spAlt.Checkpoints
	spliced.Segments = spAlt.Segments
	spliced.EMBits = spAlt.EMBits
	spliced.FFMBits = spAlt.FFMBits
	payload, err := json.Marshal(spliced)
	if err != nil {
		t.Fatal(err)
	}

	makeStore := func() *PlanStore {
		st, err := OpenPlanStore(t.TempDir())
		if err != nil {
			t.Fatal(err)
		}
		if err := st.Put(some.Key(), payload); err != nil {
			t.Fatal(err)
		}
		return st
	}

	// Without verify the spliced record is structurally fine and gets
	// served — demonstrating exactly the gap verify mode closes.
	var lazyCalls atomic.Int64
	lazy := NewService(WithPlanStore(makeStore()), WithPlanner(countingPlanner(&lazyCalls)))
	defer lazy.CloseStore()
	p, err := lazy.Plan(ctx, some)
	if err != nil {
		t.Fatal(err)
	}
	if lazyCalls.Load() != 0 || p.NumCheckpoints() != pExit.NumCheckpoints() {
		t.Fatalf("spliced record should pass structural checks (planner calls %d, checkpoints %d)",
			lazyCalls.Load(), p.NumCheckpoints())
	}

	// With verify the golden check against a fresh reference rejects
	// it: the scenario is re-planned and the record repaired.
	var verifyCalls atomic.Int64
	strict := NewService(WithPlanStore(makeStore()), WithStoreVerify(), WithPlanner(countingPlanner(&verifyCalls)))
	defer strict.CloseStore()
	p, err = strict.Plan(ctx, some)
	if err != nil {
		t.Fatal(err)
	}
	if p.NumCheckpoints() != pSome.NumCheckpoints() {
		t.Fatalf("verify mode served %d checkpoints, want the honest %d", p.NumCheckpoints(), pSome.NumCheckpoints())
	}
	if verifyCalls.Load() == 0 {
		t.Fatal("verify mode never re-planned the tampered record")
	}
	// A follower applies the same gate to records from a peer: the
	// spliced record is absorbed without verify and rejected with it.
	// One worker keeps the order, so the honest sentinel after it
	// marks the end.
	for _, tc := range []struct {
		opts             []ServiceOption
		absorbed, failed int
	}{
		{nil, 2, 0},
		{[]ServiceOption{WithStoreVerify()}, 1, 1},
	} {
		peer := fakePeer(t, []byte(headerLine(1, 0)), recordLine(t, some.Key(), payload), recordLine(t, exit.Key(), alt))
		follower := NewService(tc.opts...)
		stop := follow(t, follower, peer.URL, 1)
		waitStoreLoads(t, follower, uint64(tc.absorbed))
		if absorbed, failed, _ := stop(); absorbed != tc.absorbed || failed != tc.failed {
			t.Fatalf("follower %d options: absorbed %d / failed %d, want %d / %d", len(tc.opts), absorbed, failed, tc.absorbed, tc.failed)
		}
	}
}

// FuzzDecodePlan feeds arbitrary record payloads to decodePlan under a
// real record's key. The key is checked before anything is
// materialized, so the fuzzer explores the schedule, checkpoint and
// cross-check decoding of small plans without triggering a large
// generation. decodePlan must never panic, and a plan it accepts must
// re-encode to a payload that decodes under the same key and encodes
// back to the same bytes.
func FuzzDecodePlan(f *testing.F) {
	ctx := context.Background()
	for _, sc := range []Scenario{
		NewScenario(WithFamily("genome"), WithTasks(20), WithProcs(3)),
		NewScenario(WithFamily("montage"), WithTasks(20), WithProcs(3), WithStrategy(CkptAll)),
		NewScenario(WithFamily("ligo"), WithTasks(20), WithProcs(2), WithStrategy(CkptNone)),
		NewScenario(WithFamily("cybershake"), WithTasks(20), WithProcs(3), WithStrategy(ExitOnly), WithExactCostModel()),
	} {
		p, err := NewPlan(ctx, sc)
		if err != nil {
			f.Fatal(err)
		}
		payload, err := encodePlan(p)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(sc.Key(), payload)
	}
	f.Fuzz(func(t *testing.T, key string, payload []byte) {
		p, err := decodePlan(ctx, key, payload)
		if err != nil {
			return
		}
		enc, err := encodePlan(p)
		if err != nil {
			t.Fatalf("accepted plan does not encode: %v", err)
		}
		p2, err := decodePlan(ctx, key, enc)
		if err != nil {
			t.Fatalf("re-encoded plan does not decode: %v\n%s", err, enc)
		}
		enc2, err := encodePlan(p2)
		if err != nil || !bytes.Equal(enc, enc2) {
			t.Fatalf("re-encoding is not stable (%v):\n%s\n%s", err, enc, enc2)
		}
	})
}

// FuzzScanSegment opens a store over an arbitrary segment file. The
// open must not panic; the index must hold exactly the keys of the
// complete, CRC-valid record lines (later lines win), each readable
// through Get as its line's payload; and the store stream must emit
// exactly the file's complete lines behind one header.
func FuzzScanSegment(f *testing.F) {
	var seg bytes.Buffer
	for _, rec := range []storeRecord{
		{Key: "k1", Plan: json.RawMessage(`{"v":1}`)},
		{Key: "k2", Plan: json.RawMessage(`{"v":2}`)},
		{Key: "k1", Plan: json.RawMessage(`{"v":3}`)},
	} {
		rec.CRC = crc32.ChecksumIEEE(rec.Plan)
		line, err := json.Marshal(rec)
		if err != nil {
			f.Fatal(err)
		}
		seg.Write(append(line, '\n'))
	}
	f.Add(seg.Bytes())
	f.Add(append(bytes.Clone(seg.Bytes()), `{"key":"k3","crc":`...))
	f.Add([]byte("\n\nnot json\n{}\n"))
	f.Add([]byte{})
	f.Fuzz(func(t *testing.T, data []byte) {
		dir := t.TempDir()
		if err := os.WriteFile(filepath.Join(dir, "plans-000001.seg"), data, 0o644); err != nil {
			t.Fatal(err)
		}
		st, err := OpenPlanStore(dir)
		if err != nil {
			t.Fatalf("open: %v", err)
		}
		defer st.Close()

		lines := bytes.Split(data, []byte("\n"))
		complete := lines[:len(lines)-1]
		want := map[string][]byte{}
		for _, line := range complete {
			var rec storeRecord
			if json.Unmarshal(line, &rec) == nil && rec.Key != "" && crc32.ChecksumIEEE(rec.Plan) == rec.CRC {
				want[rec.Key] = rec.Plan
			}
		}
		keys := st.Keys()
		if len(keys) != len(want) {
			t.Fatalf("indexed %d keys, want %d", len(keys), len(want))
		}
		for _, k := range keys {
			payload, ok, err := st.Get(k)
			if !ok || err != nil || !bytes.Equal(payload, want[k]) {
				t.Fatalf("Get(%q) = %q, %v, %v; want %q", k, payload, ok, err, want[k])
			}
		}

		var got [][]byte
		if err := st.stream(context.Background(), storeCursor{}, false, func(line []byte) error {
			got = append(got, bytes.Clone(line))
			return nil
		}); err != nil {
			t.Fatalf("stream: %v", err)
		}
		if len(got) == 0 || string(got[0]) != `{"segment":1,"offset":0}` {
			t.Fatalf("stream does not open with the segment header: %q", got)
		}
		if len(got)-1 != len(complete) {
			t.Fatalf("stream emitted %d lines, want the file's %d complete ones", len(got)-1, len(complete))
		}
		for i, line := range complete {
			if !bytes.Equal(got[i+1], line) {
				t.Fatalf("stream line %d = %q, want %q", i, got[i+1], line)
			}
		}
	})
}
