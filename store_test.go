package hanccr

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"hash/crc32"
	"math"
	"net/http/httptest"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"sync"
	"sync/atomic"
	"testing"

	"repro/internal/mspg"
)

// storeTestScenarios is a spread over strategies, families, the exact
// cost model and an injected document.
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

// countingPlanner counts real planner runs. It disables the scaffold
// cache (see WithPlanner), so every cold plan, a reload's included, is
// one call.
func countingPlanner(calls *atomic.Int64) func(ctx context.Context, sc Scenario) (*Plan, error) {
	return func(ctx context.Context, sc Scenario) (*Plan, error) {
		calls.Add(1)
		return NewPlan(ctx, sc)
	}
}

// TestStoreRoundTripByteIdentical is the store's core contract: a plan
// rehydrated from disk by a process that counts no planner miss answers
// Plan/Estimate/Simulate and the HTTP plan endpoint byte-identical to a
// freshly planned reference.
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

	// Reader process: same directory. LoadStore must rehydrate every
	// record, as store loads, not misses.
	reader := NewService(WithStore(dir), WithShards(4))
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
		if got, want := planBytes(t, gotPlan), planBytes(t, refPlan); !bytes.Equal(got, want) {
			t.Fatalf("scenario %d: rehydrated plan differs from a fresh one:\n%s\n%s", i, got, want)
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
	if st := reader.Stats(); st.Misses != 0 || st.StructureHits != 0 {
		t.Fatalf("reader counted %d planner misses and %d structure hits, want 0 and 0", st.Misses, st.StructureHits)
	}
}

// planBytes renders everything a plan answers with, floats exactly: its
// store payload (the scenario and the makespan bits), the workflow
// summary, the superchains with their checkpoint marks, and the
// segments.
func planBytes(t testing.TB, p *Plan) []byte {
	t.Helper()
	payload, err := encodePlan(p)
	if err != nil {
		t.Fatal(err)
	}
	b, err := json.Marshal(struct {
		Payload     json.RawMessage
		Workflow    WorkflowInfo
		Superchains []Superchain
		Segments    []SegmentInfo
	}{payload, p.Workflow(), p.Superchains(), p.Segments()})
	if err != nil {
		t.Fatal(err)
	}
	return b
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
// request — counted as a store hit, not a planner miss; the reload
// plans the record's scenario, so every planner run after the first
// pass is a store hit — and every response stays byte-identical to a
// storeless reference. Shards 1 and
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
			st := svc.Stats()
			if got := calls.Load(); got != int64(len(scenarios))+int64(st.StoreHits) {
				t.Fatalf("planner ran %d times, want %d misses + %d store hits", got, len(scenarios), st.StoreHits)
			}
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

// TestStoreCorruptRecordSkipped flips a byte inside a mid-file record,
// and plants records that encoding/json reads with a CRC that holds but
// that are not in the store's one form: fields reordered, or a space
// after a colon. The CRC catches the flip at open; the others fail the
// frame parser. Each is dropped, counted as dead bytes and logged with
// its offset, and the records around them survive.
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
	flipped := bytes.IndexByte(blob, '\n') + 1
	c3 := []byte(`{"c":3}`)
	crc3 := crc32.ChecksumIEEE(c3)
	nonCanonical := [][]byte{
		fmt.Appendf(nil, `{"crc":%d,"key":"k3","plan":%s}`, crc3, c3),
		fmt.Appendf(nil, `{"key": "k3","crc":%d,"plan":%s}`, crc3, c3),
	}
	var offsets []int
	for _, line := range nonCanonical {
		var rec storeRecord
		if err := json.Unmarshal(line, &rec); err != nil || rec.Key != "k3" || rec.CRC != crc3 {
			t.Fatalf("%s: want a record encoding/json reads with a CRC that holds (%v)", line, err)
		}
		offsets = append(offsets, len(blob))
		blob = append(append(blob, line...), '\n')
	}
	blob = append(append(blob, recordLine(t, "k4", []byte(`{"d":4}`))...), '\n')
	if err := os.WriteFile(seg, blob, 0o644); err != nil {
		t.Fatal(err)
	}
	var log logRecorder
	st, err = openPlanStore(dir, log.logf)
	if err != nil {
		t.Fatalf("open with corrupt record failed: %v", err)
	}
	defer st.Close()
	for _, key := range []string{"k1", "k3"} {
		if _, ok, _ := st.Get(key); ok {
			t.Fatalf("corrupt %s still served", key)
		}
	}
	for key, want := range map[string]string{"k2": `{"b":2}`, "k4": `{"d":4}`} {
		if payload, ok, err := st.Get(key); err != nil || !ok || string(payload) != want {
			t.Fatalf("Get(%s) = (%q, %v, %v), want %q", key, payload, ok, err, want)
		}
	}
	if want := int64(flipped + len(nonCanonical[0]) + len(nonCanonical[1]) + 2); st.dead != want {
		t.Fatalf("%d dead bytes, want %d: the flipped record and the two lines in another form", st.dead, want)
	}
	for _, off := range append([]int{0}, offsets...) {
		if !log.has(fmt.Sprintf("skipping corrupt record at offset %d ", off)) {
			t.Fatalf("corrupt record at offset %d not logged; log: %q", off, log.lines)
		}
	}
}

// TestStoreBitRotAfterOpen rots a record on disk after the open-time
// scan indexed it: a digit of its payload, a byte of its key (its high
// bit, so the key is no longer plain), or the last digit of its CRC.
// Get parses and checks the line as the scan does, so in each case it
// reports the record as present but untrusted, and a reopen skips the
// line as corrupt. A Service over the store with the rotten payload
// drops the record, re-plans it once and answers exactly as a cold
// plan does.
func TestStoreBitRotAfterOpen(t *testing.T) {
	ctx := context.Background()
	sc := NewScenario(WithFamily("genome"), WithTasks(40), WithProcs(3))
	cold, err := NewPlan(ctx, sc)
	if err != nil {
		t.Fatal(err)
	}
	want := planBytes(t, cold)
	nextDigit := func(c byte) byte { return '0' + (c-'0'+1)%10 }
	for _, tc := range []struct {
		name    string
		rot     func(line []byte) int // the index of the byte to change
		to      func(c byte) byte
		wantErr string
	}{
		{"payload", func(line []byte) int { return bytes.Index(line, []byte(`"em_bits":`)) + len(`"em_bits":`) }, nextDigit, "CRC"},
		{"key", func(line []byte) int { return len(`{"key":"`) + 5 }, func(c byte) byte { return c ^ 0x80 }, "not a store record"},
		{"crc", func(line []byte) int { return bytes.Index(line, []byte(`,"plan":`)) - 1 }, nextDigit, ""},
	} {
		t.Run(tc.name, func(t *testing.T) {
			dir := t.TempDir()
			writer := NewService(WithStore(dir))
			if _, err := writer.Plan(ctx, sc); err != nil {
				t.Fatal(err)
			}
			if err := writer.CloseStore(); err != nil {
				t.Fatal(err)
			}

			svc := NewService(WithStore(dir))
			defer svc.CloseStore()
			seg := filepath.Join(dir, "plans-000001.seg")
			blob, err := os.ReadFile(seg)
			if err != nil {
				t.Fatal(err)
			}
			i := tc.rot(blob)
			f, err := os.OpenFile(seg, os.O_WRONLY, 0o644)
			if err != nil {
				t.Fatal(err)
			}
			if _, err := f.WriteAt([]byte{tc.to(blob[i])}, int64(i)); err != nil {
				t.Fatal(err)
			}
			if err := f.Close(); err != nil {
				t.Fatal(err)
			}
			if _, ok, err := svc.store.Get(sc.Key()); !ok || err == nil || !strings.Contains(err.Error(), tc.wantErr) {
				t.Fatalf("Get after rot = (ok %v, %v), want the record with an error naming %q", ok, err, tc.wantErr)
			}

			var log logRecorder
			reopened, err := openPlanStore(dir, log.logf)
			if err != nil {
				t.Fatal(err)
			}
			if n := reopened.Records(); n != 0 || !log.has("skipping corrupt record at offset 0 ") {
				t.Fatalf("reopen indexed %d records; log: %q; want the rotten line skipped as corrupt", n, log.lines)
			}
			if err := reopened.Close(); err != nil {
				t.Fatal(err)
			}
			if tc.name != "payload" {
				return
			}

			p, outcome, err := svc.PlanDetail(ctx, sc)
			if err != nil {
				t.Fatal(err)
			}
			if stats := svc.Stats(); outcome != CacheMiss || stats.Misses != 1 || stats.StoreHits != 0 {
				t.Fatalf("outcome %s, %d misses, %d store hits; want one re-plan", outcome, stats.Misses, stats.StoreHits)
			}
			if got := planBytes(t, p); !bytes.Equal(got, want) {
				t.Fatalf("re-planned answer differs from a cold NewPlan:\n%s\n%s", got, want)
			}
		})
	}
}

// TestStoreNonCanonicalPayloadDropped puts a real plan's v2 payload
// that is valid JSON, and decodes under encoding/json to the very same
// storedPlan, but is not in the store's canonical form: re-spaced, or
// with its fields reordered. The payload reader refuses it, so
// LoadStore drops the record, the next request re-plans it to the cold
// answer, and the write-through leaves the canonical record behind.
func TestStoreNonCanonicalPayloadDropped(t *testing.T) {
	ctx := context.Background()
	sc := NewScenario(WithFamily("montage"), WithTasks(40), WithProcs(4))
	cold, err := NewPlan(ctx, sc)
	if err != nil {
		t.Fatal(err)
	}
	canonical, err := encodePlan(cold)
	if err != nil {
		t.Fatal(err)
	}
	var fields map[string]json.RawMessage
	if err := json.Unmarshal(canonical, &fields); err != nil {
		t.Fatal(err)
	}
	reordered, err := json.Marshal(fields) // keys sorted: "chains" before "v"
	if err != nil {
		t.Fatal(err)
	}
	spaced := bytes.Replace(canonical, []byte(`,"em_bits":`), []byte(`, "em_bits": `), 1)
	unmarshal := func(payload []byte) (storedPlan, error) {
		var sp storedPlan
		err := json.Unmarshal(payload, &sp)
		return sp, err
	}
	wantSP, err := unmarshal(canonical)
	if err != nil {
		t.Fatal(err)
	}
	for name, payload := range map[string][]byte{"re-spaced": spaced, "reordered": reordered} {
		if sp, err := unmarshal(payload); err != nil || !reflect.DeepEqual(sp, wantSP) || bytes.Equal(payload, canonical) {
			t.Fatalf("%s: want a non-canonical spelling of the same storedPlan (%v)", name, err)
		}
		dir := t.TempDir()
		st, err := OpenPlanStore(dir)
		if err != nil {
			t.Fatal(err)
		}
		if err := st.Put(sc.Key(), payload); err != nil {
			t.Fatal(err)
		}
		if err := st.Close(); err != nil {
			t.Fatal(err)
		}

		var calls atomic.Int64
		svc := NewService(WithStore(dir), WithPlanner(countingPlanner(&calls)))
		if loaded, dropped, err := svc.LoadStore(ctx, 1); err != nil || loaded != 0 || dropped != 1 {
			t.Fatalf("%s: LoadStore = (%d loaded, %d dropped, %v), want (0, 1, nil)", name, loaded, dropped, err)
		}
		p, outcome, err := svc.PlanDetail(ctx, sc)
		if err != nil {
			t.Fatal(err)
		}
		if got, _ := encodePlan(p); outcome != CacheMiss || calls.Load() != 1 || !bytes.Equal(got, canonical) || !bytes.Equal(planBytes(t, p), planBytes(t, cold)) {
			t.Fatalf("%s: outcome %s after %d planner runs; want one re-plan to the cold answer", name, outcome, calls.Load())
		}
		if got, ok, err := svc.store.Get(sc.Key()); err != nil || !ok || !bytes.Equal(got, canonical) {
			t.Fatalf("%s: store holds (%d bytes, %v, %v), want the canonical record", name, len(got), ok, err)
		}
		if err := svc.CloseStore(); err != nil {
			t.Fatal(err)
		}
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
	st, err := openPlanStore(dir, log.logf)
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
	st, err = openPlanStore(dir, log.logf)
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

// TestStorePutFramesVerbatim pins Put's payload contract: a payload
// that is not valid JSON, or that holds a newline and would split its
// line, is refused; any other valid JSON is framed verbatim, so its
// CRC still matches after a reopen, where a re-marshalled record would
// have compacted or escaped it.
func TestStorePutFramesVerbatim(t *testing.T) {
	dir := t.TempDir()
	st, err := OpenPlanStore(dir)
	if err != nil {
		t.Fatal(err)
	}
	for _, bad := range []string{`{"a":`, `not json`, "{\"a\":\n1}", ""} {
		if err := st.Put("bad", []byte(bad)); err == nil {
			t.Errorf("Put(%q) was accepted", bad)
		}
	}
	verbatim := []byte(`{ "a" : "<&>" }`)
	if err := st.Put("k", verbatim); err != nil {
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
	if st.Records() != 1 {
		t.Fatalf("reopened store holds %d records, want 1", st.Records())
	}
	if got, ok, err := st.Get("k"); err != nil || !ok || !bytes.Equal(got, verbatim) {
		t.Fatalf("Get(k) = (%q, %v, %v), want %q", got, ok, err, verbatim)
	}
}

// TestStorePutRefusesUnreadableKeys pins Put's key contract: a key
// that is not plain — empty, not printable ASCII, or holding a quote,
// backslash, <, > or & — has no place in the store's one record form,
// so Put refuses it and writes nothing; a plain key still round-trips
// through a reopen.
func TestStorePutRefusesUnreadableKeys(t *testing.T) {
	dir := t.TempDir()
	st, err := OpenPlanStore(dir)
	if err != nil {
		t.Fatal(err)
	}
	payload := []byte(`{"a":1}`)
	for _, bad := range []string{"", "k\xff", "\xc3", "kéy", `q"uote`, `back\slash`, "<", "&", "tab\t", "\x7f"} {
		if err := st.Put(bad, payload); err == nil {
			t.Errorf("Put(%q) was accepted", bad)
		}
	}
	if st.Records() != 0 || st.Bytes() != 0 {
		t.Fatalf("store holds %d records in %d bytes after refused Puts, want nothing", st.Records(), st.Bytes())
	}
	if fi, err := os.Stat(filepath.Join(dir, "plans-000001.seg")); err != nil || fi.Size() != 0 {
		t.Fatalf("segment after refused Puts: %v, %v; want an empty file", fi, err)
	}
	const key = "plain key/1.0~"
	if err := st.Put(key, payload); err != nil {
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
	if st.Records() != 1 {
		t.Fatalf("reopened store holds %d records, want 1", st.Records())
	}
	if got, ok, err := st.Get(key); err != nil || !ok || !bytes.Equal(got, payload) {
		t.Fatalf("Get(%q) = (%q, %v, %v), want %q", key, got, ok, err, payload)
	}
}

// TestStoreCompaction pins the compaction contract: superseded and
// dropped records are reclaimed, live ones survive (also across
// rotated segments), and the rewritten store reopens identically.
func TestStoreCompaction(t *testing.T) {
	dir := t.TempDir()
	st, err := OpenPlanStore(dir)
	if err != nil {
		t.Fatal(err)
	}
	st.compactMin = 1 << 30 // no auto-compaction
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
	st, err := OpenPlanStore(dir)
	if err != nil {
		t.Fatal(err)
	}
	st.segBytes, st.compactMin = 1, 1<<30
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

	auto, err := OpenPlanStore(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	defer auto.Close()
	auto.compactMin = 1
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
// filed under the wrong key is dropped and re-planned as a miss, and a
// record whose check bits were tampered with is never served: its
// scenario is planned afresh, and the record is rewritten.
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

	var calls atomic.Int64
	svc := NewService(WithStore(t.TempDir()), WithPlanner(countingPlanner(&calls)))
	defer svc.CloseStore()
	st := svc.store
	// scA's plan filed under scB's key: the decoded scenario hashes to
	// scA, so the key check must reject it.
	if err := st.Put(scB.Key(), payloadA); err != nil {
		t.Fatal(err)
	}
	// A tampered expected makespan in a canonical v2 payload with a
	// fresh CRC: framing-valid, but the fresh plan cannot match the
	// stored bits.
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
		t.Fatalf("planner ran %d times, want 2 (each poisoned record planned once)", got)
	}
	if st.Records() != 2 {
		t.Fatalf("store holds %d records, want 2 (poisoned records replaced by write-through)", st.Records())
	}
	// The rewritten records must now be the honest encodings.
	if payload, ok, err := st.Get(scA.Key()); err != nil || !ok || !bytes.Equal(payload, payloadA) {
		t.Fatalf("store record for scA was not repaired (ok=%v err=%v)", ok, err)
	}
}

// TestStoreSpliceNeverServed plants a forged record: CkptSome's
// scenario carrying ExitOnly's superchains, checkpoint marks, segment
// metadata and makespan bits. Only a v1 payload can carry a plan, so
// the splice (testdata/store-v1/splice.json) was written by the v1
// encoder. A reload reads nothing of a record but its scenario, so a
// store hit and a follower both answer the honest CkptSome plan; the
// store hit plans once, logs the disagreeing bits and rewrites the
// record as v2.
func TestStoreSpliceNeverServed(t *testing.T) {
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
	splice, err := os.ReadFile(filepath.Join("testdata", "store-v1", "splice.json"))
	if err != nil {
		t.Fatal(err)
	}
	var sp storedPlan
	if err := json.Unmarshal(splice, &sp); err != nil || sp.Version != 1 || sp.Scenario.scenario().Key() != some.Key() ||
		sp.EMBits != math.Float64bits(pExit.ExpectedMakespan()) {
		t.Fatalf("splice.json is not a v1 record of CkptSome's scenario with ExitOnly's bits (%v)", err)
	}
	honest := planBytes(t, pSome)
	checkHonest := func(who string, p *Plan) {
		t.Helper()
		if p.NumCheckpoints() != pSome.NumCheckpoints() || !bytes.Equal(planBytes(t, p), honest) {
			t.Fatalf("%s served %d checkpoints, want the honest CkptSome plan's %d", who, p.NumCheckpoints(), pSome.NumCheckpoints())
		}
	}

	var calls atomic.Int64
	var log logRecorder
	svc := NewService(WithStore(t.TempDir()), WithPlanner(countingPlanner(&calls)), WithServiceLogf(log.logf))
	defer svc.CloseStore()
	if err := svc.store.Put(some.Key(), splice); err != nil {
		t.Fatal(err)
	}
	p, err := svc.Plan(ctx, some)
	if err != nil {
		t.Fatal(err)
	}
	checkHonest("store hit", p)
	if st := svc.Stats(); calls.Load() != 1 || st.StoreHits != 1 || st.Misses != 0 {
		t.Fatalf("%d planner runs, %d store hits, %d misses; want the splice reloaded once", calls.Load(), st.StoreHits, st.Misses)
	}
	if !log.has(some.Key()[:12], "disagrees with its fresh plan") {
		t.Fatalf("the splice's bits were not logged; log: %q", log.lines)
	}
	want, err := encodePlan(pSome)
	if err != nil {
		t.Fatal(err)
	}
	if got, ok, err := svc.store.Get(some.Key()); err != nil || !ok || !bytes.Equal(got, want) {
		t.Fatalf("store holds (%s, %v, %v), want the honest v2 record", got, ok, err)
	}

	// A follower reloads records from a peer the same way. One worker
	// keeps the order, so the honest record after the splice marks the
	// end.
	alt, err := encodePlan(pExit)
	if err != nil {
		t.Fatal(err)
	}
	peer := fakePeer(t, []byte(headerLine(1, 0)), recordLine(t, some.Key(), splice), recordLine(t, exit.Key(), alt))
	follower := NewService()
	stop := follow(t, follower, peer.URL, 1)
	waitStoreLoads(t, follower, 2)
	if absorbed, failed, _ := stop(); absorbed != 2 || failed != 0 {
		t.Fatalf("follower absorbed %d / failed %d, want 2 / 0", absorbed, failed)
	}
	p, outcome, err := follower.PlanDetail(ctx, some)
	if err != nil || outcome != CacheHit {
		t.Fatalf("follower: outcome %s, %v; want a hit on the absorbed plan", outcome, err)
	}
	checkHonest("follower", p)
}

// FuzzDecodePlan feeds arbitrary record payloads to decodePlan under a
// real record's key, seeded with v2 payloads (storeLineSeeds) and the
// v1 payloads of the upgrade segment. decodePlan must never panic. A
// payload it accepts holds a scenario that hashes to the key, and that
// scenario's plan encodes to a v2 payload that decodes under the same
// key back to the same scenario. The key check keeps accepted payloads
// on the seeds' small scenarios, so planning one stays cheap.
func FuzzDecodePlan(f *testing.F) {
	ctx := context.Background()
	for _, payload := range storeLineSeeds(f) {
		sp, err := readPayload(payload)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(sp.Scenario.scenario().Key(), payload)
	}
	for _, rec := range v1Records(f) {
		f.Add(rec.key, rec.payload)
	}
	f.Fuzz(func(t *testing.T, key string, payload []byte) {
		sc, _, err := decodePlan(key, payload)
		if err != nil {
			return
		}
		if got := sc.Key(); got != key {
			t.Fatalf("accepted a scenario that hashes to %s under key %s", got, key)
		}
		p, err := NewPlan(ctx, sc)
		if err != nil {
			t.Fatalf("accepted scenario does not plan: %v", err)
		}
		enc, err := encodePlan(p)
		if err != nil {
			t.Fatalf("plan does not encode: %v", err)
		}
		back, sp, err := decodePlan(key, enc)
		if err != nil || sp.Version != storeFormatVersion || !reflect.DeepEqual(back.stored(), sc.stored()) {
			t.Fatalf("re-encoded plan decodes to v%d %+v, %v; want the accepted scenario\n%s", sp.Version, back.stored(), err, enc)
		}
	})
}

// FuzzScanSegment opens a store over an arbitrary segment file. The
// open must not panic; the index must hold exactly the keys of the
// complete lines in the store's one record form, with a plain key, a
// CRC that holds and a valid payload (refParseRecord; later lines
// win), each readable through Get as its line's payload; and the store
// stream must emit exactly the file's complete lines behind one header.
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
	// Records encoding/json reads, with a CRC that holds, in other forms.
	var other []byte
	for _, format := range []string{
		`{"crc":%d,"key":"k4","plan":{"v":4}}`,
		`{"key": "k4","crc":%d,"plan":{"v":4}}`,
		`{"key":"k4","crc":%d,"plan": {"v":4}}`,
		`{"key":"k\u0034","crc":%d,"plan":{"v":4}}`,
	} {
		other = append(fmt.Appendf(other, format, crc32.ChecksumIEEE([]byte(`{"v":4}`))), '\n')
	}
	f.Add(other)
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
			if key, payload, ok := refParseRecord(line); ok {
				want[key] = payload
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

// TestLoadStoreSharedStructures boots a Service from a store holding
// several parameter variants of each of two structures. LoadStore plans
// every record through the scaffold cache, so the variants of one
// structure share its Algorithm 1 run: every reloaded plan must be
// identical to a cold NewPlan and own a private workflow, the boot must
// count no miss and no structure hit and leave one resident scaffold
// per structure, and a new parameter variant of a loaded structure is a
// structure-hit.
func TestLoadStoreSharedStructures(t *testing.T) {
	ctx := context.Background()
	variant := func(fam string, i int) Scenario {
		return NewScenario(WithFamily(fam), WithTasks(40), WithProcs(3), WithSeed(31),
			WithPFail(0.001*float64(1+i)), WithCCR(0.01*float64(1+i%2)),
			WithStrategy([]Strategy{CkptSome, CkptAll, CkptNone}[i%3]))
	}
	var scenarios []Scenario
	for _, fam := range []string{"genome", "montage"} {
		for i := 0; i < 4; i++ {
			scenarios = append(scenarios, variant(fam, i))
		}
	}
	dir := t.TempDir()
	writer := NewService(WithStore(dir))
	for _, sc := range scenarios {
		if _, err := writer.Plan(ctx, sc); err != nil {
			t.Fatal(err)
		}
	}
	if err := writer.CloseStore(); err != nil {
		t.Fatal(err)
	}

	svc := NewService(WithStore(dir))
	defer svc.CloseStore()
	loaded, dropped, err := svc.LoadStore(ctx, 4)
	if err != nil || loaded != len(scenarios) || dropped != 0 {
		t.Fatalf("LoadStore: %d loaded, %d dropped, %v; want %d, 0, nil", loaded, dropped, err, len(scenarios))
	}
	graphs := map[*mspg.Workflow]int{}
	for i, sc := range scenarios {
		p, outcome, err := svc.PlanDetail(ctx, sc)
		if err != nil || outcome != CacheHit {
			t.Fatalf("scenario %d: outcome %s, %v; want a hit on the loaded plan", i, outcome, err)
		}
		cold, err := NewPlan(ctx, sc)
		if err != nil {
			t.Fatal(err)
		}
		if got, want := planBytes(t, p), planBytes(t, cold); !bytes.Equal(got, want) {
			t.Fatalf("scenario %d: loaded plan differs from a cold NewPlan:\n%s\n%s", i, got, want)
		}
		w := p.res.Schedule.W
		if j, dup := graphs[w]; dup {
			t.Fatalf("scenarios %d and %d share one workflow", j, i)
		}
		graphs[w] = i
	}
	if st := svc.Stats(); st.Misses != 0 || st.StructureHits != 0 || st.StructureEntries != 2 {
		t.Fatalf("boot counted %d misses and %d structure hits and left %d scaffolds, want 0, 0 and 2",
			st.Misses, st.StructureHits, st.StructureEntries)
	}
	if _, outcome, err := svc.PlanDetail(ctx, variant("genome", 4)); err != nil || outcome != CacheStructureHit {
		t.Fatalf("new variant of a loaded structure: outcome %s, %v; want a structure-hit", outcome, err)
	}
}

// v1Segment is a segment the format-v1 store wrote: the four families
// under CkptSome and CkptNone at 30 to 60 tasks, and one injected
// workflow_json document, each record holding its whole solved plan.
var v1Segment = filepath.Join("testdata", "store-v1", "plans-000001.seg")

// v1Record is one record of v1Segment.
type v1Record struct {
	key     string
	payload []byte
}

// v1Records returns v1Segment's records.
func v1Records(tb testing.TB) []v1Record {
	tb.Helper()
	blob, err := os.ReadFile(v1Segment)
	if err != nil {
		tb.Fatal(err)
	}
	var out []v1Record
	for _, line := range bytes.Split(bytes.TrimSuffix(blob, []byte("\n")), []byte("\n")) {
		key, payload, ok := refParseRecord(line)
		if !ok {
			tb.Fatalf("%s: not a store record: %.80s", v1Segment, line)
		}
		out = append(out, v1Record{key, payload})
	}
	return out
}

// TestStoreUpgradeFromV1 boots a Service over a copy of v1Segment:
// LoadStore loads every record and drops none, every answer is
// identical to a cold NewPlan, every record is v2 afterwards, and after
// Compact the segment holds v2 lines only.
func TestStoreUpgradeFromV1(t *testing.T) {
	ctx := context.Background()
	recs := v1Records(t)
	if len(recs) != 9 {
		t.Fatalf("%s holds %d records, want 9", v1Segment, len(recs))
	}
	blob, err := os.ReadFile(v1Segment)
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	if err := os.WriteFile(filepath.Join(dir, "plans-000001.seg"), blob, 0o644); err != nil {
		t.Fatal(err)
	}
	var log logRecorder
	svc := NewService(WithStore(dir), WithServiceLogf(log.logf))
	defer svc.CloseStore()
	if loaded, dropped, err := svc.LoadStore(ctx, 2); err != nil || loaded != len(recs) || dropped != 0 {
		t.Fatalf("LoadStore = (%d loaded, %d dropped, %v), want (%d, 0, nil)", loaded, dropped, err, len(recs))
	}
	injected := 0
	for _, rec := range recs {
		var sp storedPlan
		if err := json.Unmarshal(rec.payload, &sp); err != nil || sp.Version != 1 {
			t.Fatalf("%.12s: want a v1 payload (%v)", rec.key, err)
		}
		sc := sp.Scenario.scenario()
		if !sc.Generated() {
			injected++
		}
		p, outcome, err := svc.PlanDetail(ctx, sc)
		if err != nil || outcome != CacheHit {
			t.Fatalf("%.12s: outcome %s, %v; want a hit on the loaded plan", rec.key, outcome, err)
		}
		cold, err := NewPlan(ctx, sc)
		if err != nil {
			t.Fatal(err)
		}
		if got, want := planBytes(t, p), planBytes(t, cold); !bytes.Equal(got, want) {
			t.Fatalf("%.12s: upgraded plan differs from a cold NewPlan:\n%s\n%s", rec.key, got, want)
		}
		want, err := encodePlan(cold)
		if err != nil {
			t.Fatal(err)
		}
		if got, ok, err := svc.store.Get(rec.key); err != nil || !ok || !bytes.Equal(got, want) {
			t.Fatalf("%.12s: store holds (%s, %v, %v), want the v2 record", rec.key, got, ok, err)
		}
	}
	if injected != 1 {
		t.Fatalf("%s holds %d injected documents, want 1", v1Segment, injected)
	}
	if st := svc.Stats(); st.Misses != 0 || st.StructureHits != 0 {
		t.Fatalf("upgrade counted %d misses and %d structure hits, want 0 and 0", st.Misses, st.StructureHits)
	}
	if log.has("disagrees") {
		t.Fatalf("a v1 record's bits disagree with its fresh plan; log: %q", log.lines)
	}
	if err := svc.store.Compact(); err != nil {
		t.Fatal(err)
	}
	segs, err := filepath.Glob(filepath.Join(dir, "plans-*.seg"))
	if err != nil || len(segs) != 1 {
		t.Fatalf("segments after compaction: %v, %v; want one", segs, err)
	}
	blob, err = os.ReadFile(segs[0])
	if err != nil {
		t.Fatal(err)
	}
	lines := bytes.Split(bytes.TrimSuffix(blob, []byte("\n")), []byte("\n"))
	if len(lines) != len(recs) {
		t.Fatalf("compacted segment holds %d lines, want %d", len(lines), len(recs))
	}
	for _, line := range lines {
		_, payload, ok := refParseRecord(line)
		if sp, err := readPayload(payload); !ok || err != nil || sp.Version != storeFormatVersion {
			t.Fatalf("compacted line is not a v2 record (%v): %.120s", err, line)
		}
	}
}

// TestStoreRecordSize pins the size of a v2 record: a 300-task CkptSome
// record of each family, line framing included, is under 1 KB.
func TestStoreRecordSize(t *testing.T) {
	for _, fam := range []string{"genome", "montage", "ligo", "cybershake"} {
		sc := NewScenario(WithFamily(fam), WithTasks(300), WithStrategy(CkptSome))
		p, err := NewPlan(context.Background(), sc)
		if err != nil {
			t.Fatal(err)
		}
		payload, err := encodePlan(p)
		if err != nil {
			t.Fatal(err)
		}
		if line := encodeRecord(sc.Key(), payload); len(line) >= 1024 {
			t.Errorf("%s: a 300-task record takes %d bytes, want under 1 KB:\n%s", fam, len(line), line)
		}
	}
}
