package hanccr

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"hash/crc32"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// tailScenario is the small scenario the follower tests plan by seed.
func tailScenario(seed int64) Scenario {
	return NewScenario(WithFamily("genome"), WithTasks(30), WithProcs(3), WithSeed(seed))
}

// recordLine is the segment line Put writes for (key, payload),
// newline stripped.
func recordLine(t testing.TB, key string, payload []byte) []byte {
	t.Helper()
	line, err := json.Marshal(storeRecord{Key: key, CRC: crc32.ChecksumIEEE(payload), Plan: payload})
	if err != nil {
		t.Fatal(err)
	}
	return line
}

// planRecord plans tailScenario(seed) and returns its key and payload.
func planRecord(t *testing.T, seed int64) (string, []byte) {
	t.Helper()
	sc := tailScenario(seed)
	p, err := NewPlan(context.Background(), sc)
	if err != nil {
		t.Fatal(err)
	}
	payload, err := encodePlan(p)
	if err != nil {
		t.Fatal(err)
	}
	return sc.Key(), payload
}

// streamSnapshot reads st's stream from cur without follow.
func streamSnapshot(t *testing.T, st *PlanStore, cur storeCursor) []string {
	t.Helper()
	var out []string
	if err := st.stream(context.Background(), cur, false, func(line []byte) error {
		out = append(out, string(line))
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	return out
}

// headerLine is the stream header for (seg, off).
func headerLine(seg uint64, off int64) string {
	return fmt.Sprintf(`{"segment":%d,"offset":%d}`, seg, off)
}

// streamedKeys returns the keys of the record lines among lines, in
// order, and the segments the headers entered.
func streamedKeys(t *testing.T, lines []string) (keys []string, segs []uint64) {
	t.Helper()
	for _, l := range lines {
		var msg struct {
			Key     string
			Segment *uint64
		}
		if err := json.Unmarshal([]byte(l), &msg); err != nil {
			t.Fatalf("stream line %q: %v", l, err)
		}
		if msg.Segment != nil {
			segs = append(segs, *msg.Segment)
			continue
		}
		keys = append(keys, msg.Key)
	}
	return keys, segs
}

// fakeKey is a distinct record key for stream tests that never decode.
func fakeKey(i int) string { return fmt.Sprintf("%064x", i) }

// follow runs svc.Follow against url in the background; stop cancels
// it, checks the follower's counters and returns its result. A test that fails first still cancels it
// at cleanup, before the peer's own cleanup waits for the stream to end.
func follow(t *testing.T, svc *Service, url string, workers int) (stop func() (absorbed, failed int, err error)) {
	ctx, cancel := context.WithCancel(context.Background())
	t.Cleanup(cancel)
	type result struct {
		absorbed, failed int
		err              error
	}
	resc := make(chan result, 1)
	go func() {
		a, f, err := svc.Follow(ctx, url, workers)
		resc <- result{a, f, err}
	}()
	return func() (int, int, error) {
		cancel()
		r := <-resc
		// A follower plans each record it absorbs, and counts it as a
		// store load only: never a planner miss or a structure hit.
		if st := svc.Stats(); st.Misses != 0 || st.StructureHits != 0 {
			t.Errorf("follower counted %d misses and %d structure hits, want 0 and 0", st.Misses, st.StructureHits)
		}
		return r.absorbed, r.failed, r.err
	}
}

// waitStoreLoads polls until svc has absorbed want distinct records.
func waitStoreLoads(t *testing.T, svc *Service, want uint64) {
	t.Helper()
	deadline := time.Now().Add(60 * time.Second)
	for {
		st := svc.Stats()
		if st.StoreLoads == want {
			return
		}
		if st.StoreLoads > want || time.Now().After(deadline) {
			t.Fatalf("follower stats %+v, want %d store loads", st, want)
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// TestTailLogFollowsAppends pins the follow contract of the store
// stream: records Put after the stream started arrive in write order
// without a reconnect, across segment rotations.
func TestTailLogFollowsAppends(t *testing.T) {
	st, err := OpenPlanStore(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	st.segBytes = 200
	put := func(i int) {
		t.Helper()
		if err := st.Put(fakeKey(i), []byte(fmt.Sprintf(`{"n":%d}`, i))); err != nil {
			t.Fatal(err)
		}
	}
	put(0)

	ctx, cancel := context.WithCancel(context.Background())
	lines := make(chan string, 64)
	done := make(chan error, 1)
	go func() {
		done <- st.stream(ctx, storeCursor{}, true, func(line []byte) error {
			lines <- string(line)
			return nil
		})
	}()
	const n = 8
	var got []string
	recv := func(keys int) {
		t.Helper()
		for {
			if k, _ := streamedKeys(t, got); len(k) >= keys {
				return
			}
			select {
			case l := <-lines:
				got = append(got, l)
			case <-time.After(10 * time.Second):
				t.Fatalf("stream delivered %q, want %d records", got, keys)
			}
		}
	}
	recv(1)
	for i := 1; i < n; i++ {
		put(i)
		recv(i + 1)
	}
	cancel()
	if err := <-done; !errors.Is(err, context.Canceled) {
		t.Fatalf("stream returned %v, want context.Canceled", err)
	}
	keys, segs := streamedKeys(t, got)
	for i, k := range keys {
		if k != fakeKey(i) {
			t.Fatalf("record %d has key %.12s, want %.12s (write order)", i, k, fakeKey(i))
		}
	}
	if len(segs) < 3 {
		t.Fatalf("stream entered segments %v, want rotations across at least 3", segs)
	}
	for i := 1; i < len(segs); i++ {
		if segs[i] <= segs[i-1] {
			t.Fatalf("segments entered out of order: %v", segs)
		}
	}
}

// TestTailLogOnceAndOffset pins snapshot mode and the resume rules: a
// snapshot is the segment files verbatim behind their header lines, a
// (segment, offset) cursor skips exactly the bytes already consumed, a
// cursor into a compacted-away segment resumes at offset 0 of the next
// higher one, and a cursor beyond the newest segment or beyond its
// segment's size restarts from the oldest.
func TestTailLogOnceAndOffset(t *testing.T) {
	dir := t.TempDir()
	st, err := OpenPlanStore(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	st.segBytes = 200
	const n = 5
	for i := 0; i < n; i++ {
		if err := st.Put(fakeKey(i), []byte(fmt.Sprintf(`{"n":%d}`, i))); err != nil {
			t.Fatal(err)
		}
	}

	var want []string
	for _, seq := range st.segments() {
		want = append(want, headerLine(seq, 0))
		blob, err := os.ReadFile(st.segPath(seq))
		if err != nil {
			t.Fatal(err)
		}
		if len(blob) > 0 {
			want = append(want, strings.Split(strings.TrimSuffix(string(blob), "\n"), "\n")...)
		}
	}
	all := streamSnapshot(t, st, storeCursor{})
	if strings.Join(all, "\n") != strings.Join(want, "\n") {
		t.Fatalf("snapshot:\n%s\nwant the segments verbatim behind headers:\n%s", strings.Join(all, "\n"), strings.Join(want, "\n"))
	}

	// The cursor after the third record, counted the way a follower
	// counts: header sets it, each record adds len(line)+1.
	var cur storeCursor
	records := 0
	for _, l := range all {
		if strings.HasPrefix(l, `{"segment"`) {
			if err := json.Unmarshal([]byte(l), &cur); err != nil {
				t.Fatal(err)
			}
			continue
		}
		if records == 3 {
			break
		}
		cur.Offset += int64(len(l)) + 1
		records++
	}
	if cur.Offset == 0 {
		t.Fatalf("resume cursor %+v sits at a segment start; the test needs one mid-segment", cur)
	}
	resumed := streamSnapshot(t, st, cur)
	if resumed[0] != headerLine(cur.Segment, cur.Offset) {
		t.Fatalf("resume header = %s, want %s", resumed[0], headerLine(cur.Segment, cur.Offset))
	}
	if keys, _ := streamedKeys(t, resumed); len(keys) != n-3 || keys[0] != fakeKey(3) {
		t.Fatalf("resume at %+v delivered keys %q, want the %d from %s on", cur, keys, n-3, fakeKey(3))
	}

	segs := st.segments()
	newest := segs[len(segs)-1]
	fi, err := os.Stat(st.segPath(newest))
	if err != nil {
		t.Fatal(err)
	}
	for _, reset := range []storeCursor{{Segment: newest + 7}, {Segment: newest, Offset: fi.Size() + 1}} {
		got := streamSnapshot(t, st, reset)
		if strings.Join(got, "\n") != strings.Join(all, "\n") {
			t.Fatalf("reset cursor %+v delivered\n%s\nwant a restart from the oldest segment", reset, strings.Join(got, "\n"))
		}
	}

	// Compaction deletes every segment the cursor can name; it resumes
	// at offset 0 of the compacted one, which holds every live record.
	if err := st.Compact(); err != nil {
		t.Fatal(err)
	}
	compacted := st.segments()
	if len(compacted) != 1 || compacted[0] <= newest {
		t.Fatalf("segments after compaction = %v, want one above %d", compacted, newest)
	}
	got := streamSnapshot(t, st, cur)
	if got[0] != headerLine(compacted[0], 0) {
		t.Fatalf("deleted-segment resume header = %s, want %s", got[0], headerLine(compacted[0], 0))
	}
	if keys, _ := streamedKeys(t, got); len(keys) != n {
		t.Fatalf("deleted-segment resume delivered %d records, want all %d live ones", len(keys), n)
	}
}

// TestTailLogSkipsSalvagedFragment pins the torn-tail contract across
// the wire: a partially written record is never streamed while it has
// no newline, and once the store's recovery newline turns it into a
// complete garbage line, the follower counts it as failed, never
// absorbs it, and keeps absorbing the records after it.
func TestTailLogSkipsSalvagedFragment(t *testing.T) {
	dir := t.TempDir()
	key1, payload1 := planRecord(t, 1)
	key2, payload2 := planRecord(t, 2)
	line1 := recordLine(t, key1, payload1)
	frag := recordLine(t, key2, payload2)[:40]
	seg := filepath.Join(dir, "plans-000001.seg")
	if err := os.WriteFile(seg, append(append(line1, '\n'), frag...), 0o644); err != nil {
		t.Fatal(err)
	}
	peerSvc := NewService(WithStore(dir))
	defer peerSvc.CloseStore()
	st := peerSvc.store
	if got := streamSnapshot(t, st, storeCursor{}); len(got) != 2 || got[1] != string(line1) {
		t.Fatalf("torn store streamed %q, want the header and the one complete record", got)
	}
	peer := httptest.NewServer(NewHandler(peerSvc))
	t.Cleanup(peer.Close)

	follower := NewService()
	stop := follow(t, follower, peer.URL, 2)
	waitStoreLoads(t, follower, 1)
	// The recovery: Put closes the fragment with a newline, then writes
	// the record in full.
	if err := st.Put(key2, payload2); err != nil {
		t.Fatal(err)
	}
	waitStoreLoads(t, follower, 2)
	absorbed, failed, err := stop()
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("Follow returned %v, want context.Canceled", err)
	}
	if absorbed != 2 || failed != 1 {
		t.Fatalf("Follow absorbed %d / failed %d, want 2 / 1 (the salvaged fragment)", absorbed, failed)
	}
	if st := follower.Stats(); st.Entries != 2 || st.Misses != 0 {
		t.Fatalf("follower stats %+v, want 2 entries and no misses", st)
	}
}

// TestTailUnderWriteRace follows a peer whose store takes concurrent
// writes through small rotating segments and repeated forced
// compactions while the follower streams it — the resume rules under
// -race. Every key the peer planned must reach the follower, none of
// them counted as a planner miss.
func TestTailUnderWriteRace(t *testing.T) {
	peerSvc := NewService(WithStore(t.TempDir()))
	defer peerSvc.CloseStore()
	st := peerSvc.store
	st.segBytes = 1 << 10 // a record is ~400 bytes
	peer := httptest.NewServer(NewHandler(peerSvc))
	t.Cleanup(peer.Close)

	follower := NewService()
	stop := follow(t, follower, peer.URL, 3)

	const writers, perWriter = 3, 4
	var wg sync.WaitGroup
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < perWriter; i++ {
				if _, err := peerSvc.Plan(context.Background(), tailScenario(int64(w*perWriter+i))); err != nil {
					t.Error(err)
				}
			}
		}(w)
	}
	compactDone := make(chan struct{})
	go func() {
		defer close(compactDone)
		for i := 0; i < 4; i++ {
			if err := st.Compact(); err != nil {
				t.Error(err)
			}
			time.Sleep(20 * time.Millisecond)
		}
	}()
	wg.Wait()
	<-compactDone
	if st.Compactions() < 4 {
		t.Fatalf("peer ran %d compactions, want 4", st.Compactions())
	}

	waitStoreLoads(t, follower, writers*perWriter)
	absorbed, failed, err := stop()
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("Follow returned %v, want context.Canceled", err)
	}
	if absorbed < writers*perWriter || failed != 0 {
		t.Fatalf("Follow absorbed %d / failed %d, want >= %d / 0", absorbed, failed, writers*perWriter)
	}
	for i := 0; i < writers*perWriter; i++ {
		if _, outcome, err := follower.PlanDetail(context.Background(), tailScenario(int64(i))); err != nil || outcome != CacheHit {
			t.Fatalf("seed %d not absorbed: outcome %q, err %v", i, outcome, err)
		}
	}
	if st := follower.Stats(); st.Misses != 0 {
		t.Fatalf("follower counted planner misses: stats %+v", st)
	}
}

// TestFollowHTTPWarmsFromPeer is the cross-process story over HTTP: a
// follower reads a peer replica's GET /v1/store and absorbs both the
// plans stored before it connected and the ones that arrive while it
// is attached — with zero planner misses, each plan byte-identical to
// the peer's, and each written through to the follower's own store.
func TestFollowHTTPWarmsFromPeer(t *testing.T) {
	peerSvc := NewService(WithStore(t.TempDir()))
	defer peerSvc.CloseStore()
	peer := httptest.NewServer(NewHandler(peerSvc))
	t.Cleanup(peer.Close)
	post := func(seed int) {
		t.Helper()
		body := fmt.Sprintf(`{"family":"genome","tasks":30,"procs":3,"seed":%d}`, seed)
		if status, resp, _ := postJSON(t, peer.Client(), peer.URL+"/v1/plan", body); status != http.StatusOK {
			t.Fatalf("peer plan: %d %s", status, resp)
		}
	}
	for seed := 1; seed <= 3; seed++ {
		post(seed)
	}

	follower := NewService(WithStore(t.TempDir()))
	defer follower.CloseStore()
	stop := follow(t, follower, peer.URL, 2)
	waitStoreLoads(t, follower, 3) // the backlog
	post(4)
	waitStoreLoads(t, follower, 4) // live propagation, no reconnect
	absorbed, failed, err := stop()
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("Follow returned %v, want context.Canceled", err)
	}
	if absorbed != 4 || failed != 0 {
		t.Fatalf("Follow absorbed %d / failed %d, want 4 / 0", absorbed, failed)
	}
	if st := follower.Stats(); st.Misses != 0 || st.Entries != 4 || st.StoreRecords != 4 {
		t.Fatalf("follower stats %+v, want 0 misses, 4 entries and 4 records written through", st)
	}
	for seed := int64(1); seed <= 4; seed++ {
		want, _, err := peerSvc.PlanDetail(context.Background(), tailScenario(seed))
		if err != nil {
			t.Fatal(err)
		}
		got, outcome, err := follower.PlanDetail(context.Background(), tailScenario(seed))
		if err != nil || outcome != CacheHit {
			t.Fatalf("seed %d: outcome %q, err %v, want a hit", seed, outcome, err)
		}
		if !bytes.Equal(planBytes(t, want), planBytes(t, got)) {
			t.Fatalf("seed %d: absorbed plan differs from the peer's", seed)
		}
	}
}

// fakePeer serves lines as a store stream once, then holds the
// connection open until the client leaves, so every line reaches the
// follower exactly once. The server closes at test cleanup.
func fakePeer(t *testing.T, lines ...[]byte) *httptest.Server {
	var once sync.Once
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", ndjsonContentType)
		once.Do(func() {
			for _, l := range lines {
				w.Write(append(l, '\n'))
			}
		})
		w.(http.Flusher).Flush()
		<-r.Context().Done()
	}))
	t.Cleanup(srv.Close)
	return srv
}

// logRecorder is a WithServiceLogf sink tests can search.
type logRecorder struct {
	mu    sync.Mutex
	lines []string
}

func (l *logRecorder) logf(format string, args ...any) {
	l.mu.Lock()
	defer l.mu.Unlock()
	l.lines = append(l.lines, fmt.Sprintf(format, args...))
}

func (l *logRecorder) has(parts ...string) bool {
	l.mu.Lock()
	defer l.mu.Unlock()
	for _, line := range l.lines {
		all := true
		for _, p := range parts {
			all = all && strings.Contains(line, p)
		}
		if all {
			return true
		}
	}
	return false
}

// TestWarmFromLogOverlongLineNamesLine pins the line cap on data from
// a peer: an over-cap line is skipped without being buffered whole,
// counted as failed and named by its cursor in the log, and the valid
// record after it is still absorbed.
func TestWarmFromLogOverlongLineNamesLine(t *testing.T) {
	key, payload := planRecord(t, 1)
	long := bytes.Repeat([]byte("x"), maxStoreLine+1)
	peer := fakePeer(t, []byte(headerLine(3, 100)), long, recordLine(t, key, payload))

	var log logRecorder
	follower := NewService(WithServiceLogf(log.logf))
	stop := follow(t, follower, peer.URL, 1)
	waitStoreLoads(t, follower, 1)
	absorbed, failed, _ := stop()
	if absorbed != 1 || failed != 1 {
		t.Fatalf("absorbed %d / failed %d, want 1 / 1", absorbed, failed)
	}
	if !log.has("segment 3 offset 100", "line longer than") {
		t.Fatalf("the over-cap line was not named by its cursor; log: %q", log.lines)
	}
}

// TestWarmFromLogBadLine pins how a follower treats broken lines in a
// peer's stream: garbage, a record failing its CRC, and a record that
// encoding/json reads with a CRC that holds but whose fields are out of
// the store's one order are each counted as failed and named by
// cursor, and the records around them are absorbed — a live stream is
// never aborted by one bad line.
func TestWarmFromLogBadLine(t *testing.T) {
	key1, payload1 := planRecord(t, 1)
	key2, payload2 := planRecord(t, 2)
	good1 := recordLine(t, key1, payload1)
	garbage := []byte("this is not json")
	badCRC := bytes.Replace(recordLine(t, key2, payload2), []byte(`"crc":`), []byte(`"crc":1`), 1)
	reordered := fmt.Appendf(nil, `{"plan":%s,"key":"%s","crc":%d}`, payload2, key2, crc32.ChecksumIEEE(payload2))
	if err := json.Unmarshal(reordered, new(storeRecord)); err != nil {
		t.Fatal(err)
	}
	peer := fakePeer(t, []byte(headerLine(1, 0)), good1, garbage, badCRC, reordered, recordLine(t, key2, payload2))

	var log logRecorder
	follower := NewService(WithServiceLogf(log.logf))
	stop := follow(t, follower, peer.URL, 2)
	waitStoreLoads(t, follower, 2)
	absorbed, failed, _ := stop()
	if absorbed != 2 || failed != 3 {
		t.Fatalf("absorbed %d / failed %d, want 2 / 3", absorbed, failed)
	}
	garbageAt := fmt.Sprintf("segment 1 offset %d", len(good1)+1)
	reorderedAt := fmt.Sprintf("segment 1 offset %d", len(good1)+len(garbage)+len(badCRC)+3)
	if !log.has(garbageAt, "not a store record") || !log.has("fails its CRC") || !log.has(reorderedAt, "not a store record") {
		t.Fatalf("bad lines not logged with their cursors (want %q and %q); log: %q", garbageAt, reorderedAt, log.lines)
	}
}

// TestWarmFromLogPlanFailuresCounted pins the decode gate: a record
// with a valid CRC whose scenario does not survive decodePlan's checks
// (here: filed under another scenario's key) is counted as failed and
// never made resident.
func TestWarmFromLogPlanFailuresCounted(t *testing.T) {
	key1, payload1 := planRecord(t, 1)
	key2, payload2 := planRecord(t, 2)
	peer := fakePeer(t, []byte(headerLine(1, 0)), recordLine(t, key2, payload1), recordLine(t, key1, payload1), recordLine(t, key2, payload2))

	follower := NewService()
	stop := follow(t, follower, peer.URL, 1)
	waitStoreLoads(t, follower, 2)
	absorbed, failed, _ := stop()
	if absorbed != 2 || failed != 1 {
		t.Fatalf("absorbed %d / failed %d, want 2 / 1", absorbed, failed)
	}
}

// TestWarmFromLogStreamsLargeLog follows a stream far deeper than the
// bounded hand-off channel: every record line is absorbed, duplicates
// make nothing new resident, and the planner runs once per distinct
// record, because a line whose key is resident (and in the store, when
// the follower has one) is not reloaded. A resident key missing from
// the follower's store is reloaded once more and written back. One
// worker keeps the order, so the sentinel record written last marks
// the end.
func TestWarmFromLogStreamsLargeLog(t *testing.T) {
	const distinct, lines = 7, 300
	var (
		keys []string
		recs [][]byte
	)
	for i := 0; i <= distinct+1; i++ {
		key, payload := planRecord(t, int64(i))
		keys, recs = append(keys, key), append(recs, recordLine(t, key, payload))
	}
	stream := [][]byte{[]byte(headerLine(1, 0))}
	for i := 0; i < lines; i++ {
		stream = append(stream, recs[i%distinct])
	}
	stream = append(stream, recs[distinct])

	for _, withStore := range []bool{false, true} {
		peer := fakePeer(t, stream...) // serves its lines once
		var calls atomic.Int64
		opts := []ServiceOption{WithPlanner(countingPlanner(&calls))}
		if withStore {
			opts = append(opts, WithStore(t.TempDir()))
		}
		follower := NewService(opts...)
		stop := follow(t, follower, peer.URL, 1)
		waitStoreLoads(t, follower, distinct+1)
		absorbed, failed, _ := stop()
		if absorbed != lines+1 || failed != 0 {
			t.Fatalf("store %v: absorbed %d / failed %d, want %d / 0", withStore, absorbed, failed, lines+1)
		}
		st := follower.Stats()
		if st.Entries != distinct+1 {
			t.Fatalf("store %v: follower holds %d plans, want %d distinct", withStore, st.Entries, distinct+1)
		}
		if n := calls.Load(); n != distinct+1 {
			t.Fatalf("store %v: the planner ran %d times for %d lines, want once per distinct record (%d)", withStore, n, lines+1, distinct+1)
		}
		if !withStore {
			continue
		}
		if st.StoreRecords != distinct+1 {
			t.Fatalf("follower's store holds %d records, want %d", st.StoreRecords, distinct+1)
		}

		// Replay the stream, with a new sentinel, to the follower after
		// dropping one resident key's record from its store.
		follower.store.Drop(keys[0])
		peer = fakePeer(t, append(stream[:len(stream)-1:len(stream)-1], recs[distinct+1])...)
		stop = follow(t, follower, peer.URL, 1)
		waitStoreLoads(t, follower, distinct+2)
		if absorbed, failed, _ := stop(); absorbed != lines+1 || failed != 0 {
			t.Fatalf("replay: absorbed %d / failed %d, want %d / 0", absorbed, failed, lines+1)
		}
		if n := calls.Load(); n != distinct+3 {
			t.Fatalf("replay: the planner ran %d times in all, want %d (the dropped record and the new sentinel once more)", n, distinct+3)
		}
		if st := follower.Stats(); st.StoreRecords != distinct+2 {
			t.Fatalf("replay: follower's store holds %d records, want %d", st.StoreRecords, distinct+2)
		}
	}
}

// TestWarmFromLogCancellation pins that a cancelled context stops a
// follower with the context error instead of hanging on the stream or
// the bounded channel, that records still queued at that point are
// neither absorbed nor failed, and that a non-URL source is refused up
// front.
func TestWarmFromLogCancellation(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	peer := fakePeer(t, []byte(headerLine(1, 0)))
	if _, _, err := NewService().Follow(ctx, peer.URL, 2); !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}

	backlog := [][]byte{[]byte(headerLine(1, 0))}
	for seed := int64(100); seed < 120; seed++ {
		key, payload := planRecord(t, seed)
		backlog = append(backlog, recordLine(t, key, payload))
	}
	follower := NewService()
	stop := follow(t, follower, fakePeer(t, backlog...).URL, 1)
	for follower.Stats().StoreLoads == 0 {
		time.Sleep(time.Millisecond)
	}
	absorbed, failed, err := stop()
	if !errors.Is(err, context.Canceled) || failed != 0 || absorbed < 1 || absorbed > len(backlog)-1 {
		t.Fatalf("stopped mid-backlog: absorbed %d / failed %d, err %v; want >= 1 / 0, context.Canceled", absorbed, failed, err)
	}
	if _, _, err := NewService().Follow(context.Background(), t.TempDir(), 2); err == nil {
		t.Fatal("Follow accepted a directory; a store belongs to one process")
	}
}

// FuzzStoreStream feeds an arbitrary peer stream body to
// readStoreStream, the follower's parser of bytes from another
// process. It must not panic. Every complete line is either a header,
// which sets the cursor, or reaches fn once, at the cursor it starts
// at, and then advances the cursor by its length plus one. fn gets a
// nil error just for a line in the store's one record form whose CRC
// holds (refParseRecord), together with that line's key and payload. A
// trailing partial line never reaches fn.
func FuzzStoreStream(f *testing.F) {
	payload := []byte(`{"n":1}`)
	good := recordLine(f, fakeKey(1), payload)
	for _, lines := range [][]string{
		{headerLine(1, 0), string(good), "this is not json", string(good)},
		{headerLine(2, 7), strings.Replace(string(good), `"crc":`, `"crc":1`, 1), `{"segment":3,"offset":-1}`, string(good[:20])},
		{fmt.Sprintf(`{"crc":%d,"key":"k","plan":{"n":1}}`, crc32.ChecksumIEEE(payload)), `{"segment":1}`, "", string(good)},
	} {
		f.Add([]byte(strings.Join(lines, "\n")))
	}
	f.Fuzz(func(t *testing.T, body []byte) {
		type call struct {
			key     string
			payload []byte
			at      storeCursor
			err     error
		}
		var calls []call
		var cur storeCursor
		if err := readStoreStream(bytes.NewReader(body), &cur, func(key string, payload []byte, at storeCursor, err error) error {
			calls = append(calls, call{key, payload, at, err})
			return nil
		}); err != nil {
			t.Fatalf("readStoreStream: %v", err)
		}
		var want storeCursor
		lines := bytes.Split(body, []byte("\n"))
		n := 0
		for _, line := range lines[:len(lines)-1] {
			key, payload, ok := refParseRecord(line)
			var h struct {
				Segment *uint64 `json:"segment"`
				Offset  *int64  `json:"offset"`
			}
			if !ok && json.Unmarshal(line, &h) == nil && h.Segment != nil && h.Offset != nil && *h.Offset >= 0 {
				want = storeCursor{Segment: *h.Segment, Offset: *h.Offset}
				continue
			}
			if n == len(calls) {
				t.Fatalf("line %q never reached fn", line)
			}
			c := calls[n]
			n++
			if c.at != want {
				t.Fatalf("line %q reached fn at %+v, want %+v", line, c.at, want)
			}
			if ok != (c.err == nil) || ok && (c.key != key || !bytes.Equal(c.payload, payload)) {
				t.Fatalf("line %q reached fn as (%q, %q, %v), want a record %t", line, c.key, c.payload, c.err, ok)
			}
			want.Offset += int64(len(line)) + 1
		}
		if n != len(calls) {
			t.Fatalf("fn got %d calls for %d complete non-header lines", len(calls), n)
		}
		if cur != want {
			t.Fatalf("cursor %+v after the stream, want %+v", cur, want)
		}
	})
}
