package hanccr

//hanccr:allow-file lockio st.mu is the store's single-writer serialization point by design: every segment read/write/rotate must see a consistent index+offset pair, and the Service keeps store calls outside its shard locks

// The persistent plan store: a disk-backed write-through layer under
// the Service's sharded LRU. Planning is a pure function of the
// canonical Scenario.Key, so the store archives the scenario, not the
// solved plan: a record holds the scenario and the bit patterns of the
// expected and failure-free makespans its plan had, and a reload is a
// fresh plan (Service.reload, through planCold). It is the daemon's
// only durable log: a restart rehydrates it (LoadStore) and peer
// replicas follow it over GET /v1/store (Service.Follow).
//
// On disk the store is a directory of append-only segment files
// (plans-NNNNNN.seg), one record per line, in exactly one form:
//
//	{"key":"<key>","crc":<IEEE CRC32 of plan>,"plan":{...}}
//
// The key is printable ASCII without a quote, backslash, <, > or &
// (plainKey; every scenario key, 64 hex digits, is one), so it needs
// no escaping; the CRC is canonical decimal; the payload is one JSON
// value with no surrounding whitespace. This is the line json.Marshal
// writes for such a key and a compact payload, pinned byte for byte by
// the encoding/json reference model in store_ref_test.go.
//
// The payload, format v2, is storedPlan as encoding/json writes it,
//
//	{"v":2,"scenario":{...},"em_bits":<bits>,"ffm_bits":<bits>}
//
// a few hundred bytes unless the scenario carries an injected workflow
// document. readPayload reads it with json.Unmarshal and accepts it only
// when json.Marshal writes the same bytes back, so the store keeps one
// record form. A v1 payload also held the superchains, checkpoint marks
// and segment metadata of the plan; the same json.Unmarshal reads its
// scenario and bits and skips the rest, and its reload rewrites it as
// v2.
//
// Both sides use encoding/json. Put, the one write path (the Service's
// write-through goes through it too), refuses a key that is not plain,
// a payload that is not valid JSON or holds a newline, and a line above
// maxStoreLine, then appends encodeRecord's line. parseRecordLine, the
// one record parser for segment files, Get and the GET /v1/store
// stream, reads a line with json.Unmarshal and accepts it only when
// framing what it read gives the line back byte for byte; a line in any
// other form is a corrupt record. Every reader checks the CRC: the
// open-time scan, Get and a follower.
//
// Records are immutable once written; a re-written key supersedes its
// older record by replay order (segments are scanned in ascending
// sequence number, later records win). A torn record at the tail of
// the newest segment — the signature of a crash mid-append — is
// skipped silently and overwritten-around via a recovery newline;
// corrupt or over-long (maxStoreLine) records elsewhere are skipped,
// logged and counted as dead bytes. Compaction rewrites the live
// records into a fresh higher-numbered segment and deletes the old
// files — crash-safe because the rewritten segment only becomes
// visible via rename, and replay order makes it win over any stale
// survivors.
//
// A reload trusts nothing of a record but its scenario, which must hash
// back to the record's key: a record that fails that, or cannot be
// read, is dropped and its key planned as a miss. The planner is the
// truth: when a record's bits disagree with its fresh plan (the
// planner changed, or the record was forged), the fresh plan is served
// and the record is logged and rewritten.

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"hash/crc32"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"sync"
	"sync/atomic"

	"repro/internal/par"
)

// storeSegmentBytes is the size at which the active segment file is
// rotated.
const storeSegmentBytes = 64 << 20

// storeCompactMinBytes is the minimum volume of dead bytes before a
// size-triggered compaction fires; below it a rewrite costs more than
// the space it reclaims.
const storeCompactMinBytes = 1 << 20

// storeFormatVersion is the record payload format encodePlan writes.
// readPayload also reads format 1, for its scenario; a record of any
// other version is dropped and re-planned.
const storeFormatVersion = 2

// storedScenario is the scenario portion of a record. Every knob that
// feeds Scenario.Key is present — floats as exact bit patterns, an
// injected workflow document by content — because ScenarioRequest (the
// HTTP wire shape) cannot represent all of them (e.g. DAX documents).
// The decoded scenario must hash back to the record's key, which makes
// the key's wire format an on-disk contract (see the golden keys
// test).
type storedScenario struct {
	Family    string `json:"family"`
	Tasks     int    `json:"tasks"`
	Procs     int    `json:"procs"`
	PFailBits uint64 `json:"pfail_bits"`
	CCRBits   uint64 `json:"ccr_bits"`
	Seed      int64  `json:"seed"`
	BWBits    uint64 `json:"bw_bits"`
	Ragged    bool   `json:"ragged,omitempty"`
	Strategy  string `json:"strategy"`
	Exact     bool   `json:"exact_model,omitempty"`
	Source    string `json:"source,omitempty"`
	Format    string `json:"format,omitempty"`
	Graph     []byte `json:"graph,omitempty"`
}

// storedPlan is the record payload: the scenario, and the bit patterns
// of the expected and failure-free makespans of the plan it had when it
// was written, which a reload checks its fresh plan against.
type storedPlan struct {
	Version  int            `json:"v"`
	Scenario storedScenario `json:"scenario"`
	EMBits   uint64         `json:"em_bits"`
	FFMBits  uint64         `json:"ffm_bits"`
}

// stored returns the scenario portion of a record:
// storedScenario.scenario in reverse.
func (s Scenario) stored() storedScenario {
	return storedScenario{
		Family:    s.family,
		Tasks:     s.tasks,
		Procs:     s.procs,
		PFailBits: math.Float64bits(s.pfail),
		CCRBits:   math.Float64bits(s.ccr),
		Seed:      s.seed,
		BWBits:    math.Float64bits(s.bandwidth),
		Ragged:    s.ragged,
		Strategy:  string(s.strategy),
		Exact:     s.exact,
		Source:    s.source,
		Format:    s.format,
		Graph:     s.graph,
	}
}

// scenario reconstructs the Scenario value the record was encoded
// from.
func (ss storedScenario) scenario() Scenario {
	return Scenario{
		family:    ss.Family,
		tasks:     ss.Tasks,
		procs:     ss.Procs,
		pfail:     math.Float64frombits(ss.PFailBits),
		ccr:       math.Float64frombits(ss.CCRBits),
		seed:      ss.Seed,
		bandwidth: math.Float64frombits(ss.BWBits),
		ragged:    ss.Ragged,
		strategy:  Strategy(ss.Strategy),
		exact:     ss.Exact,
		source:    ss.Source,
		format:    ss.Format,
		graph:     ss.Graph,
	}
}

// encodePlan serializes a solved plan into the store's record payload.
func encodePlan(p *Plan) ([]byte, error) {
	return json.Marshal(storedPlan{
		Version:  storeFormatVersion,
		Scenario: p.scenario.stored(),
		EMBits:   math.Float64bits(p.res.ExpectedMakespan),
		FFMBits:  math.Float64bits(p.res.FailureFreeMakespan),
	})
}

// plainKey reports whether key can key a store record: non-empty
// printable ASCII with no quote, backslash or HTML-escaped byte, which
// json.Marshal writes as itself between quotes. Every scenario key (64
// hex digits) is plain.
func plainKey(key string) bool {
	for i := 0; i < len(key); i++ {
		if c := key[i]; c < 0x20 || c >= 0x7f || c == '"' || c == '\\' || c == '<' || c == '>' || c == '&' {
			return false
		}
	}
	return len(key) > 0
}

// recordFormat is a record line's one form, newline excluded, for a
// key, a CRC and a payload.
const recordFormat = `{"key":"%s","crc":%d,"plan":%s}`

// encodeRecord returns key's record line for payload, newline
// included: json.Marshal of the record plus "\n" for a plain key and a
// compact payload (pinned by FuzzStoreLine).
func encodeRecord(key string, payload []byte) []byte {
	return fmt.Appendf(nil, recordFormat+"\n", key, crc32.ChecksumIEEE(payload), payload)
}

// parseRecordLine parses a record line, newline stripped: the inverse
// of encodeRecord. It accepts exactly the one record form,
// {"key":"<plain key>","crc":<canonical digits>,"plan":<payload>}: a
// line json.Unmarshal reads with a plain key, and which framing the
// key, CRC and payload it read gives back byte for byte. ok is false
// for a line in any other form, which is a corrupt record. The CRC is
// not checked, and payload is a copy.
func parseRecordLine(line []byte) (key string, crc uint32, payload []byte, ok bool) {
	var rec struct {
		Key  string          `json:"key"`
		CRC  uint32          `json:"crc"`
		Plan json.RawMessage `json:"plan"`
	}
	if json.Unmarshal(line, &rec) != nil || !plainKey(rec.Key) {
		return "", 0, nil, false
	}
	if !bytes.Equal(fmt.Appendf(nil, recordFormat, rec.Key, rec.CRC, rec.Plan), line) {
		return "", 0, nil, false
	}
	return rec.Key, rec.CRC, rec.Plan, true
}

// readPayload reads a record payload: a v2 payload exactly as
// encodePlan writes it, or a v1 payload, of which the same
// json.Unmarshal reads the scenario and bits and skips the rest.
func readPayload(payload []byte) (storedPlan, error) {
	var sp storedPlan
	if err := json.Unmarshal(payload, &sp); err != nil {
		return storedPlan{}, fmt.Errorf("decode: %w", err)
	}
	switch sp.Version {
	case storeFormatVersion:
		if canon, err := json.Marshal(sp); err != nil || !bytes.Equal(canon, payload) {
			return storedPlan{}, errors.New("decode: payload is not in the store's canonical form")
		}
	case 1:
	default:
		return storedPlan{}, fmt.Errorf("decode: record format v%d, want v%d", sp.Version, storeFormatVersion)
	}
	return sp, nil
}

// decodePlan reads key's record payload (readPayload): its scenario,
// which must be valid and hash back to key, and the stored check values.
func decodePlan(key string, payload []byte) (Scenario, storedPlan, error) {
	sp, err := readPayload(payload)
	if err != nil {
		return Scenario{}, storedPlan{}, err
	}
	sc := sp.Scenario.scenario()
	if err := sc.Validate(); err != nil {
		return Scenario{}, storedPlan{}, fmt.Errorf("decode: %w", err)
	}
	if got := sc.Key(); got != key {
		return Scenario{}, storedPlan{}, fmt.Errorf("decode: scenario hashes to %.12s, record is keyed %.12s", got, key)
	}
	return sc, sp, nil
}

// storeRef locates one live record: segment sequence number, byte
// offset, and line length (newline included).
type storeRef struct {
	seq uint64
	off int64
	n   int64
}

// PlanStore is the append-only keyed record store under the Service's
// LRU. It is goroutine-safe; the Service is its intended caller, but
// it can be opened directly to read or write records. One process per
// directory: the store does no cross-process locking.
type PlanStore struct {
	dir        string
	segBytes   int64 // storeSegmentBytes
	compactMin int64 // storeCompactMinBytes
	logf       func(string, ...any)

	mu          sync.Mutex
	index       map[string]storeRef
	segs        []uint64 // existing segment sequence numbers, ascending
	active      *os.File
	activeSeq   uint64
	activeSize  int64
	needNewline bool // active segment ends mid-record (torn tail)
	live        int64
	dead        int64
	compactions uint64
}

// segPath returns the file path of segment seq.
func (st *PlanStore) segPath(seq uint64) string {
	return filepath.Join(st.dir, fmt.Sprintf("plans-%06d.seg", seq))
}

// OpenPlanStore opens (creating if needed) the plan store rooted at
// dir and replays its segments into the in-memory index. Corrupt or
// torn records are skipped and counted as dead bytes — recovery never
// fails the open, it only narrows what the store can serve.
func OpenPlanStore(dir string) (*PlanStore, error) {
	return openPlanStore(dir, func(string, ...any) {})
}

// openPlanStore is OpenPlanStore with the store's recovery and
// compaction diagnostics (skipped corrupt records, undeletable stale
// segments) routed to logf.
func openPlanStore(dir string, logf func(string, ...any)) (*PlanStore, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, err
	}
	st := &PlanStore{
		dir:        dir,
		segBytes:   storeSegmentBytes,
		compactMin: storeCompactMinBytes,
		logf:       logf,
		index:      make(map[string]storeRef),
	}
	entries, err := os.ReadDir(dir)
	if err != nil {
		return nil, err
	}
	for _, e := range entries {
		var seq uint64
		if _, err := fmt.Sscanf(e.Name(), "plans-%d.seg", &seq); err == nil && e.Name() == fmt.Sprintf("plans-%06d.seg", seq) {
			st.segs = append(st.segs, seq)
			continue
		}
		// A .tmp file is a compaction that crashed before its rename;
		// its contents are still fully present in the old segments.
		if filepath.Ext(e.Name()) == ".tmp" {
			if err := os.Remove(filepath.Join(dir, e.Name())); err != nil {
				st.logf("store: cannot remove stale %s: %v", e.Name(), err)
			}
		}
	}
	sort.Slice(st.segs, func(i, j int) bool { return st.segs[i] < st.segs[j] })
	for i, seq := range st.segs {
		if err := st.scanSegment(seq, i == len(st.segs)-1); err != nil {
			return nil, err
		}
	}
	if len(st.segs) == 0 {
		st.segs = []uint64{1}
	}
	st.activeSeq = st.segs[len(st.segs)-1]
	f, err := os.OpenFile(st.segPath(st.activeSeq), os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		return nil, err
	}
	fi, err := f.Stat()
	if err != nil {
		return nil, errors.Join(err, f.Close())
	}
	st.active = f
	st.activeSize = fi.Size()
	return st, nil
}

// scanSegment replays one segment file into the index. Later segments
// (and later lines within one) supersede earlier records for the same
// key. last marks the newest segment, whose torn tail — the signature
// of a crash mid-append — is skipped silently; corruption anywhere
// else is skipped too but logged, because it means bit-rot rather than
// a known crash mode.
func (st *PlanStore) scanSegment(seq uint64, last bool) error {
	f, err := os.Open(st.segPath(seq))
	if err != nil {
		return err
	}
	defer f.Close()
	lr := newLineReader(f)
	var off int64
	for {
		line, n, err := lr.next()
		tail := err != nil && err != errLineTooLong // n bytes after the last newline
		var key string
		ok := false
		if err == nil {
			var crc uint32
			var payload []byte
			key, crc, payload, ok = parseRecordLine(line)
			ok = ok && crc32.ChecksumIEEE(payload) == crc
		}
		switch {
		case tail && n == 0:
			return nil
		case tail && last:
			// Torn tail of the newest segment: the expected shape of a
			// crash mid-Put. The next Put writes a recovery newline first
			// so the tail cannot corrupt it.
			st.dead += n
			st.needNewline = true
			return nil
		case ok:
			if old, ok := st.index[key]; ok {
				st.dead += old.n
				st.live -= old.n
			}
			st.index[key] = storeRef{seq: seq, off: off, n: n}
			st.live += n
		default:
			st.dead += n
			st.logf("store: %s: skipping corrupt record at offset %d (%d bytes)", filepath.Base(st.segPath(seq)), off, n)
			if tail {
				return nil
			}
		}
		off += n
	}
}

// readLocked returns the raw record line at ref, newline included.
// Caller holds st.mu.
func (st *PlanStore) readLocked(ref storeRef) ([]byte, error) {
	f, err := os.Open(st.segPath(ref.seq))
	if err != nil {
		return nil, err
	}
	defer f.Close()
	line := make([]byte, ref.n)
	if _, err := f.ReadAt(line, ref.off); err != nil {
		return nil, err
	}
	if line[len(line)-1] != '\n' {
		return nil, fmt.Errorf("store: record at %s+%d is not newline-terminated", filepath.Base(st.segPath(ref.seq)), ref.off)
	}
	return line, nil
}

// Get returns the payload stored under key. ok is false when the key
// has no live record; err reports a record that exists but cannot be
// trusted (unreadable, no longer a record under key, or a payload that
// fails its CRC — bit-rot since the open-time scan). Get parses and
// checks the record's line as the open-time scan does.
func (st *PlanStore) Get(key string) (payload []byte, ok bool, err error) {
	st.mu.Lock()
	defer st.mu.Unlock()
	ref, ok := st.index[key]
	if !ok {
		return nil, false, nil
	}
	line, err := st.readLocked(ref)
	if err != nil {
		return nil, true, err
	}
	got, crc, payload, ok := parseRecordLine(line[:len(line)-1])
	switch {
	case !ok || got != key:
		return nil, true, fmt.Errorf("store: the line at %s+%d is not a store record under its key", filepath.Base(st.segPath(ref.seq)), ref.off)
	case crc32.ChecksumIEEE(payload) != crc:
		return nil, true, errors.New("store: record payload fails its CRC")
	}
	return payload, true, nil
}

// Put appends a record for key, superseding any previous one: the one
// write path, the Service's write-through included. The payload must
// be one compact JSON value, as json.Marshal writes it: the record
// frames it verbatim and its CRC covers exactly these bytes. Because a
// payload may come from anywhere, Put refuses one that is not valid
// JSON or that holds a newline, which would split the record's line,
// and a record above maxStoreLine, which every reader would skip. It
// refuses a key that is not plain (see plainKey), so every record it
// writes reads back under its key. An identical record already live
// under the key is deduplicated (the common case: replicas that follow
// each other write the same records through). Put may rotate the
// active segment or trigger a size-based compaction.
func (st *PlanStore) Put(key string, payload []byte) error {
	if !plainKey(key) {
		return fmt.Errorf("store: key %q is not printable ASCII free of quote, backslash, <, > and &", key)
	}
	if !json.Valid(payload) {
		return errors.New("store: payload is not valid JSON")
	}
	if bytes.IndexByte(payload, '\n') >= 0 {
		return errors.New("store: payload holds a newline")
	}
	line := encodeRecord(key, payload)
	if len(line)-1 > maxStoreLine {
		return fmt.Errorf("store: record of %d bytes above the %d-byte line limit", len(line)-1, maxStoreLine)
	}
	st.mu.Lock()
	defer st.mu.Unlock()
	if old, ok := st.index[key]; ok && old.n == int64(len(line)) {
		if prev, err := st.readLocked(old); err == nil && bytes.Equal(prev, line) {
			return nil
		}
	}
	if st.needNewline {
		if _, err := st.active.Write([]byte("\n")); err != nil {
			return err
		}
		st.activeSize++
		st.dead++
		st.needNewline = false
	}
	off := st.activeSize
	n, err := st.active.Write(line)
	st.activeSize += int64(n)
	if err != nil || n != len(line) {
		// A short write leaves a torn tail exactly like a crash would;
		// arrange the same recovery and surface the error.
		st.dead += int64(n)
		st.needNewline = n > 0
		if err == nil {
			err = fmt.Errorf("store: short write (%d of %d bytes)", n, len(line))
		}
		return err
	}
	if old, ok := st.index[key]; ok {
		st.dead += old.n
		st.live -= old.n
	}
	st.index[key] = storeRef{seq: st.activeSeq, off: off, n: int64(n)}
	st.live += int64(n)
	if st.activeSize >= st.segBytes {
		if err := st.rotateLocked(); err != nil {
			return err
		}
	}
	return st.maybeCompactLocked()
}

// Drop removes key's record from the index (the bytes become dead and
// are reclaimed by compaction). The Service calls it when a record
// fails decoding, so a poisoned key is re-planned exactly once instead
// of failing every future load.
func (st *PlanStore) Drop(key string) {
	st.mu.Lock()
	defer st.mu.Unlock()
	if old, ok := st.index[key]; ok {
		delete(st.index, key)
		st.dead += old.n
		st.live -= old.n
	}
}

// rotateLocked closes the active segment and starts the next one.
// Caller holds st.mu.
func (st *PlanStore) rotateLocked() error {
	if err := st.active.Close(); err != nil {
		return err
	}
	st.activeSeq++
	f, err := os.OpenFile(st.segPath(st.activeSeq), os.O_CREATE|os.O_TRUNC|os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		return err
	}
	st.segs = append(st.segs, st.activeSeq)
	st.active = f
	st.activeSize = 0
	st.needNewline = false
	return nil
}

// maybeCompactLocked compacts when the dead volume both exceeds the
// minimum (compactMin) and outweighs the live data — the point where a
// rewrite halves the store. Caller holds st.mu.
func (st *PlanStore) maybeCompactLocked() error {
	if st.dead >= st.compactMin && st.dead > st.live {
		return st.compactLocked()
	}
	return nil
}

// MaybeCompact runs the same threshold check Put applies — the entry
// point for a periodic compaction tick.
func (st *PlanStore) MaybeCompact() error {
	st.mu.Lock()
	defer st.mu.Unlock()
	return st.maybeCompactLocked()
}

// Compact unconditionally rewrites the live records into a fresh
// segment and deletes the old files.
func (st *PlanStore) Compact() error {
	st.mu.Lock()
	defer st.mu.Unlock()
	return st.compactLocked()
}

// compactLocked writes every live record, in sorted key order, to a
// new segment numbered above the current active one, renames it into
// place, and deletes the superseded files. A crash at any point is
// safe: until the rename the old segments are authoritative, after it
// they are stale duplicates that replay order ignores. Caller holds
// st.mu.
func (st *PlanStore) compactLocked() error {
	newSeq := st.activeSeq + 1
	tmp := st.segPath(newSeq) + ".tmp"
	f, err := os.OpenFile(tmp, os.O_CREATE|os.O_TRUNC|os.O_WRONLY, 0o644)
	if err != nil {
		return err
	}
	keys := make([]string, 0, len(st.index))
	for k := range st.index {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	newIndex := make(map[string]storeRef, len(keys))
	var off int64
	for _, k := range keys {
		ref := st.index[k]
		line, err := st.readLocked(ref)
		if err != nil {
			// The record was live a moment ago; losing it only costs a
			// re-plan, so log and carry on rather than fail the rewrite.
			st.logf("store: compaction drops unreadable record %.12s: %v", k, err)
			continue
		}
		if _, err := f.Write(line); err != nil {
			return errors.Join(err, f.Close(), os.Remove(tmp))
		}
		ref.seq, ref.off = newSeq, off
		newIndex[k] = ref
		off += ref.n
	}
	if err := f.Sync(); err != nil {
		return errors.Join(err, f.Close(), os.Remove(tmp))
	}
	if err := f.Close(); err != nil {
		os.Remove(tmp)
		return err
	}
	if err := os.Rename(tmp, st.segPath(newSeq)); err != nil {
		os.Remove(tmp)
		return err
	}
	if err := st.active.Close(); err != nil {
		st.logf("store: closing superseded segment: %v", err)
	}
	oldSegs := st.segs
	active, err := os.OpenFile(st.segPath(newSeq), os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		return err
	}
	st.segs = []uint64{newSeq}
	st.index = newIndex
	st.active = active
	st.activeSeq = newSeq
	st.activeSize = off
	st.needNewline = false
	st.live = off
	st.dead = 0
	st.compactions++
	for _, seq := range oldSegs {
		if err := os.Remove(st.segPath(seq)); err != nil {
			st.logf("store: cannot remove superseded %s: %v", filepath.Base(st.segPath(seq)), err)
		}
	}
	return nil
}

// Keys returns the live record keys in sorted order.
func (st *PlanStore) Keys() []string {
	st.mu.Lock()
	defer st.mu.Unlock()
	keys := make([]string, 0, len(st.index))
	for k := range st.index {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}

// has reports whether key has a live record.
func (st *PlanStore) has(key string) bool {
	st.mu.Lock()
	defer st.mu.Unlock()
	_, ok := st.index[key]
	return ok
}

// Records returns the number of live records.
func (st *PlanStore) Records() int {
	st.mu.Lock()
	defer st.mu.Unlock()
	return len(st.index)
}

// Bytes returns the store's on-disk volume: live plus
// not-yet-compacted dead bytes.
func (st *PlanStore) Bytes() int64 {
	st.mu.Lock()
	defer st.mu.Unlock()
	return st.live + st.dead
}

// Compactions returns how many compaction rewrites have run since
// open.
func (st *PlanStore) Compactions() uint64 {
	st.mu.Lock()
	defer st.mu.Unlock()
	return st.compactions
}

// Close closes the active segment file. The store must not be used
// afterwards.
func (st *PlanStore) Close() error {
	st.mu.Lock()
	defer st.mu.Unlock()
	return st.active.Close()
}

// --- Service integration -------------------------------------------------

// StoreErr reports the deferred failure of WithStore's open, if any.
// NewService cannot return an error without breaking its signature, so
// a daemon that requires the store checks here (ServeFlags.Service
// does).
func (s *Service) StoreErr() error { return s.storeErr }

// storeLoad reloads key's record, if the store holds one (see reload),
// and rewrites it when it is stale. A record that cannot be read, or
// whose scenario does not hash to key, is dropped so the key is planned
// as a miss, and false is returned. The caller accounts the appropriate
// counter (store hit vs boot load).
func (s *Service) storeLoad(ctx context.Context, key string) (*Plan, bool) {
	if s.store == nil {
		return nil, false
	}
	payload, ok, err := s.store.Get(key)
	if !ok {
		return nil, false
	}
	var p *Plan
	stale := false
	if err == nil {
		p, stale, err = s.reload(ctx, key, payload)
	}
	if err != nil {
		if ctx.Err() != nil {
			// The request died, not the record; keep it for the next try.
			return nil, false
		}
		s.logf("store: record %.12s unusable: %v (dropped; will re-plan)", key, err)
		s.store.Drop(key)
		return nil, false
	}
	if stale {
		s.storePut(key, p)
	}
	return p, true
}

// reload plans a record's scenario afresh through planCold: the one way
// LoadStore, a request-path store hit and Follow's absorb turn a record
// into a plan, so parameter variants of one structure share Algorithm 1
// through the scaffold cache. stale reports a record the store should
// rewrite: a v1 record, or one whose check bits disagree with the fresh
// plan, which is logged and served anyway, because the planner is the
// truth.
func (s *Service) reload(ctx context.Context, key string, payload []byte) (p *Plan, stale bool, err error) {
	sc, sp, err := decodePlan(key, payload)
	if err != nil {
		return nil, false, err
	}
	if p, _, err = s.planCold(ctx, sc); err != nil {
		return nil, false, err
	}
	if math.Float64bits(p.res.ExpectedMakespan) != sp.EMBits || math.Float64bits(p.res.FailureFreeMakespan) != sp.FFMBits {
		s.logf("store: record %.12s disagrees with its fresh plan (expected makespan %g); rewritten", key, p.res.ExpectedMakespan)
		return p, true, nil
	}
	return p, sp.Version != storeFormatVersion, nil
}

// storePut writes a solved plan through to the store with Put.
// Failures, a record above maxStoreLine among them, are logged, not
// returned: the in-memory result is already correct, the store just
// missed an entry it can re-create on the next miss.
func (s *Service) storePut(key string, p *Plan) {
	if s.store == nil {
		return
	}
	payload, err := encodePlan(p)
	if err == nil {
		err = s.store.Put(key, payload)
	}
	if err != nil {
		s.logf("store: write %.12s: %v", key, err)
	}
}

// LoadStore rehydrates every stored plan into the LRU with workers
// goroutines (0 = all cores) — the boot step that makes a restart's
// first request for a known scenario a cache hit. Each record is
// planned afresh (see reload); records of one structure share its
// scaffold. loaded counts plans placed in the cache (also visible as
// Stats.StoreLoads), dropped counts records that could not be read and
// were discarded. The error is the store's deferred open failure or
// ctx's cancellation; bad records never fail the boot.
func (s *Service) LoadStore(ctx context.Context, workers int) (loaded, dropped int, err error) {
	if s.storeErr != nil {
		return 0, 0, s.storeErr
	}
	if s.store == nil {
		return 0, 0, nil
	}
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	keys := s.store.Keys()
	var nLoaded, nDropped atomic.Int64
	err = par.ForEachCtx(ctx, workers, len(keys), func(i int) error {
		if err := ctx.Err(); err != nil {
			return err
		}
		p, ok := s.storeLoad(ctx, keys[i])
		if !ok {
			nDropped.Add(1)
			return nil
		}
		// A boot-time load is neither served traffic nor a planner miss,
		// so it touches neither the hit nor the miss counter.
		if s.plans.add(keys[i], cachedPlan{p, CacheMiss}) {
			s.storeLoads.Add(1)
			nLoaded.Add(1)
		}
		return nil
	})
	return int(nLoaded.Load()), int(nDropped.Load()), err
}

// CompactStore runs the store's threshold-checked compaction pass (a
// no-op without a store, or below the thresholds) — the hook cmd/serve
// ticks periodically.
func (s *Service) CompactStore() error {
	if s.store == nil {
		return nil
	}
	return s.store.MaybeCompact()
}

// CloseStore closes the store's active segment file at shutdown (a
// no-op without a store).
func (s *Service) CloseStore() error {
	if s.store == nil {
		return nil
	}
	return s.store.Close()
}
