package hanccr

//hanccr:allow-file lockio st.mu is the store's single-writer serialization point by design: every segment read/write/rotate must see a consistent index+offset pair, and the Service keeps store calls outside its shard locks

// The persistent plan store: a disk-backed write-through layer under
// the Service's sharded LRU. Planning is deterministic given the
// canonical Scenario.Key, so the store archives *outputs* — enough of
// the solved plan (scenario knobs, superchain order, checkpoint marks)
// to reconstruct a *Plan without re-running Algorithm 1 or 2. It is
// the daemon's only durable log: a restart rehydrates it (LoadStore)
// and peer replicas follow it over GET /v1/store (Service.Follow).
//
// On disk the store is a directory of append-only segment files
// (plans-NNNNNN.seg), one JSON record per line:
//
//	{"key":"<64-hex scenario key>","crc":<IEEE CRC32 of plan>,"plan":{...}}
//
// Records are immutable once written; a re-written key supersedes its
// older record by replay order (segments are scanned in ascending
// sequence number, later records win). A torn record at the tail of
// the newest segment — the signature of a crash mid-append — is
// skipped silently and overwritten-around via a recovery newline;
// corrupt or over-long (maxStoreLine) records elsewhere are skipped,
// logged and counted as dead bytes. Compaction rewrites the live
// records into a fresh higher-numbered segment and deletes the old files — crash-safe
// because the rewritten segment only becomes visible via rename, and
// replay order makes it win over any stale survivors.
//
// The decode path re-derives everything it can and cross-checks it
// against the record: the decoded scenario must hash back to the
// record's key, the segment metadata and the R/W/C costs recomputed
// from the checkpoint marks must match the stored bit patterns, and so
// must the recomputed expected and failure-free makespans. A record
// that fails any check is dropped and the scenario is re-planned — a
// corrupt plan is never served. WithStoreVerify escalates this to a
// full golden check: the loaded record must be byte-identical to a
// freshly planned reference.

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

	"repro/internal/ckpt"
	"repro/internal/core"
	"repro/internal/par"
	"repro/internal/sched"
	"repro/internal/wfdag"
)

// DefaultStoreSegmentBytes is the size at which the active segment
// file is rotated (WithStoreSegmentBytes overrides it).
const DefaultStoreSegmentBytes = 64 << 20

// defaultStoreCompactMinBytes is the minimum volume of dead bytes
// before a size-triggered compaction fires; below it a rewrite costs
// more than the space it reclaims.
const defaultStoreCompactMinBytes = 1 << 20

// storeFormatVersion is bumped on any incompatible change to the
// record payload schema; records with another version are dropped and
// re-planned.
const storeFormatVersion = 1

// storeRecord is one line of a segment file. CRC is the IEEE CRC32 of
// the Plan bytes exactly as they appear on disk, so bit-rot inside the
// payload is detected before a record is trusted.
type storeRecord struct {
	Key  string          `json:"key"`
	CRC  uint32          `json:"crc"`
	Plan json.RawMessage `json:"plan"`
}

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

// storedChain is one superchain: the processor and the linearized task
// order Algorithm 1 chose.
type storedChain struct {
	Proc  int   `json:"proc"`
	Tasks []int `json:"tasks"`
}

// storedSegment is cross-check metadata for one checkpoint segment.
// The decode path recomputes segments from the checkpoint marks; a
// mismatch against these fields means the record does not describe the
// plan it claims to.
type storedSegment struct {
	Chain int    `json:"chain"`
	Start int    `json:"start"` // position of the first task within its superchain
	Len   int    `json:"len"`
	RBits uint64 `json:"r_bits"`
	WBits uint64 `json:"w_bits"`
	CBits uint64 `json:"c_bits"`
}

// storedPlan is the record payload: the scenario, the schedule shape,
// the checkpoint marks, and bit-exact cross-check values for
// everything the decode path recomputes.
type storedPlan struct {
	Version     int             `json:"v"`
	Scenario    storedScenario  `json:"scenario"`
	Chains      []storedChain   `json:"chains"`
	Checkpoints []int           `json:"checkpoints"` // checkpointed task IDs, ascending
	Segments    []storedSegment `json:"segments,omitempty"`
	EMBits      uint64          `json:"em_bits"`
	FFMBits     uint64          `json:"ffm_bits"`
	Redundant   int             `json:"redundant,omitempty"`
}

// encodePlan serializes a solved plan into the store's record payload.
// The encoding is deterministic — a fixed struct marshalled by
// encoding/json — so two encodings of the same plan are byte-identical
// and a stored record can be golden-checked against a fresh plan.
func encodePlan(p *Plan) ([]byte, error) {
	s := p.scenario
	sp := storedPlan{
		Version: storeFormatVersion,
		Scenario: storedScenario{
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
		},
		EMBits:    math.Float64bits(p.res.ExpectedMakespan),
		FFMBits:   math.Float64bits(p.res.FailureFreeMakespan),
		Redundant: p.info.RedundantEdges,
	}
	sched := p.res.Schedule
	for _, sc := range sched.Chains {
		c := storedChain{Proc: sc.Proc, Tasks: make([]int, len(sc.Tasks))}
		for i, t := range sc.Tasks {
			c.Tasks[i] = int(t)
		}
		sp.Chains = append(sp.Chains, c)
	}
	for t, ck := range p.res.Plan.CheckpointAfter {
		if ck {
			sp.Checkpoints = append(sp.Checkpoints, t)
		}
	}
	for _, seg := range p.res.Plan.Segments {
		sp.Segments = append(sp.Segments, storedSegment{
			Chain: seg.Chain,
			Start: sched.Pos(seg.Tasks[0]),
			Len:   len(seg.Tasks),
			RBits: math.Float64bits(seg.R),
			WBits: math.Float64bits(seg.W),
			CBits: math.Float64bits(seg.C),
		})
	}
	return json.Marshal(sp)
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

// decodePlan reconstructs a *Plan from a record payload without
// re-running Algorithm 1 or 2: the workflow and platform are
// re-materialized from the scenario (generation is memoized and
// deterministic), the schedule is rebuilt from the stored superchains,
// and the segments with their R/W/C costs are recomputed from the
// checkpoint marks. Every recomputable quantity is cross-checked
// bit-exactly against the record; any mismatch fails the decode so the
// caller re-plans instead of serving a corrupt plan.
func decodePlan(ctx context.Context, key string, payload []byte) (*Plan, error) {
	var sp storedPlan
	if err := json.Unmarshal(payload, &sp); err != nil {
		return nil, fmt.Errorf("decode: %w", err)
	}
	if sp.Version != storeFormatVersion {
		return nil, fmt.Errorf("decode: record format v%d, want v%d", sp.Version, storeFormatVersion)
	}
	sc := sp.Scenario.scenario()
	if err := sc.Validate(); err != nil {
		return nil, fmt.Errorf("decode: %w", err)
	}
	if got := sc.Key(); got != key {
		return nil, fmt.Errorf("decode: scenario hashes to %.12s, record is keyed %.12s", got, key)
	}
	w, pf, redundant, err := sc.build(ctx)
	if err != nil {
		return nil, err
	}
	if redundant != sp.Redundant {
		return nil, fmt.Errorf("decode: %d redundant edges, record says %d", redundant, sp.Redundant)
	}
	n := w.G.NumTasks()
	procs := make([]int, len(sp.Chains))
	chains := make([][]wfdag.TaskID, len(sp.Chains))
	for i, c := range sp.Chains {
		procs[i] = c.Proc
		chains[i] = make([]wfdag.TaskID, len(c.Tasks))
		for j, t := range c.Tasks {
			chains[i][j] = wfdag.TaskID(t)
		}
	}
	schedule, err := sched.Rebuild(w, pf, procs, chains)
	if err != nil {
		return nil, err
	}
	ckAfter := make([]bool, n)
	for _, t := range sp.Checkpoints {
		if t < 0 || t >= n {
			return nil, fmt.Errorf("decode: checkpoint after unknown task %d", t)
		}
		ckAfter[t] = true
	}
	cfg := sc.coreConfig()
	plan, err := ckpt.RebuildPlan(schedule, pf, cfg.Strategy, cfg.Model, ckAfter)
	if err != nil {
		return nil, err
	}
	if len(plan.Segments) != len(sp.Segments) {
		return nil, fmt.Errorf("decode: %d segments recomputed, record says %d", len(plan.Segments), len(sp.Segments))
	}
	for i, seg := range plan.Segments {
		want := sp.Segments[i]
		if seg.Chain != want.Chain || schedule.Pos(seg.Tasks[0]) != want.Start || len(seg.Tasks) != want.Len ||
			math.Float64bits(seg.R) != want.RBits || math.Float64bits(seg.W) != want.WBits || math.Float64bits(seg.C) != want.CBits {
			return nil, fmt.Errorf("decode: segment %d differs from its stored metadata", i)
		}
	}
	// The planner's estimate is cheap to recompute (PathApprox, or the
	// Theorem 1 formula for CkptNone) and both pipelines are
	// deterministic, so the makespans double as integrity checks: a
	// record whose stored bits disagree with the recomputation does not
	// describe this plan.
	em, err := ckpt.ExpectedMakespan(plan, ckpt.EvalOptions{Estimator: cfg.Estimator, MCSeed: cfg.Seed})
	if err != nil {
		return nil, err
	}
	if math.Float64bits(em) != sp.EMBits {
		return nil, fmt.Errorf("decode: expected makespan %g does not match the stored bits", em)
	}
	ffm := schedule.FailureFreeMakespan()
	if math.Float64bits(ffm) != sp.FFMBits {
		return nil, fmt.Errorf("decode: failure-free makespan %g does not match the stored bits", ffm)
	}
	res := &core.Result{
		Strategy:            cfg.Strategy,
		Plan:                plan,
		Schedule:            schedule,
		ExpectedMakespan:    em,
		FailureFreeMakespan: ffm,
		Checkpoints:         plan.NumCheckpoints(),
		Superchains:         len(schedule.Chains),
		Segments:            len(plan.Segments),
	}
	return newPlan(sc, res, pf, w, redundant), nil
}

// storeRef locates one live record: segment sequence number, byte
// offset, and line length (newline included).
type storeRef struct {
	seq uint64
	off int64
	n   int64
}

// StoreOption tunes OpenPlanStore.
type StoreOption func(*storeConfig)

type storeConfig struct {
	segmentBytes int64
	compactMin   int64
	logf         func(string, ...any)
}

// WithStoreSegmentBytes sets the size at which the active segment file
// is rotated (default DefaultStoreSegmentBytes).
func WithStoreSegmentBytes(n int64) StoreOption {
	return func(c *storeConfig) {
		if n > 0 {
			c.segmentBytes = n
		}
	}
}

// WithStoreCompactMinBytes sets the minimum volume of dead bytes
// before a size-triggered compaction fires (default 1 MiB).
func WithStoreCompactMinBytes(n int64) StoreOption {
	return func(c *storeConfig) {
		if n > 0 {
			c.compactMin = n
		}
	}
}

// WithStoreLogf routes the store's recovery/compaction diagnostics
// (skipped corrupt records, undeletable stale segments) to fn.
func WithStoreLogf(fn func(string, ...any)) StoreOption {
	return func(c *storeConfig) {
		if fn != nil {
			c.logf = fn
		}
	}
}

// PlanStore is the append-only keyed record store under the Service's
// LRU. It is goroutine-safe; the Service is its intended caller, but
// it can be opened directly (and handed to WithPlanStore) to tune the
// segment and compaction thresholds. One process per directory: the
// store does no cross-process locking.
type PlanStore struct {
	dir        string
	segBytes   int64
	compactMin int64
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
func OpenPlanStore(dir string, opts ...StoreOption) (*PlanStore, error) {
	cfg := storeConfig{
		segmentBytes: DefaultStoreSegmentBytes,
		compactMin:   defaultStoreCompactMinBytes,
		logf:         func(string, ...any) {},
	}
	for _, o := range opts {
		o(&cfg)
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, err
	}
	st := &PlanStore{
		dir:        dir,
		segBytes:   cfg.segmentBytes,
		compactMin: cfg.compactMin,
		logf:       cfg.logf,
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
		f.Close() //hanccr:allow discarderr error-path cleanup of a just-opened empty segment; the Stat error is what the caller sees
		return nil, err
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
		var rec storeRecord
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
		case err == nil && json.Unmarshal(line, &rec) == nil && rec.Key != "" && crc32.ChecksumIEEE(rec.Plan) == rec.CRC:
			if old, ok := st.index[rec.Key]; ok {
				st.dead += old.n
				st.live -= old.n
			}
			st.index[rec.Key] = storeRef{seq: seq, off: off, n: n}
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

// readLocked returns the raw record line at ref. Caller holds st.mu.
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
// trusted (unreadable, re-framed, or CRC mismatch — bit-rot since the
// open-time scan).
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
	var rec storeRecord
	if err := json.Unmarshal(line, &rec); err != nil {
		return nil, true, fmt.Errorf("store: %w", err)
	}
	if rec.Key != key {
		return nil, true, fmt.Errorf("store: record at %d is keyed %.12s, want %.12s", ref.off, rec.Key, key)
	}
	if crc32.ChecksumIEEE(rec.Plan) != rec.CRC {
		return nil, true, errors.New("store: record payload fails its CRC")
	}
	return rec.Plan, true, nil
}

// Put appends a record for key, superseding any previous one. An
// identical payload already live under the key is deduplicated (the
// common case: every cache miss writes through, restarts re-plan
// nothing new). Put may rotate the active segment or trigger a
// size-based compaction.
func (st *PlanStore) Put(key string, payload []byte) error {
	rec := storeRecord{Key: key, CRC: crc32.ChecksumIEEE(payload), Plan: json.RawMessage(payload)}
	line, err := json.Marshal(rec)
	if err != nil {
		return err
	}
	if len(line) > maxStoreLine {
		return fmt.Errorf("store: record of %d bytes above the %d-byte line limit", len(line), maxStoreLine)
	}
	line = append(line, '\n')
	st.mu.Lock()
	defer st.mu.Unlock()
	if old, ok := st.index[key]; ok {
		if prev, err := st.readLocked(old); err == nil {
			var oldRec storeRecord
			if json.Unmarshal(prev, &oldRec) == nil && bytes.Equal(oldRec.Plan, payload) {
				return nil
			}
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
	st.index[key] = storeRef{seq: st.activeSeq, off: off, n: int64(len(line))}
	st.live += int64(len(line))
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
// configured minimum and outweighs the live data — the point where a
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
		line, err := st.readLocked(st.index[k])
		if err != nil {
			// The record was live a moment ago; losing it only costs a
			// re-plan, so log and carry on rather than fail the rewrite.
			st.logf("store: compaction drops unreadable record %.12s: %v", k, err)
			continue
		}
		if _, err := f.Write(line); err != nil {
			f.Close() //hanccr:allow discarderr error-path cleanup; the tmp segment is removed and the Write error surfaces
			os.Remove(tmp)
			return err
		}
		newIndex[k] = storeRef{seq: newSeq, off: off, n: int64(len(line))}
		off += int64(len(line))
	}
	if err := f.Sync(); err != nil {
		f.Close() //hanccr:allow discarderr error-path cleanup; the tmp segment is removed and the Sync error surfaces
		os.Remove(tmp)
		return err
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

// Dir returns the store's root directory.
func (st *PlanStore) Dir() string { return st.dir }

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

// storeLoad fetches and decodes key's record, if the store holds one.
// A record that cannot be decoded — or, under WithStoreVerify, that is
// not byte-identical to a freshly planned reference — is dropped so
// the key is re-planned, and false is returned. The caller accounts
// the appropriate counter (store hit vs boot load).
func (s *Service) storeLoad(ctx context.Context, key string) (*Plan, bool) {
	if s.store == nil {
		return nil, false
	}
	payload, ok, err := s.store.Get(key)
	if !ok {
		return nil, false
	}
	var p *Plan
	if err == nil {
		p, err = s.decodeStored(ctx, key, payload)
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
	return p, true
}

// decodeStored decodes a stored payload (decodePlan's key-hash and
// bit-exact cross-checks) and, under WithStoreVerify, golden-checks it
// against a fresh plan — the one trust gate for records read from disk
// or from a peer.
func (s *Service) decodeStored(ctx context.Context, key string, payload []byte) (*Plan, error) {
	p, err := decodePlan(ctx, key, payload)
	if err == nil && s.storeVerify {
		err = s.verifyStored(ctx, p, payload)
	}
	return p, err
}

// verifyStored is the WithStoreVerify integrity mode: plan the
// scenario from scratch and require the stored payload to be
// byte-identical to the reference's encoding. decodePlan's structural
// checks only prove the record is *a* consistent plan for the
// scenario; this proves it is *the* plan the planner would produce.
func (s *Service) verifyStored(ctx context.Context, p *Plan, payload []byte) error {
	fresh, err := s.planner(ctx, p.scenario)
	if err != nil {
		return fmt.Errorf("verify replan: %w", err)
	}
	want, err := encodePlan(fresh)
	if err != nil {
		return err
	}
	if !bytes.Equal(payload, want) {
		return errors.New("verify: record differs from a freshly planned reference")
	}
	return nil
}

// storePut writes a solved plan through to the store. Failures are
// logged, not returned: the in-memory result is already correct, the
// store just missed an entry it can re-create on the next miss. A
// record above maxStoreLine is refused (and logged) the same way, so
// the store never holds a line its readers would skip.
func (s *Service) storePut(key string, p *Plan) {
	if s.store == nil {
		return
	}
	payload, err := encodePlan(p)
	if err != nil {
		s.logf("store: encode %.12s: %v", key, err)
		return
	}
	if err := s.store.Put(key, payload); err != nil {
		s.logf("store: write %.12s: %v", key, err)
	}
}

// LoadStore rehydrates every stored plan into the LRU with workers
// goroutines (0 = all cores) — the boot step that makes a restart's
// first request for a known scenario a cache hit without re-planning.
// loaded counts plans placed in the cache (also
// visible as Stats.StoreLoads), dropped counts records that failed
// decoding and were discarded. The error is the store's deferred open
// failure or ctx's cancellation; bad records never fail the boot.
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
		// A boot-time load is neither served traffic nor a planner run,
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
