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
// The write side encodes a record in one pass. encodeRecord writes the
// payload by hand (appendPlan: strconv for the numeric bulk, json.Marshal
// only for the small scenario object) and frames the line around it in
// the same buffer (frameRecord). The Service's write-through (storePut)
// appends that line without re-validating it: the bytes come from our
// own encoder. The exported Put frames any caller's payload the same
// way but first refuses a key that is not plain and a payload that is
// not valid JSON, since its bytes may come from anywhere.
// The read side is the write side's inverse and checks every record's
// CRC. parseRecordLine, the one record parser for segment files and for
// the GET /v1/store stream, splits a line by position and checks its
// payload with json.Valid; a line in any other form is a corrupt
// record. The index keeps each payload's place inside its line and its
// CRC, so Get reads just the payload and checks the CRC without parsing
// the line, and decodeStoredPlan, appendPlan's inverse, reads the
// payload's canonical bytes with json.Unmarshal only for the small
// scenario object.
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
	"strconv"
	"sync"
	"sync/atomic"

	"repro/internal/core"
	"repro/internal/par"
	"repro/internal/pegasus"
	"repro/internal/wfdag"
)

// storeSegmentBytes is the size at which the active segment file is
// rotated.
const storeSegmentBytes = 64 << 20

// storeCompactMinBytes is the minimum volume of dead bytes before a
// size-triggered compaction fires; below it a rewrite costs more than
// the space it reclaims.
const storeCompactMinBytes = 1 << 20

// storeFormatVersion is bumped on any incompatible change to the
// record payload schema; records with another version are dropped and
// re-planned.
const storeFormatVersion = 1

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
// everything the decode path recomputes. appendPlan writes its JSON by
// hand, field for field, and decodeStoredPlan reads it back the same
// way.
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

// stored returns the scenario portion of a record: decodePlan's
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

// encodePlan serializes a solved plan into the store's record payload
// (see appendPlan).
func encodePlan(p *Plan) ([]byte, error) {
	scen, err := json.Marshal(p.scenario.stored())
	if err != nil {
		return nil, err
	}
	return appendPlan(make([]byte, 0, planSize(p, len(scen))), p, scen), nil
}

// encodeRecord writes key's whole store record for p in one pass into
// one buffer sized from the plan: the payload (appendPlan) behind
// headroom, then the line framing it (frameRecord). It returns the line,
// newline included, and the payload inside it.
func encodeRecord(key string, p *Plan) (line, payload []byte, err error) {
	scen, err := json.Marshal(p.scenario.stored())
	if err != nil {
		return nil, nil, err
	}
	head := recordHeadroom(key)
	buf := make([]byte, head, head+planSize(p, len(scen))+len("}\n"))
	line, payload = frameRecord(appendPlan(buf, p, scen), head, key)
	return line, payload, nil
}

// appendPlan appends p's record payload, the storedPlan object, to
// dst: exactly the bytes json.Marshal(storedPlan) writes (pinned by
// TestEncodePlanMatchesReference and FuzzDecodePlan against
// refEncodePlan), so two encodings of one plan are byte-identical and
// a stored record can be golden-checked against a fresh plan. scen is
// the marshalled storedScenario; the numeric bulk — superchains,
// checkpoints, segments and bit patterns — is written by hand.
func appendPlan(dst []byte, p *Plan, scen []byte) []byte {
	sched := p.res.Schedule
	dst = append(dst, `{"v":`...)
	dst = strconv.AppendInt(dst, storeFormatVersion, 10)
	dst = append(dst, `,"scenario":`...)
	dst = append(dst, scen...)
	dst = append(dst, `,"chains":`...)
	if len(sched.Chains) == 0 {
		dst = append(dst, "null"...)
	} else {
		for i, sc := range sched.Chains {
			dst = append(dst, listSep(i))
			dst = append(dst, `{"proc":`...)
			dst = strconv.AppendInt(dst, int64(sc.Proc), 10)
			dst = append(dst, `,"tasks":[`...)
			for j, t := range sc.Tasks {
				if j > 0 {
					dst = append(dst, ',')
				}
				dst = strconv.AppendInt(dst, int64(t), 10)
			}
			dst = append(dst, "]}"...)
		}
		dst = append(dst, ']')
	}
	dst = append(dst, `,"checkpoints":`...)
	nck := 0
	for t, ck := range p.res.Plan.CheckpointAfter {
		if ck {
			dst = append(dst, listSep(nck))
			dst = strconv.AppendInt(dst, int64(t), 10)
			nck++
		}
	}
	if nck == 0 {
		dst = append(dst, "null"...)
	} else {
		dst = append(dst, ']')
	}
	for i, seg := range p.res.Plan.Segments {
		if i == 0 {
			dst = append(dst, `,"segments":[`...)
		} else {
			dst = append(dst, ',')
		}
		dst = append(dst, `{"chain":`...)
		dst = strconv.AppendInt(dst, int64(seg.Chain), 10)
		dst = append(dst, `,"start":`...)
		dst = strconv.AppendInt(dst, int64(sched.Pos(seg.Tasks[0])), 10)
		dst = append(dst, `,"len":`...)
		dst = strconv.AppendInt(dst, int64(len(seg.Tasks)), 10)
		dst = append(dst, `,"r_bits":`...)
		dst = strconv.AppendUint(dst, math.Float64bits(seg.R), 10)
		dst = append(dst, `,"w_bits":`...)
		dst = strconv.AppendUint(dst, math.Float64bits(seg.W), 10)
		dst = append(dst, `,"c_bits":`...)
		dst = strconv.AppendUint(dst, math.Float64bits(seg.C), 10)
		dst = append(dst, '}')
	}
	if len(p.res.Plan.Segments) > 0 {
		dst = append(dst, ']')
	}
	dst = append(dst, `,"em_bits":`...)
	dst = strconv.AppendUint(dst, math.Float64bits(p.res.ExpectedMakespan), 10)
	dst = append(dst, `,"ffm_bits":`...)
	dst = strconv.AppendUint(dst, math.Float64bits(p.res.FailureFreeMakespan), 10)
	if p.info.RedundantEdges != 0 {
		dst = append(dst, `,"redundant":`...)
		dst = strconv.AppendInt(dst, int64(p.info.RedundantEdges), 10)
	}
	return append(dst, '}')
}

// listSep returns the byte before element i of a JSON array: its
// opening bracket, or a comma.
func listSep(i int) byte {
	if i == 0 {
		return '['
	}
	return ','
}

// decimalLen returns the length of n in decimal.
func decimalLen(n int) int {
	l := 1
	if n < 0 {
		l, n = 2, -n
	}
	for ; n >= 10; n /= 10 {
		l++
	}
	return l
}

// maxIntLen is the widest decimal an int64 or a uint64 can take.
const maxIntLen = 20

// planSize bounds the length of appendPlan's output, so the record
// buffer is allocated once: it is exact but for the version, the
// redundant-edge count and the bit patterns, each costed at its widest.
func planSize(p *Plan, scenLen int) int {
	sched, plan := p.res.Schedule, p.res.Plan
	size := len(`{"v":,"scenario":,"chains":,"checkpoints":,"em_bits":,"ffm_bits":,"redundant":}`) +
		scenLen + 2*len("null") + 4*maxIntLen // "null" is wider than "[]"
	for _, sc := range sched.Chains {
		size += len(`{"proc":,"tasks":[]},`) + decimalLen(sc.Proc)
		for _, t := range sc.Tasks {
			size += decimalLen(int(t)) + len(",")
		}
	}
	for t, ck := range plan.CheckpointAfter {
		if ck {
			size += decimalLen(t) + len(",")
		}
	}
	size += len(`,"segments":[]`)
	for _, seg := range plan.Segments {
		size += len(`{"chain":,"start":,"len":,"r_bits":,"w_bits":,"c_bits":},`) + 3*maxIntLen +
			decimalLen(seg.Chain) + decimalLen(sched.Pos(seg.Tasks[0])) + decimalLen(len(seg.Tasks))
	}
	return size
}

// plainKey reports whether key can key a store record: non-empty
// printable ASCII with no quote, backslash or HTML-escaped byte, which
// json.Marshal writes as itself between quotes. Every scenario key (64
// hex digits) is plain.
func plainKey[K string | []byte](key K) bool {
	for i := 0; i < len(key); i++ {
		if c := key[i]; c < 0x20 || c >= 0x7f || c == '"' || c == '\\' || c == '<' || c == '>' || c == '&' {
			return false
		}
	}
	return len(key) > 0
}

// recordHead is the fixed text of a record line's head,
// {"key":"…","crc":…,"plan":.
const recordHead = `{"key":"","crc":,"plan":`

// recordHeadroom is the room frameRecord needs before a payload for
// key's head: the widest head, with a ten-digit CRC.
func recordHeadroom(key string) int {
	return len(recordHead) + len(key) + len("4294967295")
}

// frameRecord makes buf, whose payload buf[off:] sits behind
// off >= recordHeadroom(key) bytes of headroom, into the record line
// {"key":"…","crc":…,"plan":…}\n for plain key: it writes the head
// right-aligned before the payload and appends the closing brace and
// the newline. The line is exactly json.Marshal of the record plus "\n"
// for a payload that is compact JSON as json.Marshal writes it (pinned
// by FuzzStoreLine). It returns the line and the payload inside it.
func frameRecord(buf []byte, off int, key string) (line, payload []byte) {
	payload = buf[off:]
	var crcBuf [len("4294967295")]byte
	crc := strconv.AppendUint(crcBuf[:0], uint64(crc32.ChecksumIEEE(payload)), 10)
	start := off - (recordHeadroom(key) - len(crcBuf) + len(crc))
	head := append(buf[start:start], `{"key":"`...)
	head = append(head, key...)
	head = append(head, `","crc":`...)
	head = append(head, crc...)
	head = append(head, `,"plan":`...)
	return append(buf, "}\n"...)[start:], payload
}

// recordFrame is a parsed record line: its key and CRC field, and where
// its payload sits inside the line.
type recordFrame struct {
	key        string
	crc        uint32
	poff, plen int
}

// payload returns the frame's payload inside its line.
func (f recordFrame) payload(line []byte) []byte { return line[f.poff : f.poff+f.plen] }

// parseRecordLine parses a record line, newline stripped: the inverse
// of frameRecord. It accepts exactly the one record form,
// {"key":"<plain key>","crc":<canonical digits>,"plan":<payload>},
// whose payload has no surrounding whitespace and passes json.Valid,
// and splits it by position. ok is false for a line in any other form,
// which is a corrupt record. The CRC is not checked.
func parseRecordLine(line []byte) (f recordFrame, ok bool) {
	r := planReader{b: line}
	r.lit(`{"key":"`)
	key, _, _ := bytes.Cut(r.b, []byte{'"'})
	r.b = r.b[len(key):]
	r.lit(`","crc":`)
	crc := r.uint()
	r.lit(`,"plan":`)
	if r.bad || !plainKey(key) || crc > math.MaxUint32 || len(r.b) < 2 || r.b[len(r.b)-1] != '}' {
		return recordFrame{}, false
	}
	payload := r.b[:len(r.b)-1]
	if isSpace(payload[0]) || isSpace(payload[len(payload)-1]) || !json.Valid(payload) {
		return recordFrame{}, false
	}
	return recordFrame{key: string(key), crc: uint32(crc), poff: len(line) - len(r.b), plen: len(payload)}, true
}

// isSpace reports whether c is JSON whitespace.
func isSpace(c byte) bool { return c == ' ' || c == '\t' || c == '\n' || c == '\r' }

// planReader reads canonical JSON front to back: the store's record
// frames and payloads. The first mismatch marks it bad and empties it,
// so every later read fails too and a decode checks once, at the end.
type planReader struct {
	b   []byte // the unread bytes
	bad bool
}

// fail marks the reader bad.
func (r *planReader) fail() { r.b, r.bad = nil, true }

// skip consumes s if the unread bytes start with it.
func (r *planReader) skip(s string) bool {
	if len(r.b) < len(s) || string(r.b[:len(s)]) != s {
		return false
	}
	r.b = r.b[len(s):]
	return true
}

// lit consumes s, which must come next.
func (r *planReader) lit(s string) {
	if !r.skip(s) {
		r.fail()
	}
}

// uint reads a JSON number that is a uint64 in canonical decimal: no
// sign, no leading zero, no fraction or exponent (what follows it is
// checked by the next read).
func (r *planReader) uint() uint64 {
	b := r.b
	var v uint64
	i := 0
	for ; i < len(b) && b[i]-'0' <= 9; i++ {
		v = v*10 + uint64(b[i]-'0')
	}
	// v wrapped only if the digits exceed MaxUint64, which has
	// maxIntLen of them; digit strings of one length compare as numbers.
	if i == 0 || (i > 1 && b[0] == '0') || i > maxIntLen || (i == maxIntLen && string(b[:i]) > "18446744073709551615") {
		r.fail()
		return 0
	}
	r.b = b[i:]
	return v
}

// int reads a JSON number that is an int in canonical decimal (no -0).
func (r *planReader) int() int {
	neg := r.skip("-")
	u := r.uint()
	switch {
	case neg && u != 0 && u <= uint64(math.MaxInt)+1:
		return int(-u)
	case !neg && u <= math.MaxInt:
		return int(u)
	}
	r.fail()
	return 0
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

// decodeStoredPlan reads a record payload: the inverse of appendPlan.
// It accepts exactly the canonical bytes appendPlan and
// json.Marshal(storedPlan) write — the fields in order, no whitespace,
// null for an empty list, segments and redundant omitted when empty —
// and yields what json.Unmarshal would (pinned by
// FuzzStoredPlanDecode). The scenario object goes through
// json.Unmarshal on its own bytes, the mirror of the write side's
// json.Marshal. Any other payload is an error, so its record is dropped
// and re-planned like any other unusable record. Each list is allocated
// once, at its counted length.
func decodeStoredPlan(payload []byte) (storedPlan, error) {
	var sp storedPlan
	r := planReader{b: payload}
	r.lit(`{"v":`)
	sp.Version = r.int()
	r.lit(`,"scenario":`)
	if scen := r.object(); !r.bad {
		var ss storedScenario
		if err := json.Unmarshal(scen, &ss); err != nil {
			return storedPlan{}, fmt.Errorf("decode: scenario: %w", err)
		}
		sp.Scenario = ss
	}
	r.lit(`,"chains":`)
	sp.Chains = readList(&r, func(rest []byte) int { return bytes.Count(rest, []byte(`{"proc":`)) }, func() storedChain {
		var c storedChain
		r.lit(`{"proc":`)
		c.Proc = r.int()
		r.lit(`,"tasks":`)
		c.Tasks = r.ints()
		r.lit("}")
		return c
	})
	r.lit(`,"checkpoints":`)
	sp.Checkpoints = r.ints()
	if r.skip(`,"segments":`) {
		sp.Segments = readList(&r, func(rest []byte) int { return bytes.Count(untilBracket(rest), []byte("{")) }, func() storedSegment {
			var seg storedSegment
			r.lit(`{"chain":`)
			seg.Chain = r.int()
			r.lit(`,"start":`)
			seg.Start = r.int()
			r.lit(`,"len":`)
			seg.Len = r.int()
			r.lit(`,"r_bits":`)
			seg.RBits = r.uint()
			r.lit(`,"w_bits":`)
			seg.WBits = r.uint()
			r.lit(`,"c_bits":`)
			seg.CBits = r.uint()
			r.lit("}")
			return seg
		})
	}
	r.lit(`,"em_bits":`)
	sp.EMBits = r.uint()
	r.lit(`,"ffm_bits":`)
	sp.FFMBits = r.uint()
	if r.skip(`,"redundant":`) {
		sp.Redundant = r.int()
	}
	r.lit("}")
	if r.bad || len(r.b) != 0 {
		return storedPlan{}, errors.New("decode: payload is not in the store's canonical form")
	}
	return sp, nil
}

// object reads a JSON object whose values hold no object or list —
// storedScenario's shape — and returns its bytes unvalidated: it ends
// at the first closing brace outside a string.
func (r *planReader) object() []byte {
	if len(r.b) == 0 || r.b[0] != '{' {
		r.fail()
		return nil
	}
	for i, str := 1, false; i < len(r.b); i++ {
		switch c := r.b[i]; {
		case str && c == '\\':
			i++
		case c == '"':
			str = !str
		case !str && c == '}':
			obj := r.b[:i+1]
			r.b = r.b[i+1:]
			return obj
		}
	}
	r.fail()
	return nil
}

// ints reads a list of ints, presized by counting its commas.
func (r *planReader) ints() []int {
	return readList(r, func(rest []byte) int { return bytes.Count(untilBracket(rest), []byte(",")) + 1 }, r.int)
}

// untilBracket returns rest up to its first closing bracket: the body
// of a list that holds no list.
func untilBracket(rest []byte) []byte {
	if end := bytes.IndexByte(rest, ']'); end >= 0 {
		return rest[:end]
	}
	return rest
}

// readList reads a JSON list whose elements elem reads. null leaves the
// list nil and [] makes it empty but not nil, as json.Unmarshal does;
// otherwise the list is allocated once with room for size(rest)
// elements, rest being the bytes after its opening bracket.
func readList[T any](r *planReader, size func(rest []byte) int, elem func() T) []T {
	if r.skip("null") {
		return nil
	}
	r.lit("[")
	if r.skip("]") {
		return []T{}
	}
	out := make([]T, 0, size(r.b))
	for !r.bad {
		out = append(out, elem())
		if !r.skip(",") {
			break
		}
	}
	r.lit("]")
	return out
}

// decodePlan reconstructs a *Plan from a record payload without
// re-running Algorithm 1 or 2: it materializes the scenario's workflow
// through memo (owned by the calling scope; nil: generated afresh —
// generation is deterministic, so both yield the same workflow) and
// runs planTail on the record's superchains and checkpoint marks. The
// record's segments and makespans are cross-checked bit-exactly
// against the result; any mismatch fails the decode so the caller
// re-plans instead of serving a corrupt plan.
func decodePlan(ctx context.Context, key string, payload []byte, memo *pegasus.Memo) (*Plan, error) {
	sp, err := decodeStoredPlan(payload)
	if err != nil {
		return nil, err
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
	w, redundant, err := sc.materialize(ctx, memo)
	if err != nil {
		return nil, err
	}
	if redundant != sp.Redundant {
		return nil, fmt.Errorf("decode: %d redundant edges, record says %d", redundant, sp.Redundant)
	}
	sf := &core.Scaffold{
		W:      w,
		Procs:  make([]int, len(sp.Chains)),
		Chains: make([][]wfdag.TaskID, len(sp.Chains)),
	}
	total := 0
	for _, c := range sp.Chains {
		total += len(c.Tasks)
	}
	ids := make([]wfdag.TaskID, 0, total) // one backing array, cut per chain
	for i, c := range sp.Chains {
		sf.Procs[i] = c.Proc
		start := len(ids)
		for _, t := range c.Tasks {
			ids = append(ids, wfdag.TaskID(t))
		}
		sf.Chains[i] = ids[start:len(ids):len(ids)]
	}
	n := w.G.NumTasks()
	marks := make([]bool, n)
	for _, t := range sp.Checkpoints {
		if t < 0 || t >= n {
			return nil, fmt.Errorf("decode: checkpoint after unknown task %d", t)
		}
		marks[t] = true
	}
	p, err := planTail(ctx, sc, sf, redundant, marks)
	if err != nil {
		return nil, err
	}
	res := p.res
	if len(res.Plan.Segments) != len(sp.Segments) {
		return nil, fmt.Errorf("decode: %d segments recomputed, record says %d", len(res.Plan.Segments), len(sp.Segments))
	}
	for i, seg := range res.Plan.Segments {
		want := sp.Segments[i]
		if seg.Chain != want.Chain || res.Schedule.Pos(seg.Tasks[0]) != want.Start || len(seg.Tasks) != want.Len ||
			math.Float64bits(seg.R) != want.RBits || math.Float64bits(seg.W) != want.WBits || math.Float64bits(seg.C) != want.CBits {
			return nil, fmt.Errorf("decode: segment %d differs from its stored metadata", i)
		}
	}
	// The planner's estimate is cheap to recompute (PathApprox, or the
	// Theorem 1 formula for CkptNone) and deterministic, so the
	// makespans double as integrity checks: a record whose stored bits
	// disagree with the recomputation does not describe this plan.
	if math.Float64bits(res.ExpectedMakespan) != sp.EMBits {
		return nil, fmt.Errorf("decode: expected makespan %g does not match the stored bits", res.ExpectedMakespan)
	}
	if math.Float64bits(res.FailureFreeMakespan) != sp.FFMBits {
		return nil, fmt.Errorf("decode: failure-free makespan %g does not match the stored bits", res.FailureFreeMakespan)
	}
	return p, nil
}

// storeRef locates one live record: segment sequence number, byte
// offset, and line length (newline included); and, inside the line,
// its payload (offset from the line's start, length) and the payload's
// CRC, so Get reads and checks the payload without parsing the line.
type storeRef struct {
	seq        uint64
	off        int64
	n          int64
	poff, plen int
	crc        uint32
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
		var f recordFrame
		ok := false
		if err == nil {
			f, ok = parseRecordLine(line)
			ok = ok && crc32.ChecksumIEEE(f.payload(line)) == f.crc
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
			if old, ok := st.index[f.key]; ok {
				st.dead += old.n
				st.live -= old.n
			}
			st.index[f.key] = storeRef{seq: seq, off: off, n: n, poff: f.poff, plen: f.plen, crc: f.crc}
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

// readAt returns the n bytes at offset off of segment seq. Caller
// holds st.mu.
func (st *PlanStore) readAt(seq uint64, off int64, n int) ([]byte, error) {
	f, err := os.Open(st.segPath(seq))
	if err != nil {
		return nil, err
	}
	defer f.Close()
	b := make([]byte, n)
	if _, err := f.ReadAt(b, off); err != nil {
		return nil, err
	}
	return b, nil
}

// readLocked returns the raw record line at ref. Caller holds st.mu.
func (st *PlanStore) readLocked(ref storeRef) ([]byte, error) {
	line, err := st.readAt(ref.seq, ref.off, int(ref.n))
	if err != nil {
		return nil, err
	}
	if line[len(line)-1] != '\n' {
		return nil, fmt.Errorf("store: record at %s+%d is not newline-terminated", filepath.Base(st.segPath(ref.seq)), ref.off)
	}
	return line, nil
}

// Get returns the payload stored under key. ok is false when the key
// has no live record; err reports a record that exists but cannot be
// trusted (unreadable, or a payload that fails the CRC its line was
// indexed with — bit-rot since the open-time scan). Get reads only the
// payload's bytes: the index knows where they sit and their CRC, and
// the key is checked again when the payload is decoded (decodePlan).
func (st *PlanStore) Get(key string) (payload []byte, ok bool, err error) {
	st.mu.Lock()
	defer st.mu.Unlock()
	ref, ok := st.index[key]
	if !ok {
		return nil, false, nil
	}
	payload, err = st.readAt(ref.seq, ref.off+int64(ref.poff), ref.plen)
	if err != nil {
		return nil, true, err
	}
	if crc32.ChecksumIEEE(payload) != ref.crc {
		return nil, true, errors.New("store: record payload fails its CRC")
	}
	return payload, true, nil
}

// Put appends a record for key, superseding any previous one. The
// payload must be one compact JSON value, as json.Marshal writes it:
// the record frames it verbatim and its CRC covers exactly these
// bytes. Because a payload may come from anywhere, Put refuses one
// that is not valid JSON or that holds a newline, which would split
// the record's line. It refuses a key that is not plain (see plainKey),
// so every record it writes reads back under its key. An identical
// payload already live under the key is deduplicated (the common case:
// every cache miss writes through, restarts re-plan nothing new). Put
// may rotate the active segment or trigger a size-based compaction.
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
	head := recordHeadroom(key)
	buf := make([]byte, head, head+len(payload)+len("}\n"))
	line, payload := frameRecord(append(buf, payload...), head, key)
	return st.appendLine(key, line, payload)
}

// appendLine appends line, key's record framing payload as
// frameRecord writes it (newline included), to the active segment: the
// locked append routine behind Put and the Service's write-through,
// which owns the line cap, deduplication, the torn-tail recovery
// newline, rotation and compaction.
func (st *PlanStore) appendLine(key string, line, payload []byte) error {
	if len(line)-1 > maxStoreLine {
		return fmt.Errorf("store: record of %d bytes above the %d-byte line limit", len(line)-1, maxStoreLine)
	}
	ref := storeRef{n: int64(len(line)), poff: len(line) - len(payload) - len("}\n"), plen: len(payload), crc: crc32.ChecksumIEEE(payload)}
	st.mu.Lock()
	defer st.mu.Unlock()
	// Two lines frameRecord wrote for key are equal just when their
	// payloads are.
	if old, ok := st.index[key]; ok && old.n == ref.n && old.crc == ref.crc {
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
	ref.seq, ref.off = st.activeSeq, off
	st.index[key] = ref
	st.live += ref.n
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
		// The line is copied verbatim, so its payload's place and CRC hold.
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

// storeLoad fetches and decodes key's record, if the store holds one,
// materializing its workflow through memo (see decodePlan). A record that cannot be decoded — or, under
// WithStoreVerify, that is not byte-identical to a freshly planned
// reference — is dropped so the key is re-planned, and false is
// returned. The caller accounts the appropriate counter (store hit vs
// boot load).
func (s *Service) storeLoad(ctx context.Context, key string, memo *pegasus.Memo) (*Plan, bool) {
	if s.store == nil {
		return nil, false
	}
	payload, ok, err := s.store.Get(key)
	if !ok {
		return nil, false
	}
	var p *Plan
	if err == nil {
		p, err = s.decodeStored(ctx, key, payload, memo)
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
// or from a peer. A decode never builds or inserts a scaffold: a
// record's chains do not prove they are Algorithm 1's output.
func (s *Service) decodeStored(ctx context.Context, key string, payload []byte, memo *pegasus.Memo) (*Plan, error) {
	p, err := decodePlan(ctx, key, payload, memo)
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
// the store never holds a line its readers would skip. The record is
// encoded in one pass (encodeRecord) and appended without Put's JSON
// validation: its bytes come from appendPlan, which is pinned to
// json.Marshal's output, so the rescan could only re-prove that.
func (s *Service) storePut(key string, p *Plan) {
	if s.store == nil {
		return
	}
	line, payload, err := encodeRecord(key, p)
	if err != nil {
		s.logf("store: encode %.12s: %v", key, err)
		return
	}
	if err := s.store.appendLine(key, line, payload); err != nil {
		s.logf("store: write %.12s: %v", key, err)
	}
}

// LoadStore rehydrates every stored plan into the LRU with workers
// goroutines (0 = all cores) — the boot step that makes a restart's
// first request for a known scenario a cache hit without re-planning.
// Records of one structure share one generation, memoized for this
// call only. loaded counts plans placed in the cache (also visible as
// Stats.StoreLoads), dropped counts records that failed decoding and
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
	var memo pegasus.Memo
	var nLoaded, nDropped atomic.Int64
	err = par.ForEachCtx(ctx, workers, len(keys), func(i int) error {
		if err := ctx.Err(); err != nil {
			return err
		}
		p, ok := s.storeLoad(ctx, keys[i], &memo)
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
