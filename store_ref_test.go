package hanccr

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"hash/crc32"
	"math"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"
)

// refEncodePlan is the reference model of appendPlan: the record
// payload as encoding/json writes the storedPlan struct.
func refEncodePlan(p *Plan) ([]byte, error) {
	sp := storedPlan{
		Version:   storeFormatVersion,
		Scenario:  p.scenario.stored(),
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

// encodeTestScenarios covers every shape appendPlan writes: the four
// families under each of the four strategies, with and without the
// exact cost model, a plan at the benchmarks' largest size, and
// injected DAX and JSON documents whose labels need JSON and HTML
// escaping.
func encodeTestScenarios(t testing.TB) []Scenario {
	t.Helper()
	var out []Scenario
	for _, fam := range []string{"genome", "montage", "ligo", "cybershake"} {
		for _, st := range []Strategy{CkptSome, CkptAll, CkptNone, ExitOnly} {
			for _, exact := range []bool{false, true} {
				opts := []ScenarioOption{WithFamily(fam), WithTasks(30), WithProcs(3), WithStrategy(st), WithPFail(0.01)}
				if exact {
					opts = append(opts, WithExactCostModel())
				}
				out = append(out, NewScenario(opts...))
			}
		}
	}
	wf, err := GenerateWorkflow(context.Background(), NewScenario(WithFamily("ligo"), WithTasks(40), WithSeed(3)))
	if err != nil {
		t.Fatal(err)
	}
	var dax, doc bytes.Buffer
	if err := wf.WriteDAX(&dax); err != nil {
		t.Fatal(err)
	}
	if err := wf.WriteJSON(&doc); err != nil {
		t.Fatal(err)
	}
	return append(out,
		NewScenario(WithFamily("montage"), WithTasks(400), WithProcs(20)),
		NewScenario(WithWorkflow("dax <&> \u00e9\u2028", "dax", dax.Bytes()), WithProcs(4), WithStrategy(ExitOnly)),
		NewScenario(WithWorkflow("json \"inline\"\\", "json", doc.Bytes()), WithProcs(4), WithExactCostModel()),
	)
}

// TestEncodePlanMatchesReference pins the one-pass encoder to
// encoding/json: every payload equals refEncodePlan's and every record
// line equals recordLine's, byte for byte. A record costs three
// allocations: json.Marshal's boxed scenario object and its output,
// and the line buffer, which is never regrown.
func TestEncodePlanMatchesReference(t *testing.T) {
	ctx := context.Background()
	for _, sc := range encodeTestScenarios(t) {
		p, err := NewPlan(ctx, sc)
		if err != nil {
			t.Fatalf("%s/%s: %v", sc.family, sc.strategy, err)
		}
		want, err := refEncodePlan(p)
		if err != nil {
			t.Fatal(err)
		}
		got, err := encodePlan(p)
		if err != nil || !bytes.Equal(got, want) {
			t.Fatalf("%s/%s exact=%t: encodePlan differs from encoding/json (%v):\n got %s\nwant %s",
				sc.family, sc.strategy, sc.exact, err, got, want)
		}
		key := sc.Key()
		line, payload, err := encodeRecord(key, p)
		if err != nil {
			t.Fatal(err)
		}
		wantLine := append(recordLine(t, key, want), '\n')
		if !bytes.Equal(line, wantLine) || !bytes.Equal(payload, want) {
			t.Fatalf("%s/%s: record line differs from encoding/json:\n got %s\nwant %s", sc.family, sc.strategy, line, wantLine)
		}
		if raceEnabled {
			continue
		}
		if allocs := testing.AllocsPerRun(10, func() { encodeRecord(key, p) }); allocs > 3 {
			t.Errorf("%s/%s: encodeRecord makes %.0f allocations, want at most 3", sc.family, sc.strategy, allocs)
		}
	}
}

// storeLineSeeds returns the encoded payloads of a few small plans, the
// seed corpus of the store fuzzers.
func storeLineSeeds(f *testing.F) [][]byte {
	f.Helper()
	var out [][]byte
	for _, sc := range []Scenario{
		NewScenario(WithFamily("genome"), WithTasks(20), WithProcs(3)),
		NewScenario(WithFamily("montage"), WithTasks(20), WithProcs(3), WithStrategy(CkptAll)),
		NewScenario(WithFamily("ligo"), WithTasks(20), WithProcs(2), WithStrategy(CkptNone)),
		NewScenario(WithFamily("cybershake"), WithTasks(20), WithProcs(3), WithStrategy(ExitOnly), WithExactCostModel()),
	} {
		p, err := NewPlan(context.Background(), sc)
		if err != nil {
			f.Fatal(err)
		}
		payload, err := encodePlan(p)
		if err != nil {
			f.Fatal(err)
		}
		out = append(out, payload)
	}
	return out
}

// storeRecord is the encoding/json reference model of a record line:
// json.Marshal of it is the line frameRecord writes for a plain key and
// a compact payload, and json.Unmarshal into it reads any line as
// encoding/json would. CRC is the IEEE CRC32 of the Plan bytes exactly
// as they appear on disk.
type storeRecord struct {
	Key  string          `json:"key"`
	CRC  uint32          `json:"crc"`
	Plan json.RawMessage `json:"plan"`
}

// refPlainKey is the reference model of plainKey: a non-empty key of
// printable ASCII without a quote, backslash, <, > or &.
func refPlainKey(key string) bool {
	return key != "" && !strings.ContainsFunc(key, func(r rune) bool {
		return r < ' ' || r > '~' || strings.ContainsRune(`"\<>&`, r)
	})
}

// refParseRecord is the reference model of parseRecordLine followed by
// the CRC check: line is a record just when encoding/json reads it into
// a storeRecord with a plain key and writing that record back in the
// one form, its CRC recomputed, yields line again. That pins the field
// order, the compact framing, a canonical CRC that holds and a payload
// that is valid JSON without surrounding whitespace.
func refParseRecord(line []byte) (key string, payload []byte, ok bool) {
	var rec storeRecord
	if json.Unmarshal(line, &rec) != nil || !refPlainKey(rec.Key) {
		return "", nil, false
	}
	canonical := fmt.Appendf(nil, `{"key":"%s","crc":%d,"plan":%s}`, rec.Key, crc32.ChecksumIEEE(rec.Plan), rec.Plan)
	if !bytes.Equal(line, canonical) {
		return "", nil, false
	}
	return rec.Key, rec.Plan, true
}

// FuzzStoreLine fuzzes the record key, any string including invalid
// UTF-8, over the seed payloads. A plain key's framed line must equal
// encoding/json's, and a store reopened over it must return the payload
// under the key. Put must refuse any other key and write nothing.
func FuzzStoreLine(f *testing.F) {
	payloads := storeLineSeeds(f)
	for _, key := range []string{
		"2c35cc7947f705482dd1afccc1313111c6739e0580109020a8a6ad00153142f6",
		"", "k", "plain key/1.0~", `q"uote`, `back\slash`, "<", ">", "&", "tab\t", "\x00\x1f\x7f", "\u2028\u2029", "\xff\xfe", "é\xc3", "kéy",
	} {
		f.Add(key, uint8(0))
	}
	f.Fuzz(func(t *testing.T, key string, which uint8) {
		payload := payloads[int(which)%len(payloads)]
		dir := t.TempDir()
		if !refPlainKey(key) {
			st, err := OpenPlanStore(dir)
			if err != nil {
				t.Fatal(err)
			}
			defer st.Close()
			if err := st.Put("k", payload); err != nil {
				t.Fatal(err)
			}
			if err := st.Put(key, payload); err == nil {
				t.Fatalf("Put accepted the key %q, which is not plain", key)
			}
			if n := st.Records(); n != 1 {
				t.Fatalf("a refused Put moved Records() to %d", n)
			}
			if st.Bytes() != int64(len(recordLine(t, "k", payload))+1) {
				t.Fatalf("a refused Put wrote bytes: the store holds %d", st.Bytes())
			}
			return
		}
		head := recordHeadroom(key)
		line, got := frameRecord(append(make([]byte, head), payload...), head, key)
		want := append(recordLine(t, key, payload), '\n')
		if !bytes.Equal(line, want) || !bytes.Equal(got, payload) {
			t.Fatalf("key %q: framed line differs from encoding/json:\n got %s\nwant %s", key, line, want)
		}
		if err := os.WriteFile(filepath.Join(dir, "plans-000001.seg"), line, 0o644); err != nil {
			t.Fatal(err)
		}
		st, err := OpenPlanStore(dir)
		if err != nil {
			t.Fatal(err)
		}
		defer st.Close()
		if got, ok, err := st.Get(key); err != nil || !ok || !bytes.Equal(got, payload) {
			t.Fatalf("key %q: reopened Get = (%d bytes, %v, %v), want the payload", key, len(got), ok, err)
		}
	})
}

// refDecodePlan is the reference model of decodeStoredPlan: the record
// payload as encoding/json reads it into the storedPlan struct.
func refDecodePlan(payload []byte) (storedPlan, error) {
	var sp storedPlan
	err := json.Unmarshal(payload, &sp)
	return sp, err
}

// encodeTestPayloads returns the record payload of every
// encodeTestScenarios plan.
func encodeTestPayloads(tb testing.TB) [][]byte {
	tb.Helper()
	var out [][]byte
	for _, sc := range encodeTestScenarios(tb) {
		p, err := NewPlan(context.Background(), sc)
		if err != nil {
			tb.Fatalf("%s/%s: %v", sc.family, sc.strategy, err)
		}
		payload, err := encodePlan(p)
		if err != nil {
			tb.Fatal(err)
		}
		out = append(out, payload)
	}
	return out
}

// TestDecodeStoredPlanAllocs pins the typed decoder's allocations on
// every shape appendPlan writes: each list once — the superchains, each
// chain's tasks, the checkpoints and the segments — plus json.Unmarshal
// of the scenario object.
func TestDecodeStoredPlanAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector's instrumentation allocates")
	}
	for _, payload := range encodeTestPayloads(t) {
		sp, err := decodeStoredPlan(payload)
		if err != nil {
			t.Fatalf("canonical payload refused: %v\n%s", err, payload)
		}
		limit := float64(len(sp.Chains) + decodeAllocSlack)
		if allocs := testing.AllocsPerRun(10, func() { decodeStoredPlan(payload) }); allocs > limit {
			t.Errorf("%s/%s: decodeStoredPlan makes %.0f allocations, want at most %.0f",
				sp.Scenario.Family, sp.Scenario.Strategy, allocs, limit)
		}
	}
}

// decodeAllocSlack is decodeStoredPlan's allocation budget beyond one
// per superchain: the chain list, the checkpoints and the segments, and
// json.Unmarshal of the scenario object, which makes 7 for a generated
// workflow and 11 for an injected document (its source, format and
// graph).
const decodeAllocSlack = 14

// FuzzStoredPlanDecode differentially fuzzes the typed decoder against
// encoding/json: any payload decodeStoredPlan accepts, json.Unmarshal
// must accept too, into a reflect.DeepEqual storedPlan. The seeds —
// storeLineSeeds and every encodeTestScenarios payload, escaped
// document labels, the exact cost model and CkptNone's null
// checkpoints among them — are canonical, and each must be accepted.
func FuzzStoredPlanDecode(f *testing.F) {
	for _, payload := range append(storeLineSeeds(f), encodeTestPayloads(f)...) {
		if _, err := decodeStoredPlan(payload); err != nil {
			f.Fatalf("canonical payload refused: %v\n%s", err, payload)
		}
		f.Add(payload)
	}
	f.Fuzz(func(t *testing.T, payload []byte) {
		got, err := decodeStoredPlan(payload)
		if err != nil {
			return
		}
		want, err := refDecodePlan(payload)
		if err != nil {
			t.Fatalf("decodeStoredPlan accepts a payload encoding/json refuses (%v):\n%s", err, payload)
		}
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("decodeStoredPlan differs from encoding/json:\n got %+v\nwant %+v\n%s", got, want, payload)
		}
	})
}
