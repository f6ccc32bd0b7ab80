package hanccr

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"hash/crc32"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"
)

// encodeTestScenarios covers every shape of scenario a payload holds:
// the four families under each of the four strategies, with and
// without the exact cost model, a plan at the benchmarks' largest size,
// and injected DAX and JSON documents whose labels need JSON and HTML
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
// json.Marshal of it is the line encodeRecord writes for a plain key and
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
		line := encodeRecord(key, payload)
		want := append(recordLine(t, key, payload), '\n')
		if !bytes.Equal(line, want) {
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

// FuzzStoredPlanDecode differentially fuzzes the payload reader against
// encoding/json, without planning anything: a payload readPayload
// accepts, json.Unmarshal reads into the same storedPlan; a v2 one is
// exactly json.Marshal's bytes; and any accepted payload, written back
// as v2, reads back to itself. The seeds are the v2 payloads of
// storeLineSeeds and of every encodeTestScenarios plan (escaped
// document labels and the exact cost model among them), and the v1
// payloads of the upgrade segment (testdata/store-v1); each must be
// accepted.
func FuzzStoredPlanDecode(f *testing.F) {
	seeds := append(storeLineSeeds(f), encodeTestPayloads(f)...)
	for _, rec := range v1Records(f) {
		seeds = append(seeds, rec.payload)
	}
	for _, payload := range seeds {
		if _, err := readPayload(payload); err != nil {
			f.Fatalf("stored payload refused: %v\n%s", err, payload)
		}
		f.Add(payload)
	}
	f.Fuzz(func(t *testing.T, payload []byte) {
		got, err := readPayload(payload)
		if err != nil {
			return
		}
		var want storedPlan
		if err := json.Unmarshal(payload, &want); err != nil || !reflect.DeepEqual(got, want) {
			t.Fatalf("readPayload differs from encoding/json (%v):\n got %+v\nwant %+v\n%s", err, got, want, payload)
		}
		v2 := got
		v2.Version = storeFormatVersion
		enc, err := json.Marshal(v2)
		if err != nil {
			t.Fatal(err)
		}
		if got.Version == storeFormatVersion && !bytes.Equal(enc, payload) {
			t.Fatalf("accepted a v2 payload json.Marshal writes otherwise:\n%s\n%s", payload, enc)
		}
		if back, err := readPayload(enc); err != nil || !reflect.DeepEqual(back, v2) {
			t.Fatalf("payload written back as v2 reads as %+v, %v; want %+v", back, err, v2)
		}
	})
}
