package pegasus

import (
	"encoding/binary"
	"fmt"
	"hash"
	"hash/fnv"
	"math"
	"testing"

	"repro/internal/mspg"
	"repro/internal/wfdag"
)

// generationFingerprints are FNV-64a hashes of every generated
// workflow's name, tasks (name, kind, weight bits), files (name, size
// bits, producer), every Succ/Pred/InputFiles/Consumers list in order
// and the tree's String(). They were computed once, from a checkout of
// the commit before task and file names stopped going through
// fmt.Sprintf, and must never be regenerated: they lock the names and
// the RNG draw order that the scenario keys and genwf's JSON/DAX output
// depend on.
var generationFingerprints = map[string]uint64{
	"cybershake/50/seed1":    0xff75229699a4e3f7,
	"cybershake/50/seed2":    0xb2386225ea7c75c5,
	"cybershake/300/seed1":   0xc2bc0d3c226a625c,
	"cybershake/300/seed2":   0x0e06ec93878dc0ac,
	"cybershake/1000/seed1":  0x25fd77df7b4335ab,
	"cybershake/1000/seed2":  0x3f378c38ab854cd3,
	"genome/50/seed1":        0x87e02dbb4d1c02d0,
	"genome/50/seed2":        0x31821c11efb65850,
	"genome/300/seed1":       0xf1de627fcd9cbc02,
	"genome/300/seed2":       0xf771b7f23ef472d1,
	"genome/1000/seed1":      0xeacaff6658d64f84,
	"genome/1000/seed2":      0x104b7ec6222b8e41,
	"ligo/50/seed1":          0xad9a2120690f2efb,
	"ligo/50/seed1/ragged":   0x264f520407e787f6,
	"ligo/50/seed2":          0xf7898a8249984d8e,
	"ligo/50/seed2/ragged":   0xe0ec0ab9e942e19e,
	"ligo/300/seed1":         0xfe0dd065fb97c00b,
	"ligo/300/seed1/ragged":  0x971138cdfc7e4d70,
	"ligo/300/seed2":         0xf0fc815f788f2349,
	"ligo/300/seed2/ragged":  0xaa037e07268f3696,
	"ligo/1000/seed1":        0x16b200e76e0b4840,
	"ligo/1000/seed1/ragged": 0x88c3ba8627d9bd34,
	"ligo/1000/seed2":        0x442846d29b604ea4,
	"ligo/1000/seed2/ragged": 0x7a088e861d6f5e76,
	"montage/50/seed1":       0xfb82c74be3af1333,
	"montage/50/seed2":       0xa3a03fadf44c81fc,
	"montage/300/seed1":      0x779fed38fa6b6946,
	"montage/300/seed2":      0x149b9b916c9bc368,
	"montage/1000/seed1":     0x3899db0db06ff0c7,
	"montage/1000/seed2":     0x9df67b95837ce77f,
}

type pinHash struct {
	h   hash.Hash64
	buf [8]byte
}

func (p *pinHash) int(v int64) {
	binary.LittleEndian.PutUint64(p.buf[:], uint64(v))
	p.h.Write(p.buf[:])
}

func (p *pinHash) float(v float64) { p.int(int64(math.Float64bits(v))) }

func (p *pinHash) str(s string) {
	p.int(int64(len(s)))
	p.h.Write([]byte(s))
}

func (p *pinHash) edges(es []wfdag.Edge) {
	p.int(int64(len(es)))
	for _, e := range es {
		p.int(int64(e.From))
		p.int(int64(e.To))
		p.int(int64(e.File))
	}
}

// generationFingerprint hashes everything a generator decides about w.
func generationFingerprint(w *mspg.Workflow) uint64 {
	p := &pinHash{h: fnv.New64a()}
	g := w.G
	p.str(w.Name)
	p.int(int64(g.NumTasks()))
	for id := range g.NumTasks() {
		t := g.Task(wfdag.TaskID(id))
		p.str(t.Name)
		p.str(t.Kind)
		p.float(t.Weight)
	}
	p.int(int64(g.NumFiles()))
	for i := range g.NumFiles() {
		f := g.File(wfdag.FileID(i))
		p.str(f.Name)
		p.float(f.Size)
		p.int(int64(f.Producer))
	}
	for i := 0; i < g.NumTasks(); i++ {
		t := wfdag.TaskID(i)
		p.edges(g.Succ(t))
		p.edges(g.Pred(t))
		in := g.InputFiles(t)
		p.int(int64(len(in)))
		for _, f := range in {
			p.int(int64(f))
		}
	}
	for i := 0; i < g.NumFiles(); i++ {
		cs := g.Consumers(wfdag.FileID(i))
		p.int(int64(len(cs)))
		for _, c := range cs {
			p.int(int64(c))
		}
	}
	p.str(w.Root.String())
	return p.h.Sum64()
}

// pinCase is one pinned generator call.
type pinCase struct {
	family string
	opts   Options
}

func (c pinCase) key() string {
	k := fmt.Sprintf("%s/%d/seed%d", c.family, c.opts.Tasks, c.opts.Seed)
	if c.opts.Ragged {
		k += "/ragged"
	}
	return k
}

// pinCases lists every family × {50, 300, 1000} × seeds {1, 2}, plus
// ragged LIGO at the same sizes and seeds.
func pinCases() []pinCase {
	var out []pinCase
	for _, fam := range Families() {
		for _, n := range PaperSizes() {
			for seed := int64(1); seed <= 2; seed++ {
				out = append(out, pinCase{fam, Options{Tasks: n, Seed: seed}})
				if fam == "ligo" {
					out = append(out, pinCase{fam, Options{Tasks: n, Seed: seed, Ragged: true}})
				}
			}
		}
	}
	return out
}

// TestGenerationHistoricalBits pins every generator's output bit for
// bit.
func TestGenerationHistoricalBits(t *testing.T) {
	for _, c := range pinCases() {
		w, err := Generate(c.family, c.opts)
		if err != nil {
			t.Fatalf("%s: %v", c.key(), err)
		}
		got := generationFingerprint(w)
		if want, ok := generationFingerprints[c.key()]; !ok || got != want {
			t.Errorf("%s: generation fingerprint %#016x, historical %#016x", c.key(), got, want)
		}
	}
}
