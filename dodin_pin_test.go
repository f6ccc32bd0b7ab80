package hanccr

import (
	"context"
	"encoding/binary"
	"fmt"
	"hash/fnv"
	"math"
	"testing"

	"repro/internal/pegasus"
	"repro/internal/probdag"
)

// dodinFingerprints are FNV-64a hashes of the little-endian
// math.Float64bits of every (value, probability) atom of
// DodinDistribution, at the default DodinOptions, on the segment DAG of
// each family's default-scenario plan at 300 tasks. They were computed
// once, from a checkout of the commit before the incremental parallel
// pass and the two-pointer max kernel replaced the full-sort reducer
// and the pair-grid max, and must never be regenerated: they lock the
// current kernel and reducer to those historical bits, which is
// stronger than the accuracy golden's 1e-9 tolerance.
var dodinFingerprints = map[string]uint64{
	"cybershake/300/seed1": 0xd4ecc0d7edb3b986,
	"cybershake/300/seed2": 0x31c762e0d01729b9,
	"cybershake/300/seed3": 0xd56fad9a800156e5,
	"genome/300/seed1":     0xcf2742f740160065,
	"genome/300/seed2":     0x631fef5fae1527e4,
	"genome/300/seed3":     0x8da121ac21d10268,
	"ligo/300/seed1":       0x295425069ae34d55,
	"ligo/300/seed2":       0x933a1e6d8ea01368,
	"ligo/300/seed3":       0x156a3c8c0e3d8af2,
	"montage/300/seed1":    0x71e94e0071a97cd4,
	"montage/300/seed2":    0x274487cbb9e4681b,
	"montage/300/seed3":    0x8fa242f982f4290c,
}

// dodinFingerprint hashes every atom of the plan's Dodin distribution.
func dodinFingerprint(t *testing.T, family string, seed int64) uint64 {
	t.Helper()
	p, err := NewPlan(context.Background(), NewScenario(WithFamily(family), WithTasks(300), WithSeed(seed)))
	if err != nil {
		t.Fatal(err)
	}
	g, err := p.ensureDAG()
	if err != nil {
		t.Fatal(err)
	}
	ev, err := probdag.NewEvaluator(g)
	if err != nil {
		t.Fatal(err)
	}
	d, err := ev.DodinDistribution(probdag.DodinOptions{})
	if err != nil {
		t.Fatal(err)
	}
	h := fnv.New64a()
	var buf [16]byte
	for i, v := range d.Support() {
		binary.LittleEndian.PutUint64(buf[:8], math.Float64bits(v))
		binary.LittleEndian.PutUint64(buf[8:], math.Float64bits(d.Probs()[i]))
		h.Write(buf[:])
	}
	return h.Sum64()
}

// TestDodinHistoricalBits pins Dodin's output distribution bit for bit
// on every family × seeds 1–3 at 300 tasks.
func TestDodinHistoricalBits(t *testing.T) {
	for _, family := range pegasus.Families() {
		for seed := int64(1); seed <= 3; seed++ {
			key := fmt.Sprintf("%s/300/seed%d", family, seed)
			got := dodinFingerprint(t, family, seed)
			if want, ok := dodinFingerprints[key]; !ok || got != want {
				t.Errorf("%s: Dodin fingerprint %#016x, historical %#016x", key, got, want)
			}
		}
	}
}
