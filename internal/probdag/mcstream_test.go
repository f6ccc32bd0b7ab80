package probdag

import (
	"fmt"
	"math"
	"math/rand"
	"testing"

	"repro/internal/dist"
)

// requireStreamMatches checks the stream seeded with seed against
// rand.New(rand.NewSource(seed)) for n draws of Int63, then for n
// draws of Float64, each on a stream that was seeded before with
// other, so the reseed path (Seed on the kept source) is the one under
// test.
func requireStreamMatches(t *testing.T, seed, other int64, n int) {
	t.Helper()
	var st mcStream
	st.seed(other)
	st.seed(seed)
	want := rand.New(rand.NewSource(seed))
	for i := 0; i < n; i++ {
		if g, w := int64(st.int63()), want.Int63(); g != w {
			t.Fatalf("seed %d draw %d: stream Int63 %d, math/rand %d", seed, i, g, w)
		}
	}
	st.seed(other)
	st.seed(seed)
	want = rand.New(rand.NewSource(seed))
	for i := 0; i < n; i++ {
		if g, w := st.float64(), want.Float64(); math.Float64bits(g) != math.Float64bits(w) {
			t.Fatalf("seed %d draw %d: stream Float64 %v, math/rand %v", seed, i, g, w)
		}
	}
}

// TestMCStreamMatchesMathRand pins the stream to math/rand's source
// over at least five full cycles, on seeds that take every branch of
// the source's seed reduction (mod 2^31−1, a negative remainder
// wrapped, a zero one mapped to 89482311): 0, 1, −1, 2^31−1 and its
// double (both reduce to 0), −2^40 and the largest int64.
func TestMCStreamMatchesMathRand(t *testing.T) {
	for _, seed := range []int64{0, 1, -1, math.MaxInt32, 2 * math.MaxInt32, -1 << 40, math.MaxInt64} {
		requireStreamMatches(t, seed, seed^0x5bd1e995, 5*mcLen+100)
	}
}

// FuzzMCStream checks the stream against math/rand for n draws from
// any seed.
func FuzzMCStream(f *testing.F) {
	f.Add(int64(0), uint16(5*mcLen+1))
	f.Add(int64(math.MaxInt32), uint16(mcLen))
	f.Add(int64(math.MinInt64), uint16(2*mcTap))
	f.Fuzz(func(t *testing.T, seed int64, n uint16) {
		requireStreamMatches(t, seed, ^seed, int(n))
	})
}

// rawThresholdErr checks that x is first's raw threshold: x is the
// least raw value whose uniform is not below first, or mcRedraw when
// there is none below it, so x < threshold agrees with
// float64(x)/2^63 < first for every x below mcRedraw.
func rawThresholdErr(first float64, x uint64) error {
	if x > mcRedraw {
		return fmt.Errorf("threshold of %v is %d, above the clamp %d", first, x, uint64(mcRedraw))
	}
	if below := float64(int64(x)-1) / (1 << 63); !(below < first) {
		return fmt.Errorf("threshold of %v is %d, but the value below it already maps to %v", first, x, below)
	}
	if u := float64(x) / (1 << 63); x < mcRedraw && !(u >= first) {
		return fmt.Errorf("threshold of %v is %d, which maps to %v below it", first, x, u)
	}
	return nil
}

// TestRawThreshold checks the integer form of the first-value test on
// the bounds of [0, 1] and the floats next to 1, on the first
// thresholds of random laws, and in a window around each threshold
// raw value by raw value.
func TestRawThreshold(t *testing.T) {
	for _, first := range []float64{
		0, math.SmallestNonzeroFloat64, 1, math.Inf(1),
		math.Nextafter(1, 0), math.Nextafter(math.Nextafter(1, 0), 0), math.Nextafter(1, 2),
	} {
		if err := rawThresholdErr(first, rawThreshold(first)); err != nil {
			t.Fatal(err)
		}
	}
	rng := rand.New(rand.NewSource(19))
	for i := 0; i < 2000; i++ {
		d := randomLaw(rng)
		first := math.Inf(1)
		if d.Len() > 1 {
			first = d.Probs()[0]
		}
		x := rawThreshold(first)
		if err := rawThresholdErr(first, x); err != nil {
			t.Fatal(err)
		}
		for y := x - min(x, 2048); y < min(x+2048, mcRedraw); y++ {
			if (y < x) != (float64(y)/(1<<63) < first) {
				t.Fatalf("first %v, threshold %d: raw %d disagrees with its uniform %v", first, x, y, float64(y)/(1<<63))
			}
		}
	}
	if x := rawThreshold(math.Nextafter(1, 0)); x != 1<<63-1535 {
		t.Fatalf("threshold of the largest float below 1 is %d, want 2^63-1535", x)
	}
}

// TestMCFillRedraw writes raw values that Float64 draws again (those
// in [2^63−512, 2^63), with and without the top bit that Int63 masks
// off) into the stream by hand: on the first node, a middle node, the
// last node, two in a row, and on the last value of a cycle, so that
// the extra draw starts the next cycle. fill must consume one extra
// draw per such value and yield the reference's samples for the same
// sequence.
func TestMCFillRedraw(t *testing.T) {
	// A point mass, 2-state laws and a 3-state law, on a chain with a
	// side branch so a deviation reaches the makespan.
	dists := []*dist.Discrete{
		dist.TwoState(3, 9, 0.4),
		dist.Point(2),
		dist.New([]float64{1, 4, 6}, []float64{0.5, 0.3, 0.2}),
		dist.TwoState(5, 7, 0.25),
		dist.TwoState(2, 11, 0.5),
	}
	g, err := FromEdges(dists, [][2]int{{0, 1}, {1, 2}, {0, 3}, {3, 4}})
	if err != nil {
		t.Fatal(err)
	}
	n := g.Len()
	k := g.mustKernel()
	s := k.newScratch()
	redraws := []uint64{mcRedraw, mcMask, mcRedraw | 1<<63, math.MaxUint64}
	for _, c := range []struct {
		name  string
		start int   // draws already read in the cycle
		at    []int // draw offsets from start that hold redraw values
	}{
		{"first node", 0, []int{0}},
		{"middle node", 0, []int{2}},
		{"point mass", 0, []int{1}},
		{"last node", 0, []int{n - 1}},
		{"two in a row", 0, []int{3, 4}},
		{"second trial", 0, []int{n + 2}},
		{"end of cycle", mcLen - 3, []int{2}},
		{"across the half cycle", mcTap - 2, []int{1, 2}},
	} {
		for ri, raw := range redraws {
			s.rng.seed(int64(ri))
			for j := 0; j < mcLen; j++ {
				s.rng.int63()
			}
			for _, a := range c.at {
				s.rng.reg[(c.start+a)%mcLen] = raw
			}
			s.rng.replay()
			for j := 0; j < c.start; j++ {
				s.rng.int63()
			}
			ref := s.rng
			const trials = 3
			got, want := make([]float64, trials), make([]float64, trials)
			k.fill(got, s)
			refMCFill(g, want, rand.New(streamSource{&ref}))
			for i := range want {
				if math.Float64bits(got[i]) != math.Float64bits(want[i]) {
					t.Fatalf("%s, raw %#x: trial %d is %v, reference %v", c.name, raw, i, got[i], want[i])
				}
			}
			if drawn := (s.rng.p - c.start + mcLen) % mcLen; drawn != trials*n+len(c.at) || s.rng.p != ref.p {
				t.Fatalf("%s, raw %#x: fill drew %d values, want %d (reference stopped at %d, fill at %d)",
					c.name, raw, drawn, trials*n+len(c.at), ref.p, s.rng.p)
			}
		}
	}
}
