package probdag

import "math/rand"

// math/rand's source (rand.NewSource) is an additive lagged-Fibonacci
// generator: with x_n its n-th raw 64-bit output,
//
//	x_n = x_{n-607} + x_{n-273}  (mod 2^64),
//
// and Int63 returns x_n masked to 63 bits. mcStream reproduces that
// sequence in place over a 607-word register, without the Rand →
// Source interface call per draw.
const (
	mcLen  = 607 // register length of math/rand's source
	mcTap  = 273 // its short lag
	mcMask = 1<<63 - 1
)

// mcStream yields exactly the Int63 sequence of rand.NewSource(seed).
// Its register holds the last 607 outputs by draw order modulo 607:
// reg[:p] are the current cycle's, reg[p:] the previous cycle's, so
// the next output, at reg[p], adds reg[p] (607 back) to the output 273
// back, which is reg[p+334] of the previous cycle while p < 273 and
// reg[p-273] of this one from then on. math/rand stays both the seeder
// and the oracle: seed reads the first cycle from the standard source.
type mcStream struct {
	src rand.Source64
	reg [mcLen]uint64
	p   int
}

// seed positions the stream at the first draw of rand.NewSource(seed),
// reusing the seeding source so a reseed allocates nothing: it reads
// the source's first cycle and replays it.
func (st *mcStream) seed(seed int64) {
	if st.src == nil {
		st.src = rand.NewSource(seed).(rand.Source64)
	} else {
		st.src.Seed(seed)
	}
	for j := range st.reg {
		st.reg[j] = st.src.Uint64()
	}
	st.replay()
}

// replay makes the register's contents, one whole cycle of outputs in
// draw order, the next 607 reads: it steps the register back a cycle,
// x_{n-607} = x_n − x_{n-273}, undoing run's updates last to first.
func (st *mcStream) replay() {
	r := &st.reg
	for j := mcLen - 1; j >= mcTap; j-- {
		r[j] -= r[j-mcTap]
	}
	for j := mcTap - 1; j >= 0; j-- {
		r[j] -= r[j+mcLen-mcTap]
	}
	st.p = 0
}

// run claims the next outputs, at most n, up to the end of the current
// half of the cycle: out[r] becomes the output once out[r] += lag[r]
// has run, in order. Handing back unread outputs is st.p -= their
// count, as long as they were not computed.
func (st *mcStream) run(n int) (out, lag []uint64) {
	if st.p == mcLen {
		st.p = 0
	}
	p, end, d := st.p, mcTap, mcLen-mcTap
	if p >= mcTap {
		end, d = mcLen, -mcTap
	}
	end = min(end, p+n)
	st.p = end
	return st.reg[p:end], st.reg[p+d : end+d]
}

// int63 returns the next Int63.
func (st *mcStream) int63() uint64 {
	out, lag := st.run(1)
	out[0] += lag[0]
	return out[0] & mcMask
}

// float64 returns the next uniform exactly as rand.(*Rand).Float64
// would: the next Int63 over 2^63, drawn again while that rounds to 1.
func (st *mcStream) float64() float64 {
	for {
		if u := float64(st.int63()) / (1 << 63); u != 1 {
			return u
		}
	}
}
