package dist

import (
	"math"
	"math/rand"
	"testing"
)

func close(a, b, tol float64) bool { return math.Abs(a-b) <= tol }

// CDF returns P(X <= x).
func (d *Discrete) CDF(x float64) float64 {
	c := 0.0
	for i, v := range d.vals {
		if v > x {
			break
		}
		c += d.probs[i]
	}
	return c
}

// Sample maps a uniform variate u in [0, 1) onto the support by inverse
// CDF. It performs no allocation.
func (d *Discrete) Sample(u float64) float64 {
	c := 0.0
	for i, p := range d.probs {
		c += p
		if u < c {
			return d.vals[i]
		}
	}
	return d.vals[len(d.vals)-1]
}

func TestPoint(t *testing.T) {
	d := Point(3)
	if d.Len() != 1 || d.Min() != 3 || d.Max() != 3 || d.Mean() != 3 || d.Base() != 3 {
		t.Fatalf("point: %v", d)
	}
	if d.CDF(2.9) != 0 || d.CDF(3) != 1 {
		t.Fatal("point CDF")
	}
	if d.Sample(0) != 3 || d.Sample(0.999) != 3 {
		t.Fatal("point sample")
	}
}

func TestTwoState(t *testing.T) {
	d := TwoState(10, 15, 0.2)
	if d.Len() != 2 {
		t.Fatalf("support: %v", d.Support())
	}
	if got := d.Mean(); !close(got, 0.8*10+0.2*15, 1e-12) {
		t.Fatalf("mean = %g", got)
	}
	if d.Base() != 10 || d.Min() != 10 || d.Max() != 15 {
		t.Fatal("base/min/max")
	}
	// Ties in probability resolve to the smaller value.
	if TwoState(10, 20, 0.5).Base() != 10 {
		t.Fatal("tie base")
	}
	// Majority mass on the high state moves the base there.
	if TwoState(10, 15, 0.7).Base() != 15 {
		t.Fatal("high base")
	}
	// Degenerate parameters collapse to points.
	if TwoState(5, 7, 0).Len() != 1 || TwoState(5, 7, 0).Min() != 5 {
		t.Fatal("p=0 collapse")
	}
	if TwoState(5, 7, 1).Len() != 1 || TwoState(5, 7, 1).Min() != 7 {
		t.Fatal("p=1 collapse")
	}
	if TwoState(5, 5, 0.3).Len() != 1 {
		t.Fatal("lo==hi collapse")
	}
	// Swapped bounds normalize.
	s := TwoState(15, 10, 0.2)
	if s.Min() != 10 || !close(s.Mean(), 0.2*10+0.8*15, 1e-12) {
		t.Fatalf("swapped: %v", s)
	}
}

func TestNewMergesAndNormalizes(t *testing.T) {
	d := New([]float64{2, 1, 2}, []float64{1, 1, 2})
	if d.Len() != 2 || d.Min() != 1 || d.Max() != 2 {
		t.Fatalf("merged: %v %v", d.Support(), d.Probs())
	}
	if !close(d.Probs()[0], 0.25, 1e-12) || !close(d.Probs()[1], 0.75, 1e-12) {
		t.Fatalf("probs: %v", d.Probs())
	}
}

func TestAddConvolution(t *testing.T) {
	var c Combiner
	d := c.Add(TwoState(1, 2, 0.5), TwoState(1, 2, 0.5))
	if d.Len() != 3 {
		t.Fatalf("support: %v", d.Support())
	}
	want := map[float64]float64{2: 0.25, 3: 0.5, 4: 0.25}
	for i, v := range d.Support() {
		if !close(d.Probs()[i], want[v], 1e-12) {
			t.Fatalf("P(%g) = %g", v, d.Probs()[i])
		}
	}
	if !close(d.Mean(), 3, 1e-12) {
		t.Fatalf("mean = %g", d.Mean())
	}
}

func TestMaxWith(t *testing.T) {
	// max of TwoState(2,4,.5) and TwoState(3,5,.5): (2,3)->3, (2,5)->5,
	// (4,3)->4, (4,5)->5, each 1/4.
	var c Combiner
	d := c.MaxWith(TwoState(2, 4, 0.5), TwoState(3, 5, 0.5))
	want := map[float64]float64{3: 0.25, 4: 0.25, 5: 0.5}
	if d.Len() != 3 {
		t.Fatalf("support: %v", d.Support())
	}
	for i, v := range d.Support() {
		if !close(d.Probs()[i], want[v], 1e-12) {
			t.Fatalf("P(%g) = %g", v, d.Probs()[i])
		}
	}
}

func TestQuantizeUpperBias(t *testing.T) {
	vals := make([]float64, 1000)
	probs := make([]float64, 1000)
	rng := rand.New(rand.NewSource(7))
	for i := range vals {
		vals[i] = rng.Float64() * 100
		probs[i] = 1
	}
	d := New(vals, probs)
	q := d.QuantizeNearest(64)
	if q.Len() > 65 {
		t.Fatalf("quantized support %d > cap", q.Len())
	}
	if q.Mean() < d.Mean()-1e-12 {
		t.Fatalf("quantization must not lower the mean: %g < %g", q.Mean(), d.Mean())
	}
	if q.Min() != d.Min() || q.Max() > d.Max()+1e-9 {
		t.Fatalf("range moved: [%g,%g] vs [%g,%g]", q.Min(), q.Max(), d.Min(), d.Max())
	}
	// Under the cap the distribution is returned unchanged.
	small := TwoState(1, 2, 0.5)
	if small.QuantizeNearest(64) != small {
		t.Fatal("no-op quantization must not copy")
	}
}

func TestSampleInverseCDF(t *testing.T) {
	d := TwoState(10, 15, 0.25) // probs: 0.75 on 10, 0.25 on 15
	if d.Sample(0) != 10 || d.Sample(0.7499) != 10 {
		t.Fatal("low samples")
	}
	if d.Sample(0.76) != 15 || d.Sample(0.9999) != 15 {
		t.Fatal("high samples")
	}
}

func TestSampleMatchesLaw(t *testing.T) {
	d := TwoState(10, 15, 0.2)
	rng := rand.New(rand.NewSource(5))
	hits := 0
	const n = 200000
	for i := 0; i < n; i++ {
		if d.Sample(rng.Float64()) == 15 {
			hits++
		}
	}
	if got := float64(hits) / n; math.Abs(got-0.2) > 0.005 {
		t.Fatalf("empirical P(hi) = %g", got)
	}
}

func TestNormalFromDiscrete(t *testing.T) {
	d := TwoState(10, 15, 0.2)
	n := NormalFromDiscrete(d)
	if !close(n.Mu, 11, 1e-12) {
		t.Fatalf("mu = %g", n.Mu)
	}
	wantVar := 0.8*math.Pow(10-11, 2) + 0.2*math.Pow(15-11, 2)
	if !close(n.Sigma*n.Sigma, wantVar, 1e-9) {
		t.Fatalf("var = %g, want %g", n.Sigma*n.Sigma, wantVar)
	}
}

func TestAddN(t *testing.T) {
	a := Normal{Mu: 1, Sigma: 3}
	b := Normal{Mu: 2, Sigma: 4}
	s := a.AddN(b)
	if !close(s.Mu, 3, 1e-12) || !close(s.Sigma, 5, 1e-12) {
		t.Fatalf("sum = %+v", s)
	}
}

func TestMaxClarkStandardNormals(t *testing.T) {
	// E[max(X, Y)] = 1/sqrt(pi) for iid standard normals.
	m := Normal{Mu: 0, Sigma: 1}.MaxClark(Normal{Mu: 0, Sigma: 1})
	if !close(m.Mu, 1/math.Sqrt(math.Pi), 1e-12) {
		t.Fatalf("mu = %g", m.Mu)
	}
	// Var[max] = 1 − 1/pi.
	if !close(m.Sigma*m.Sigma, 1-1/math.Pi, 1e-12) {
		t.Fatalf("var = %g", m.Sigma*m.Sigma)
	}
}

func TestMaxClarkDegenerate(t *testing.T) {
	m := PointNormal(4).MaxClark(PointNormal(7))
	if m.Mu != 7 || m.Sigma != 0 {
		t.Fatalf("deterministic max: %+v", m)
	}
	// A dominant far-away branch wins almost exactly.
	d := Normal{Mu: 100, Sigma: 1}.MaxClark(Normal{Mu: 0, Sigma: 1})
	if !close(d.Mu, 100, 1e-6) {
		t.Fatalf("dominant max mu = %g", d.Mu)
	}
}

func TestExponentialDraw(t *testing.T) {
	e := Exponential{Lambda: 0.5}
	rng := rand.New(rand.NewSource(3))
	sum := 0.0
	const n = 100000
	for i := 0; i < n; i++ {
		sum += e.Draw(rng)
	}
	if got := sum / n; math.Abs(got-2)/2 > 0.02 {
		t.Fatalf("mean draw = %g, want 2", got)
	}
	if !math.IsInf((Exponential{}).Draw(rng), 1) {
		t.Fatal("rate 0 must never fail")
	}
}

func TestLambdaForPFail(t *testing.T) {
	lam := LambdaForPFail(0.01, 50)
	if got := 1 - math.Exp(-lam*50); !close(got, 0.01, 1e-12) {
		t.Fatalf("roundtrip pfail = %g", got)
	}
	if LambdaForPFail(0, 50) != 0 || LambdaForPFail(0.5, 0) != 0 {
		t.Fatal("degenerate inputs")
	}
}

func TestSummarize(t *testing.T) {
	s := Summarize([]float64{1, 2, 3, 4})
	if s.N != 4 || !close(s.Mean, 2.5, 1e-12) || s.Min != 1 || s.Max != 4 {
		t.Fatalf("summary = %+v", s)
	}
	wantSD := math.Sqrt((2.25 + 0.25 + 0.25 + 2.25) / 3)
	if !close(s.StdDev, wantSD, 1e-12) {
		t.Fatalf("sd = %g, want %g", s.StdDev, wantSD)
	}
	if !close(s.CI95, 1.96*wantSD/2, 1e-12) {
		t.Fatalf("ci = %g", s.CI95)
	}
	if z := Summarize(nil); z != (Summary{}) {
		t.Fatalf("empty = %+v", z)
	}
	one := Summarize([]float64{5})
	if one.Mean != 5 || one.StdDev != 0 || one.CI95 != 0 {
		t.Fatalf("single = %+v", one)
	}
}

func TestRelErr(t *testing.T) {
	if !close(RelErr(110, 100), 0.1, 1e-12) || !close(RelErr(90, 100), 0.1, 1e-12) {
		t.Fatal("relerr")
	}
	if RelErr(0, 0) != 0 || !math.IsInf(RelErr(1, 0), 1) {
		t.Fatal("zero truth")
	}
}

func TestFirstOrder(t *testing.T) {
	if got := FirstOrderExpected(10, 0.01); !close(got, 10*(1+0.05), 1e-12) {
		t.Fatalf("expected = %g", got)
	}
	d := TwoState(FirstOrderLaw(10, 0.01))
	if !close(d.Mean(), FirstOrderExpected(10, 0.01), 1e-12) {
		t.Fatalf("segment mean = %g", d.Mean())
	}
	if d.Min() != 10 || d.Max() != 15 {
		t.Fatalf("segment support: %v", d.Support())
	}
	if TwoState(FirstOrderLaw(10, 0)).Len() != 1 {
		t.Fatal("λ=0 must be deterministic")
	}
}

func TestExactRestart(t *testing.T) {
	want := (math.E - 1) / 0.01
	if got := ExactRestartExpected(100, 0.01); !close(got, want, 1e-9) {
		t.Fatalf("exact = %g, want %g", got, want)
	}
	if ExactRestartExpected(100, 0) != 100 || ExactRestartExpected(0, 0.5) != 0 {
		t.Fatal("degenerate")
	}
	d := TwoState(ExactRestartLaw(50, 0.8/50))
	if !close(d.Mean(), ExactRestartExpected(50, 0.8/50), 1e-9*d.Mean()) {
		t.Fatalf("segment mean = %g", d.Mean())
	}
	if d.Min() != 50 {
		t.Fatalf("base = %g", d.Min())
	}
	if p0 := d.CDF(50); !close(p0, math.Exp(-0.8), 1e-12) {
		t.Fatalf("no-failure mass = %g", p0)
	}
	// The exact law dominates the first-order one once λS is sizable.
	if ExactRestartExpected(100, 0.01) < FirstOrderExpected(100, 0.01) {
		t.Fatal("exact below first order at λS=1")
	}
}
