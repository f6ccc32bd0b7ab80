package platform

import (
	"math"
	"testing"

	"repro/internal/wfdag"
)

func sampleGraph() *wfdag.Graph {
	g := wfdag.New()
	a := g.AddTask("a", "k", 10)
	b := g.AddTask("b", "k", 30)
	g.Connect(a, b, "f", 200)
	return g
}

func TestValidate(t *testing.T) {
	if err := New(4, 1e-5, 1e8).Validate(); err != nil {
		t.Fatal(err)
	}
	if err := New(0, 1e-5, 1e8).Validate(); err == nil {
		t.Fatal("zero processors must fail")
	}
	if err := New(1, -1, 1e8).Validate(); err == nil {
		t.Fatal("negative lambda must fail")
	}
	if err := New(1, 0, 0).Validate(); err == nil {
		t.Fatal("zero bandwidth must fail")
	}
}

func TestIOCost(t *testing.T) {
	p := New(1, 0, 100)
	if got := p.IOCost(250); got != 2.5 {
		t.Fatalf("IOCost = %g", got)
	}
	g := sampleGraph()
	if got := p.FileCost(g, 0); got != 2 {
		t.Fatalf("FileCost = %g", got)
	}
}

func TestCCR(t *testing.T) {
	// 200 bytes at 10 B/s = 20 s of I/O over 40 s of compute: CCR 0.5.
	p := New(1, 0, 10)
	g := sampleGraph()
	if got := p.CCR(g); got != 0.5 {
		t.Fatalf("CCR = %g", got)
	}
	if got := p.CCR(wfdag.New()); got != 0 {
		t.Fatalf("empty CCR = %g", got)
	}
}

func TestScaleToCCR(t *testing.T) {
	p := New(1, 0, 10)
	g := sampleGraph()
	factor := p.ScaleToCCR(g, 0.05)
	if math.Abs(p.CCR(g)-0.05) > 1e-12 {
		t.Fatalf("CCR after scaling = %g", p.CCR(g))
	}
	if math.Abs(factor-0.1) > 1e-12 {
		t.Fatalf("factor = %g", factor)
	}
	// No bytes: no-op.
	empty := wfdag.New()
	empty.AddTask("a", "k", 1)
	if f := p.ScaleToCCR(empty, 0.5); f != 1 {
		t.Fatalf("no-byte factor = %g", f)
	}
}

func TestWithLambdaForPFail(t *testing.T) {
	g := sampleGraph() // mean weight 20
	p := New(1, 0, 1).WithLambdaForPFail(0.01, g)
	if got := 1 - math.Exp(-p.Lambda*20); math.Abs(got-0.01) > 1e-12 {
		t.Fatalf("pfail round trip = %g", got)
	}
}
