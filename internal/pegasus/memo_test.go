package pegasus

import (
	"sync"
	"testing"

	"repro/internal/mspg"
)

func TestMemoMatchesGenerate(t *testing.T) {
	opts := Options{Tasks: 60, Seed: 17}
	fresh, err := Generate("montage", opts)
	if err != nil {
		t.Fatal(err)
	}
	var memo Memo
	// The first call runs the generator, the second clones its output;
	// a nil Memo generates afresh. All three must be the generator's.
	for i, m := range []*Memo{&memo, &memo, nil} {
		w, err := m.Generate("montage", opts)
		if err != nil {
			t.Fatal(err)
		}
		if w.G.String() != fresh.G.String() {
			t.Fatalf("call %d: memoized %s != fresh %s", i, w.G, fresh.G)
		}
		if err := w.Validate(); err != nil {
			t.Fatalf("call %d: %v", i, err)
		}
	}
}

func TestMemoIsolation(t *testing.T) {
	opts := Options{Tasks: 50, Seed: 23}
	var memo Memo
	a, err := memo.Generate("genome", opts)
	if err != nil {
		t.Fatal(err)
	}
	before := a.G.TotalFileBytes()
	a.G.ScaleFileSizes(1000) // simulate one grid cell's CCR targeting
	b, err := memo.Generate("genome", opts)
	if err != nil {
		t.Fatal(err)
	}
	if got := b.G.TotalFileBytes(); got != before {
		t.Fatalf("memo leaked a mutation: %g bytes, want %g", got, before)
	}
	if a == b || a.G == b.G {
		t.Fatal("two calls shared one workflow")
	}
}

func TestMemoUnknownFamily(t *testing.T) {
	var memo Memo
	for i := 0; i < 2; i++ {
		if _, err := memo.Generate("nope", Options{}); err == nil {
			t.Fatalf("call %d: unknown family must fail", i)
		}
	}
}

func TestMemoConcurrent(t *testing.T) {
	var memo Memo
	var wg sync.WaitGroup
	errs := make([]error, 8)
	ws := make([]*mspg.Workflow, 8)
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			ws[i], errs[i] = memo.Generate("ligo", Options{Tasks: 50, Seed: 29})
		}(i)
	}
	wg.Wait()
	if errs[0] != nil {
		t.Fatal(errs[0])
	}
	for i := 1; i < 8; i++ {
		if errs[i] != nil {
			t.Fatal(errs[i])
		}
		if got, want := ws[i].G.TotalWeight(), ws[0].G.TotalWeight(); got != want {
			t.Fatalf("divergent concurrent clones: %g vs %g", got, want)
		}
		for j := 0; j < i; j++ {
			if ws[i].G == ws[j].G {
				t.Fatalf("calls %d and %d share one graph", i, j)
			}
		}
	}
	if n := len(memo.entries); n != 1 {
		t.Fatalf("%d memo entries for one key, want 1", n)
	}
}
