package main

import (
	"testing"
)

func TestSelfTimeSubtractsUnionOfChildren(t *testing.T) {
	spans := []span{
		{Name: "parent", ID: 1, Start: 0, End: 100},
		// Overlapping children count once; the last one is clipped to
		// the parent's end.
		{Name: "a", ID: 2, Parent: 1, Start: 10, End: 30},
		{Name: "b", ID: 3, Parent: 1, Start: 20, End: 50},
		{Name: "c", ID: 4, Parent: 1, Start: 70, End: 80},
		{Name: "d", ID: 5, Parent: 1, Start: 90, End: 120},
		{Name: "grandchild", ID: 6, Parent: 3, Start: 25, End: 35},
		{Name: "other-root", ID: 7, Start: 200, End: 260},
	}
	got := selfTimes(spans)
	want := []int64{100 - (40 + 10 + 10), 20, 30 - 10, 10, 30, 10, 60}
	for i := range want {
		if got[i] != want[i] {
			t.Errorf("self time of %s = %d, want %d", spans[i].Name, got[i], want[i])
		}
	}
}

func TestCoveredHandlesDisjointAndNested(t *testing.T) {
	if c := covered(0, 10, nil); c != 0 {
		t.Errorf("no children cover %d", c)
	}
	if c := covered(0, 10, [][2]int64{{2, 8}, {3, 4}, {-5, 1}}); c != 7 {
		t.Errorf("covered = %d, want 7", c)
	}
}

func TestTracerRecordsTreeAndSummarizes(t *testing.T) {
	tr := newTracer()
	root := tr.begin("request", 0, "r1")
	a := tr.begin("http.decode", root, "r1")
	buf := make([][]byte, 0, 4)
	for i := 0; i < 3; i++ {
		buf = append(buf, make([]byte, 1<<10))
	}
	tr.end(a)
	tr.end(root)
	if len(buf) != 3 || len(tr.spans) != 2 || tr.spans[1].Parent != root || tr.spans[1].Req != "r1" {
		t.Fatalf("spans = %+v", tr.spans)
	}
	for _, s := range tr.spans {
		if s.End < s.Start {
			t.Fatalf("span %s ends before it starts", s.Name)
		}
	}
	sum := summarize(tr.spans)
	if sum["http.decode"].calls != 1 || sum["http.decode"].allocs < 3 {
		t.Errorf("decode summary = %+v, want 1 call with at least 3 allocations", sum["http.decode"])
	}

	var none *tracer
	if id := none.begin("x", 0, ""); id != 0 {
		t.Errorf("nil tracer returned span %d", id)
	}
	none.end(0)
}
