package main

import (
	"bytes"
	"testing"

	hanccr "repro"
)

func TestRequestListDeterministicPerSeed(t *testing.T) {
	for _, name := range workloadNames() {
		a, err := newWorkload(name, 7, 3)
		if err != nil {
			t.Fatal(err)
		}
		b, err := newWorkload(name, 7, 3)
		if err != nil {
			t.Fatal(err)
		}
		c, err := newWorkload(name, 8, 3)
		if err != nil {
			t.Fatal(err)
		}
		lists := func(w *workload) [][]request { return [][]request{w.prepare, w.prime, w.timed} }
		differs := false
		for k, la := range lists(a) {
			lb, lc := lists(b)[k], lists(c)[k]
			if len(la) != len(lb) {
				t.Fatalf("%s: list %d has %d then %d requests for one seed", name, k, len(la), len(lb))
			}
			for i := range la {
				if !bytes.Equal(la[i].body(), lb[i].body()) || la[i].class != lb[i].class || la[i].path() != lb[i].path() {
					t.Fatalf("%s: list %d request %d differs between two builds of seed 7", name, k, i)
				}
				if i < len(lc) && !bytes.Equal(la[i].body(), lc[i].body()) {
					differs = true
				}
			}
		}
		if !differs {
			t.Errorf("%s: seeds 7 and 8 gave the same requests", name)
		}
	}
}

func TestClassSharesAreExact(t *testing.T) {
	want := map[string][]float64{
		"hot-estimate": {5.0 / 8, 3.0 / 8},
		"cold-plan":    {1.0 / 3, 1.0 / 3, 1.0 / 3},
		"near-dup":     {1.0 / 3, 1.0 / 3, 1.0 / 3},
	}
	for _, name := range workloadNames() {
		for _, seconds := range []int{1, 3, 25} {
			w, err := newWorkload(name, 3, seconds)
			if err != nil {
				t.Fatal(err)
			}
			n := len(w.timed)
			if n < minTimed || beyond(n, 99) < minBeyond {
				t.Errorf("%s/%ds: %d requests leave %d beyond p99", name, seconds, n, beyond(n, 99))
			}
			per := n / w.rounds
			if per*w.rounds != n {
				t.Fatalf("%s/%ds: %d requests do not split into %d rounds", name, seconds, n, w.rounds)
			}
			counts := make([]int, len(w.classes))
			for _, r := range w.timed {
				counts[r.class]++
			}
			for c, share := range want[name] {
				if float64(counts[c]) != share*float64(n) {
					t.Errorf("%s/%ds: class %s has %d of %d requests, want share %.4f", name, seconds, w.classes[c], counts[c], n, share)
				}
			}
		}
	}
}

func TestHotSlotsCoverEveryPlan(t *testing.T) {
	w, err := newWorkload("hot-estimate", 5, 1)
	if err != nil {
		t.Fatal(err)
	}
	seen := make(map[string]map[kind]int)
	for _, r := range w.timed[:8*64] {
		key := r.scenario.Scenario().Key()
		if seen[key] == nil {
			seen[key] = make(map[kind]int)
		}
		seen[key][r.kind]++
	}
	if len(seen) != 64 || len(w.prepare) != 64 || len(w.prime) != 64 {
		t.Fatalf("%d plans asked, %d prepared, %d primed; want 64 each", len(seen), len(w.prepare), len(w.prime))
	}
	for key, kinds := range seen {
		if kinds[kindPlan] != 2 || kinds[kindPathApprox] != 2 || kinds[kindDodin] != 1 || kinds[kindSimulate] != 1 {
			t.Fatalf("plan %.12s meets the slots %v in one 64-cycle period, want every slot once", key, kinds)
		}
	}
}

func TestColdPlanStructuresAreNew(t *testing.T) {
	w, err := newWorkload("cold-plan", 9, 3)
	if err != nil {
		t.Fatal(err)
	}
	seen := make(map[string]bool)
	for i, r := range w.timed {
		k := r.scenario.Scenario().StructureKey()
		if seen[k] {
			t.Fatalf("request %d repeats a structure", i)
		}
		seen[k] = true
	}
}

func TestNearDupNeverRepeatsOrHitsThePrimedPoint(t *testing.T) {
	w, err := newWorkload("near-dup", 11, 5)
	if err != nil {
		t.Fatal(err)
	}
	primed := make(map[string]bool)
	structures := make(map[string]bool)
	for _, r := range w.prime {
		sc := r.scenario.Scenario()
		primed[sc.Key()] = true
		structures[sc.StructureKey()] = true
	}
	if len(structures) != 8 {
		t.Fatalf("%d primed structures, want 8", len(structures))
	}
	seen := make(map[string]bool)
	for i, r := range w.timed {
		sc := r.scenario.Scenario()
		k := sc.Key()
		if primed[k] || seen[k] {
			t.Fatalf("request %d repeats a planned point (primed %t)", i, primed[k])
		}
		if !structures[sc.StructureKey()] {
			t.Fatalf("request %d leaves the primed structures", i)
		}
		if sc.Strategy() != hanccr.CkptSome && sc.Strategy() != hanccr.CkptAll && sc.Strategy() != hanccr.ExitOnly {
			t.Fatalf("request %d has strategy %s", i, sc.Strategy())
		}
		seen[k] = true
	}
}
