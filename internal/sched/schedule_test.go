package sched

import (
	"fmt"
	"math/rand"
	"reflect"
	"sync"
	"testing"

	"repro/internal/mspg"
	"repro/internal/pegasus"
	"repro/internal/platform"
	"repro/internal/wfdag"
)

// forkJoin builds (T0 ; (T1 || T2 || T3 || T4) ; T5) with unit weights
// and files.
func forkJoin(t *testing.T, width int, weight float64) *mspg.Workflow {
	t.Helper()
	g := wfdag.New()
	src := g.AddTask("src", "k", weight)
	var mids []wfdag.TaskID
	var midNodes []*mspg.Node
	for i := 0; i < width; i++ {
		m := g.AddTask("mid", "k", weight)
		g.Connect(src, m, "f", 10)
		mids = append(mids, m)
		midNodes = append(midNodes, mspg.NewAtomic(m))
	}
	sink := g.AddTask("sink", "k", weight)
	for _, m := range mids {
		g.Connect(m, sink, "f", 10)
	}
	root := mspg.NewSerial(mspg.NewAtomic(src), mspg.NewParallel(midNodes...), mspg.NewAtomic(sink))
	w := &mspg.Workflow{Name: "forkjoin", G: g, Root: root}
	if err := w.Validate(); err != nil {
		t.Fatal(err)
	}
	return w
}

func pf(procs int) platform.Platform { return platform.New(procs, 1e-6, 1e6) }

func TestAllocateSingleProcessorOneSuperchain(t *testing.T) {
	w := forkJoin(t, 4, 10)
	s, err := Allocate(w, pf(1), Options{})
	if err != nil {
		t.Fatal(err)
	}
	if len(s.Chains) != 1 {
		t.Fatalf("one processor must give one superchain, got %d", len(s.Chains))
	}
	if got := len(s.Chains[0].Tasks); got != 6 {
		t.Fatalf("superchain has %d tasks", got)
	}
}

func TestAllocateForkJoinSpreads(t *testing.T) {
	w := forkJoin(t, 4, 10)
	s, err := Allocate(w, pf(4), Options{})
	if err != nil {
		t.Fatal(err)
	}
	// src on P0, 4 branches on P0..P3, sink on P0: 6 superchains.
	if len(s.Chains) != 6 {
		t.Fatalf("superchains = %d, want 6", len(s.Chains))
	}
	procsUsed := map[int]bool{}
	for _, sc := range s.Chains {
		procsUsed[sc.Proc] = true
	}
	if len(procsUsed) != 4 {
		t.Fatalf("used %d processors, want 4", len(procsUsed))
	}
}

func TestAllocateMoreBranchesThanProcs(t *testing.T) {
	w := forkJoin(t, 10, 10)
	s, err := Allocate(w, pf(3), Options{})
	if err != nil {
		t.Fatal(err)
	}
	// src + 3 merged buckets + sink = 5 superchains.
	if len(s.Chains) != 5 {
		t.Fatalf("superchains = %d, want 5", len(s.Chains))
	}
	// Bucket sizes balanced: 10 branches over 3 buckets = 4/3/3.
	sizes := map[int]int{}
	for _, sc := range s.Chains[1:4] {
		sizes[len(sc.Tasks)]++
	}
	if sizes[4] != 1 || sizes[3] != 2 {
		t.Fatalf("bucket sizes = %v", sizes)
	}
}

func TestScheduleBookkeeping(t *testing.T) {
	w := forkJoin(t, 6, 5)
	s, err := Allocate(w, pf(3), Options{})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < w.G.NumTasks(); i++ {
		tid := wfdag.TaskID(i)
		sc := s.Chains[s.chainOf[tid]]
		if sc.Tasks[s.posOf[tid]] != tid {
			t.Fatalf("position/chain mismatch for %d", i)
		}
		if s.procOf[tid] != sc.Proc {
			t.Fatalf("Proc mismatch for %d", i)
		}
	}
}

func TestMakespanWithIdentityWeights(t *testing.T) {
	w := forkJoin(t, 4, 10)
	s, err := Allocate(w, pf(4), Options{})
	if err != nil {
		t.Fatal(err)
	}
	// Perfectly parallel: 10 + 10 + 10.
	if got := s.FailureFreeMakespan(); got != 30 {
		t.Fatalf("W_par = %g, want 30", got)
	}
	one, err := Allocate(w, pf(1), Options{})
	if err != nil {
		t.Fatal(err)
	}
	if got := one.FailureFreeMakespan(); got != 60 {
		t.Fatalf("serial W_par = %g, want 60", got)
	}
}

func TestMakespanWithCustomDurations(t *testing.T) {
	w := forkJoin(t, 2, 10)
	s, err := Allocate(w, pf(2), Options{})
	if err != nil {
		t.Fatal(err)
	}
	d := make([]float64, w.G.NumTasks())
	for i := range d {
		d[i] = 1
	}
	if got := s.MakespanWith(d); got != 3 {
		t.Fatalf("makespan = %g, want 3", got)
	}
}

func TestLinearOrderCoversProcessorTasks(t *testing.T) {
	w := forkJoin(t, 5, 10)
	s, err := Allocate(w, pf(3), Options{})
	if err != nil {
		t.Fatal(err)
	}
	count := 0
	for p := 0; p < 3; p++ {
		order := s.LinearOrder(p)
		count += len(order)
		for _, tid := range order {
			if s.procOf[tid] != p {
				t.Fatalf("task %d in wrong processor order", tid)
			}
		}
	}
	if count != w.G.NumTasks() {
		t.Fatalf("linear orders cover %d of %d tasks", count, w.G.NumTasks())
	}
}

func TestAllocateValidatesOnRealWorkflows(t *testing.T) {
	for _, fam := range pegasus.Families() {
		for _, procs := range []int{1, 3, 7, 16} {
			w, err := pegasus.Generate(fam, pegasus.Options{Tasks: 120, Seed: 5})
			if err != nil {
				t.Fatal(err)
			}
			s, err := Allocate(w, pf(procs), Options{Rng: rand.New(rand.NewSource(2))})
			if err != nil {
				t.Fatalf("%s p=%d: %v", fam, procs, err)
			}
			if err := s.Validate(); err != nil {
				t.Fatalf("%s p=%d: %v", fam, procs, err)
			}
			if s.FailureFreeMakespan() <= 0 {
				t.Fatalf("%s p=%d: non-positive makespan", fam, procs)
			}
		}
	}
}

// TestAllocateConcurrentSharedTree has 8 goroutines run Algorithm 1 at
// once on clones of one workflow, which share its (canonical) tree
// that Normalize hands back as is; under -race it checks that the
// shared tree is only ever read. Every schedule must match a serial
// run's superchains.
func TestAllocateConcurrentSharedTree(t *testing.T) {
	master, err := pegasus.Generate("montage", pegasus.Options{Tasks: 300, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	if master.Root.Normalize() != master.Root {
		t.Fatal("a generated tree must come back from Normalize as is")
	}
	chains := func(w *mspg.Workflow) ([]Superchain, error) {
		s, err := Allocate(w, pf(16), Options{Rng: rand.New(rand.NewSource(4))})
		if err != nil {
			return nil, err
		}
		out := make([]Superchain, len(s.Chains))
		for i, c := range s.Chains {
			out[i] = *c
		}
		return out, nil
	}
	want, err := chains(master.Clone())
	if err != nil {
		t.Fatal(err)
	}
	before := master.Root.String()
	const workers = 8
	errs := make([]error, workers)
	var wg sync.WaitGroup
	for k := 0; k < workers; k++ {
		wg.Add(1)
		go func(k int) {
			defer wg.Done()
			got, err := chains(master.Clone())
			if err == nil && !reflect.DeepEqual(got, want) {
				err = fmt.Errorf("goroutine %d: superchains differ from the serial run", k)
			}
			errs[k] = err
		}(k)
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			t.Fatal(err)
		}
	}
	if master.Root.String() != before {
		t.Fatal("concurrent Allocate calls changed the shared tree")
	}
}

func TestMakespanMonotoneInProcessors(t *testing.T) {
	// More processors never hurt the failure-free makespan on these
	// well-structured workflows (PropMap splits parallel work).
	for _, fam := range pegasus.PaperFamilies() {
		w1, _ := pegasus.Generate(fam, pegasus.Options{Tasks: 100, Seed: 9})
		s1, err := Allocate(w1, pf(1), Options{})
		if err != nil {
			t.Fatal(err)
		}
		w8, _ := pegasus.Generate(fam, pegasus.Options{Tasks: 100, Seed: 9})
		s8, err := Allocate(w8, pf(8), Options{})
		if err != nil {
			t.Fatal(err)
		}
		if s8.FailureFreeMakespan() > s1.FailureFreeMakespan()+1e-9 {
			t.Fatalf("%s: p=8 slower than p=1 (%g vs %g)", fam,
				s8.FailureFreeMakespan(), s1.FailureFreeMakespan())
		}
	}
}

func TestDeterministicLinearizerStable(t *testing.T) {
	w := forkJoin(t, 6, 5)
	a, err := Allocate(w, pf(2), Options{Linearize: DeterministicLinearizer, Rng: rand.New(rand.NewSource(1))})
	if err != nil {
		t.Fatal(err)
	}
	b, err := Allocate(w, pf(2), Options{Linearize: DeterministicLinearizer, Rng: rand.New(rand.NewSource(999))})
	if err != nil {
		t.Fatal(err)
	}
	for i := range a.Chains {
		for j := range a.Chains[i].Tasks {
			if a.Chains[i].Tasks[j] != b.Chains[i].Tasks[j] {
				t.Fatal("deterministic linearizer must ignore the RNG")
			}
		}
	}
}

func TestMinLiveFilesLinearizerValid(t *testing.T) {
	w, err := pegasus.Generate("montage", pegasus.Options{Tasks: 150, Seed: 4})
	if err != nil {
		t.Fatal(err)
	}
	s, err := Allocate(w, pf(4), Options{Linearize: MinLiveFilesLinearizer})
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Validate(); err != nil {
		t.Fatal(err)
	}
}
