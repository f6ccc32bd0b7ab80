package mspg

import (
	"fmt"
	"math/rand"
	"reflect"
	"strings"
	"sync"
	"testing"

	"repro/internal/wfdag"
)

func figure4Workflow(t *testing.T) *Workflow {
	t.Helper()
	// Paper Figure 4(a): T1 -> T2; T2 -> T3, T2 -> T4; T3 -> T5;
	// T4 -> T5; T5 -> T6. Tree: T1 ; T2 ; (T3 || T4)… — careful: T4
	// consumes T2 and feeds T5, T3 consumes T2 and feeds T5:
	// (T1 ; T2 ; (T3 || T4) ; T5 ; T6).
	g := wfdag.New()
	ids := make([]wfdag.TaskID, 7)
	for i := 1; i <= 6; i++ {
		ids[i] = g.AddTask("T", "k", 10)
	}
	g.Connect(ids[1], ids[2], "d12", 100)
	g.Connect(ids[2], ids[3], "d23", 100)
	g.Connect(ids[2], ids[4], "d24", 100)
	g.Connect(ids[3], ids[5], "d35", 100)
	g.Connect(ids[4], ids[5], "d45", 100)
	g.Connect(ids[5], ids[6], "d56", 100)
	root := NewSerial(NewAtomic(ids[1]), NewAtomic(ids[2]),
		NewParallel(NewAtomic(ids[3]), NewAtomic(ids[4])),
		NewAtomic(ids[5]), NewAtomic(ids[6]))
	return &Workflow{Name: "figure4", G: g, Root: root}
}

func TestWorkflowValidateAccepts(t *testing.T) {
	if err := figure4Workflow(t).Validate(); err != nil {
		t.Fatal(err)
	}
}

func TestWorkflowValidateRejectsMissingEdge(t *testing.T) {
	w := figure4Workflow(t)
	// Claim an extra serial step the graph does not have.
	w.Root = NewSerial(w.Root, NewAtomic(w.G.AddTask("extra", "k", 1)))
	if err := w.Validate(); err == nil {
		t.Fatal("tree-implied edge missing from graph must fail")
	}
}

func TestWorkflowValidateRejectsExtraEdge(t *testing.T) {
	w := figure4Workflow(t)
	// Add a graph edge the tree does not imply (T1 -> T6).
	w.G.Connect(0, 5, "extra", 1)
	if err := w.Validate(); err == nil {
		t.Fatal("graph edge not implied by tree must fail")
	}
}

// TestValidateNamesOffendingEdge checks that both kinds of edge
// mismatch name the edge at fault.
func TestValidateNamesOffendingEdge(t *testing.T) {
	w := figure4Workflow(t)
	w.Root = NewSerial(w.Root, NewAtomic(w.G.AddTask("extra", "k", 1)))
	if err := w.Validate(); err == nil || !strings.Contains(err.Error(), "tree implies edge 5->6 missing from graph") {
		t.Fatalf("missing edge: got %v", err)
	}
	w = figure4Workflow(t)
	w.G.Connect(0, 5, "extra", 1)
	if err := w.Validate(); err == nil || !strings.Contains(err.Error(), "graph edge 0->5 not implied by tree") {
		t.Fatalf("extra edge: got %v", err)
	}
}

func TestWorkflowValidateRejectsDuplicateTask(t *testing.T) {
	w := figure4Workflow(t)
	w.Root = NewParallel(w.Root, NewAtomic(0)) // task 0 twice
	if err := w.Validate(); err == nil {
		t.Fatal("duplicate task in tree must fail")
	}
}

func TestWorkflowValidateRejectsMissingTask(t *testing.T) {
	w := figure4Workflow(t)
	w.G.AddTask("orphan", "k", 1)
	if err := w.Validate(); err == nil {
		t.Fatal("graph task missing from tree must fail")
	}
}

func TestTreeEdgeSetFigure4(t *testing.T) {
	w := figure4Workflow(t)
	es := TreeEdgeSet(w.Root)
	want := [][2]wfdag.TaskID{{0, 1}, {1, 2}, {1, 3}, {2, 4}, {3, 4}, {4, 5}}
	if len(es) != len(want) {
		t.Fatalf("edge set = %v", es)
	}
	for _, e := range want {
		if !es[e] {
			t.Fatalf("missing %v in %v", e, es)
		}
	}
}

func TestSubtreeWeights(t *testing.T) {
	g := wfdag.New()
	for i := 0; i < 4; i++ {
		g.AddTask("t", "k", float64(i+1))
	}
	parts := []*Node{NewAtomic(0), NewChain(1, 2), NewAtomic(3)}
	for i, want := range []float64{1, 5, 4} {
		if w := parts[i].Weight(g); w != want {
			t.Fatalf("part %d weight = %v, want %v", i, w, want)
		}
	}
}

func TestSortPartsByWeight(t *testing.T) {
	g := wfdag.New()
	for _, wt := range []float64{1, 10, 5, 10} {
		g.AddTask("t", "k", wt)
	}
	parts := []*Node{NewAtomic(0), NewAtomic(1), NewAtomic(2), NewAtomic(3)}
	idx := SortPartsByWeight(g, parts)
	// Weights: 1, 10, 5, 10. Non-increasing with ID tie-break: 1, 3, 2, 0.
	want := []int{1, 3, 2, 0}
	for i := range want {
		if idx[i] != want[i] {
			t.Fatalf("order = %v, want %v", idx, want)
		}
	}
}

func TestSortPartsDeterministic(t *testing.T) {
	g := wfdag.New()
	for i := 0; i < 6; i++ {
		g.AddTask("t", "k", 2)
	}
	parts := make([]*Node, 6)
	for i := range parts {
		parts[i] = NewAtomic(wfdag.TaskID(i))
	}
	first := SortPartsByWeight(g, parts)
	for trial := 0; trial < 5; trial++ {
		again := SortPartsByWeight(g, parts)
		for i := range first {
			if first[i] != again[i] {
				t.Fatal("sort must be deterministic under ties")
			}
		}
	}
}

// Random workflows from random trees always validate.
func TestRandomWorkflowValidates(t *testing.T) {
	rng := rand.New(rand.NewSource(31))
	for trial := 0; trial < 60; trial++ {
		next := 0
		root := randomTree(rng, 2+rng.Intn(25), &next).Normalize()
		g := buildFromTree(root, next)
		w := &Workflow{Name: "rand", G: g, Root: root}
		if err := w.Validate(); err != nil {
			t.Fatalf("trial %d: %v (tree %v)", trial, err, root)
		}
	}
}

// cloneMaster is figure4Workflow plus two workflow inputs and a second
// T2 -> T3 file. Its clones share its task table, file table and
// dependency log, and each of these must have spare capacity: a clone
// that appended to one without reallocating it would write into the
// master's backing array, where its sibling clones and the master's own
// next append write too.
func cloneMaster(t *testing.T) *Workflow {
	t.Helper()
	w := figure4Workflow(t)
	w.G.Connect(1, 2, "d23b", 100)
	for _, name := range []string{"in1", "in2"} {
		w.G.AddDependency(0, w.G.AddFile(name, 50, wfdag.NoTask))
	}
	for _, name := range []string{"tasks", "files", "deps"} {
		f := reflect.ValueOf(w.G).Elem().FieldByName(name)
		if !f.IsValid() {
			t.Fatalf("wfdag.Graph has no table %q", name)
		}
		if f.Len() == f.Cap() {
			t.Fatalf("the master's %s table has no spare capacity (len %d, cap %d)", name, f.Len(), f.Cap())
		}
	}
	return w
}

// graphView is a deep copy of everything a clone must not change in its
// master: the file table and every adjacency list.
type graphView struct {
	files                []wfdag.File
	succ, pred           [][]wfdag.Edge
	inputs               [][]wfdag.FileID
	consumers, succTasks [][]wfdag.TaskID
}

func viewOf(g *wfdag.Graph) graphView {
	var v graphView
	for f := range g.NumFiles() {
		v.files = append(v.files, g.File(wfdag.FileID(f)))
	}
	for i := 0; i < g.NumTasks(); i++ {
		t := wfdag.TaskID(i)
		v.succ = append(v.succ, append([]wfdag.Edge(nil), g.Succ(t)...))
		v.pred = append(v.pred, append([]wfdag.Edge(nil), g.Pred(t)...))
		v.inputs = append(v.inputs, append([]wfdag.FileID(nil), g.InputFiles(t)...))
		v.succTasks = append(v.succTasks, append([]wfdag.TaskID(nil), g.SuccTasks(t)...))
	}
	for f := 0; f < g.NumFiles(); f++ {
		v.consumers = append(v.consumers, append([]wfdag.TaskID(nil), g.Consumers(wfdag.FileID(f))...))
	}
	return v
}

// TestCloneIndependence clones one master twice and mutates each clone
// the way calibration and graph building can: rescaled file sizes, a
// new file, dependencies that extend lists the master already has (T2's
// successors, the predecessors of T5 or T6, T1's inputs and an input
// file's consumers) and a new task, each an append to a table the
// clones share with the master. The master's files, adjacency lists and
// index must stay as they were, each clone must see only its own
// appends, and both clones must share the master's tree.
func TestCloneIndependence(t *testing.T) {
	master := cloneMaster(t)
	want := viewOf(master.G)
	index := &master.G.SuccTasks(1)[0] // a slot of the master's adjacency index
	a, b := master.Clone(), master.Clone()
	if a.Root != master.Root || b.Root != master.Root {
		t.Fatal("Clone must share the structure tree by pointer")
	}
	in1 := master.G.InputFiles(0)[0]
	names := []string{"extra-a", "extra-b"} // distinct, so a clone that overwrote its sibling's file or task shows
	var files []wfdag.FileID
	var tasks []wfdag.TaskID
	for k, c := range []*Workflow{a, b} {
		c.G.ScaleFileSizes(float64(k + 2))
		f := c.G.AddFile(names[k], 7, 1)
		c.G.AddDependency(wfdag.TaskID(4+k), f) // T2 -> T5 or T6: appends to T2's succ and a pred list
		c.G.AddDependency(wfdag.TaskID(k), in1) // appends to in1's consumers
		c.G.AddDependency(0, c.G.AddFile("in3", 1, wfdag.NoTask))
		files = append(files, f)
		tasks = append(tasks, c.G.AddTask(names[k], "k", 1))
	}
	if got := viewOf(master.G); !reflect.DeepEqual(got, want) {
		t.Fatalf("mutating the clones changed the master:\n got %+v\nwant %+v", got, want)
	}
	if &master.G.SuccTasks(1)[0] != index {
		t.Fatal("mutating the clones dropped or rebuilt the master's adjacency index")
	}
	for k, c := range []*Workflow{a, b} {
		if got := c.G.File(files[k]).Name; got != names[k] {
			t.Fatalf("clone %d: its new file is named %q, want %q", k, got, names[k])
		}
		if got := c.G.Task(tasks[k]).Name; got != names[k] {
			t.Fatalf("clone %d: its new task is named %q, want %q", k, got, names[k])
		}
		succ := c.G.Succ(1)
		if len(succ) != len(want.succ[1])+1 || succ[len(succ)-1].To != wfdag.TaskID(4+k) {
			t.Fatalf("clone %d: T2's successors %v do not end in its own new edge", k, succ)
		}
		cons := c.G.Consumers(in1)
		if len(cons) != len(want.consumers[in1])+1 || cons[len(cons)-1] != wfdag.TaskID(k) {
			t.Fatalf("clone %d: in1's consumers %v do not end in its own reader", k, cons)
		}
		if got, want := c.G.TotalFileBytes(), master.G.TotalFileBytes()*float64(k+2)+8; got != want {
			t.Fatalf("clone %d: %g file bytes, want %g", k, got, want)
		}
	}
}

// TestCloneConcurrentCalibration has 8 goroutines clone one master and
// calibrate and extend their copies at once; under -race it checks
// that the tables and index the clones share with the master are only
// ever read.
func TestCloneConcurrentCalibration(t *testing.T) {
	master := cloneMaster(t)
	want := viewOf(master.G)
	bytes := master.G.TotalFileBytes()
	const workers = 8
	errs := make([]error, workers)
	var wg sync.WaitGroup
	for k := 0; k < workers; k++ {
		wg.Add(1)
		go func(k int) {
			defer wg.Done()
			c := master.Clone()
			c.G.ScaleFileSizes(float64(k + 1))
			c.G.AddDependency(4, c.G.AddFile("extra", 0, 1))
			c.G.AddTask("extra", "k", 1)
			if got, want := c.G.TotalFileBytes(), bytes*float64(k+1); got != want {
				errs[k] = fmt.Errorf("clone %d: %g file bytes, want %g", k, got, want)
				return
			}
			if got := c.G.Succ(1); len(got) != len(want.succ[1])+1 || !reflect.DeepEqual(got[:len(got)-1], want.succ[1]) {
				errs[k] = fmt.Errorf("clone %d: T2's successors %v", k, got)
			}
		}(k)
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			t.Fatal(err)
		}
	}
	if got := viewOf(master.G); !reflect.DeepEqual(got, want) {
		t.Fatal("concurrent clones changed the master")
	}
}
