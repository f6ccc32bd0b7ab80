package wfdag

import (
	"math"
	"testing"
)

// diamond builds a 4-task diamond: a -> b, a -> c, b -> d, c -> d, with
// weights 1, 2, 3, 4 and 10-byte files.
func diamond(t *testing.T) *Graph {
	t.Helper()
	g := New()
	a := g.AddTask("a", "k", 1)
	b := g.AddTask("b", "k", 2)
	c := g.AddTask("c", "k", 3)
	d := g.AddTask("d", "k", 4)
	g.Connect(a, b, "ab", 10)
	g.Connect(a, c, "ac", 10)
	g.Connect(b, d, "bd", 10)
	g.Connect(c, d, "cd", 10)
	return g
}

func TestAddTaskAssignsDenseIDs(t *testing.T) {
	g := New()
	for i := 0; i < 5; i++ {
		if id := g.AddTask("t", "k", 1); int(id) != i {
			t.Fatalf("task %d got ID %d", i, id)
		}
	}
	if g.NumTasks() != 5 {
		t.Fatalf("NumTasks = %d, want 5", g.NumTasks())
	}
}

func TestConnectCreatesEdgeAndFile(t *testing.T) {
	g := New()
	a := g.AddTask("a", "k", 1)
	b := g.AddTask("b", "k", 1)
	f := g.Connect(a, b, "ab", 42)
	if g.NumEdges() != 1 || g.NumFiles() != 1 {
		t.Fatalf("edges=%d files=%d, want 1 and 1", g.NumEdges(), g.NumFiles())
	}
	if got := g.File(f); got.Size != 42 || got.Producer != a {
		t.Fatalf("file = %+v", got)
	}
	if succ := g.SuccTasks(a); len(succ) != 1 || succ[0] != b {
		t.Fatalf("SuccTasks(a) = %v", succ)
	}
	if pred := g.PredTasks(b); len(pred) != 1 || pred[0] != a {
		t.Fatalf("PredTasks(b) = %v", pred)
	}
}

func TestSharedFileMultipleConsumers(t *testing.T) {
	g := New()
	a := g.AddTask("a", "k", 1)
	b := g.AddTask("b", "k", 1)
	c := g.AddTask("c", "k", 1)
	f := g.AddFile("shared", 100, a)
	g.AddDependency(b, f)
	g.AddDependency(c, f)
	if g.NumEdges() != 2 {
		t.Fatalf("NumEdges = %d, want 2", g.NumEdges())
	}
	if cs := g.Consumers(f); len(cs) != 2 {
		t.Fatalf("Consumers = %v", cs)
	}
	// The file is counted once in the byte total.
	if got := g.TotalFileBytes(); got != 100 {
		t.Fatalf("TotalFileBytes = %g, want 100", got)
	}
}

func TestWorkflowInputFiles(t *testing.T) {
	g := New()
	a := g.AddTask("a", "k", 1)
	f := g.AddFile("in", 5, NoTask)
	g.AddDependency(a, f)
	if g.NumEdges() != 0 {
		t.Fatalf("inputs must not create edges, got %d", g.NumEdges())
	}
	if ins := g.InputFiles(a); len(ins) != 1 || ins[0] != f {
		t.Fatalf("InputFiles = %v", ins)
	}
}

// outputFiles returns, for task t, the files it produces that have no
// consumer: the workflow outputs any execution must persist.
func outputFiles(g *Graph, t TaskID) []FileID {
	var out []FileID
	for _, f := range g.ProducedFiles(t) {
		if len(g.Consumers(f)) == 0 {
			out = append(out, f)
		}
	}
	return out
}

func TestOutputFiles(t *testing.T) {
	g := diamond(t)
	out := g.AddFile("result", 7, TaskID(3))
	if outs := outputFiles(g, 3); len(outs) != 1 || outs[0] != out {
		t.Fatalf("outputs of d = %v", outs)
	}
	// bd has a consumer, so it is not an output of b.
	if outs := outputFiles(g, 1); len(outs) != 0 {
		t.Fatalf("outputs of b = %v, want none", outs)
	}
}

func TestSourcesAndSinks(t *testing.T) {
	g := diamond(t)
	var sources, sinks []TaskID
	for i := 0; i < g.NumTasks(); i++ {
		if len(g.PredTasks(TaskID(i))) == 0 {
			sources = append(sources, TaskID(i))
		}
		if len(g.SuccTasks(TaskID(i))) == 0 {
			sinks = append(sinks, TaskID(i))
		}
	}
	if len(sources) != 1 || sources[0] != 0 {
		t.Fatalf("sources = %v", sources)
	}
	if len(sinks) != 1 || sinks[0] != 3 {
		t.Fatalf("sinks = %v", sinks)
	}
}

func TestTotalsAndMeanWeight(t *testing.T) {
	g := diamond(t)
	if w := g.TotalWeight(); w != 10 {
		t.Fatalf("TotalWeight = %g", w)
	}
	if w := g.MeanWeight(); w != 2.5 {
		t.Fatalf("MeanWeight = %g", w)
	}
	if b := g.TotalFileBytes(); b != 40 {
		t.Fatalf("TotalFileBytes = %g", b)
	}
	empty := New()
	if w := empty.MeanWeight(); w != 0 {
		t.Fatalf("empty MeanWeight = %g", w)
	}
}

func TestScaleFileSizes(t *testing.T) {
	g := diamond(t)
	g.ScaleFileSizes(2.5)
	if b := g.TotalFileBytes(); b != 100 {
		t.Fatalf("after scale TotalFileBytes = %g, want 100", b)
	}
}

func TestCloneIsDeep(t *testing.T) {
	g := diamond(t)
	c := g.Clone()
	c.AddTask("extra", "k", 9)
	c.ScaleFileSizes(10)
	if g.NumTasks() != 4 || g.TotalFileBytes() != 40 {
		t.Fatalf("mutating clone changed original: %v", g)
	}
	if c.NumTasks() != 5 || c.TotalFileBytes() != 400 {
		t.Fatalf("clone wrong: %v", c)
	}
}

func TestSuccPredTasksDeduplicate(t *testing.T) {
	g := New()
	a := g.AddTask("a", "k", 1)
	b := g.AddTask("b", "k", 1)
	g.Connect(a, b, "f1", 1)
	g.Connect(a, b, "f2", 1) // second file, same pair
	if s := g.SuccTasks(a); len(s) != 1 {
		t.Fatalf("SuccTasks must dedup, got %v", s)
	}
	if p := g.PredTasks(b); len(p) != 1 {
		t.Fatalf("PredTasks must dedup, got %v", p)
	}
	if g.NumEdges() != 2 {
		t.Fatalf("NumEdges = %d, want 2 raw edges", g.NumEdges())
	}
}

func TestZeroValueGraphUsable(t *testing.T) {
	var g Graph
	a := g.AddTask("a", "k", 1)
	f := g.AddFile("in", 1, NoTask)
	g.AddDependency(a, f)
	if g.NumTasks() != 1 || len(g.InputFiles(a)) != 1 {
		t.Fatal("zero-value Graph must be usable")
	}
}

func TestStringSummary(t *testing.T) {
	g := diamond(t)
	s := g.String()
	if s == "" || math.IsNaN(float64(len(s))) {
		t.Fatal("String must return a summary")
	}
}
