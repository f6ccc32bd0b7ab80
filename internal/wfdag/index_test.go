package wfdag

import (
	"fmt"
	"math/rand"
	"slices"
	"sync"
	"testing"
)

// shadow models a Graph by its mutation log; every accessor is
// recomputed from it by a plain scan.
type shadow struct {
	tasks     []Task
	producers []TaskID // per file
	deps      [][2]int // (consumer task, file), in AddDependency order
}

func (m *shadow) clone() *shadow {
	return &shadow{tasks: slices.Clone(m.tasks), producers: slices.Clone(m.producers), deps: slices.Clone(m.deps)}
}

// mutate applies one random mutation to both g and m. Every task gets
// its own name and weight, so a task table shared between a clone and
// its original shows up in Task. Files are drawn from a small pool, so
// files gain several consumers, task pairs gain several edges and a
// consumer sometimes reads the same file twice.
func mutate(rng *rand.Rand, g *Graph, m *shadow) {
	switch {
	case len(m.tasks) == 0 || rng.Intn(5) == 0:
		task := Task{ID: TaskID(len(m.tasks)), Name: fmt.Sprintf("t%d", rng.Intn(1000)), Kind: "k", Weight: float64(1 + rng.Intn(1000))}
		g.AddTask(task.Name, task.Kind, task.Weight)
		m.tasks = append(m.tasks, task)
	case len(m.producers) == 0 || rng.Intn(4) == 0:
		producer := NoTask
		if rng.Intn(3) > 0 {
			producer = TaskID(rng.Intn(len(m.tasks)))
		}
		g.AddFile("f", 1, producer)
		m.producers = append(m.producers, producer)
	default:
		lo := max(0, len(m.producers)-6)
		f := lo + rng.Intn(len(m.producers)-lo)
		to := rng.Intn(len(m.tasks))
		g.AddDependency(TaskID(to), FileID(f))
		m.deps = append(m.deps, [2]int{to, f})
	}
}

// checkAgainstShadow compares every adjacency accessor of g with its
// brute-force recomputation from m.
func checkAgainstShadow(t *testing.T, where string, g *Graph, m *shadow) {
	t.Helper()
	if g.NumTasks() != len(m.tasks) || g.NumFiles() != len(m.producers) {
		t.Fatalf("%s: %d tasks / %d files, want %d / %d", where, g.NumTasks(), g.NumFiles(), len(m.tasks), len(m.producers))
	}
	for _, want := range m.tasks {
		if got := g.Task(want.ID); got != want {
			t.Fatalf("%s: Task(%d) = %+v, want %+v", where, want.ID, got, want)
		}
	}
	consumed := make([]bool, len(m.producers))
	for _, d := range m.deps {
		consumed[d[1]] = true
	}
	for f := range m.producers {
		var want []TaskID
		for _, d := range m.deps {
			if d[1] == f {
				want = append(want, TaskID(d[0]))
			}
		}
		if got := g.Consumers(FileID(f)); !slices.Equal(got, want) {
			t.Fatalf("%s: Consumers(%d) = %v, want %v", where, f, got, want)
		}
	}
	for task := range m.tasks {
		id := TaskID(task)
		var pred, succ []TaskID
		var predEdges, succEdges []Edge
		var inputs, produced, outputs []FileID
		for _, d := range m.deps {
			to, f := d[0], FileID(d[1])
			switch p := m.producers[f]; {
			case to == task && p == NoTask:
				inputs = append(inputs, f)
			case to == task:
				pred = append(pred, p)
				predEdges = append(predEdges, Edge{From: p, To: id, File: f})
			}
			if m.producers[f] == id {
				succ = append(succ, TaskID(to))
				succEdges = append(succEdges, Edge{From: id, To: TaskID(to), File: f})
			}
		}
		slices.Sort(pred)
		slices.Sort(succ)
		pred, succ = slices.Compact(pred), slices.Compact(succ)
		for f, p := range m.producers {
			if p == id {
				produced = append(produced, FileID(f))
				if !consumed[f] {
					outputs = append(outputs, FileID(f))
				}
			}
		}
		for _, c := range []struct {
			name      string
			got, want any
			equal     bool
		}{
			{"PredTasks", g.PredTasks(id), pred, slices.Equal(g.PredTasks(id), pred)},
			{"SuccTasks", g.SuccTasks(id), succ, slices.Equal(g.SuccTasks(id), succ)},
			{"Pred", g.Pred(id), predEdges, slices.Equal(g.Pred(id), predEdges)},
			{"Succ", g.Succ(id), succEdges, slices.Equal(g.Succ(id), succEdges)},
			{"InputFiles", g.InputFiles(id), inputs, slices.Equal(g.InputFiles(id), inputs)},
			{"ProducedFiles", g.ProducedFiles(id), produced, slices.Equal(g.ProducedFiles(id), produced)},
			{"outputFiles", outputFiles(g, id), outputs, slices.Equal(outputFiles(g, id), outputs)},
		} {
			if !c.equal {
				t.Fatalf("%s: %s(%d) = %v, want %v", where, c.name, task, c.got, c.want)
			}
		}
	}
}

// TestAdjacencyIndexMatchesBruteForce grows random graphs from the zero
// value one mutation at a time and, after every mutation, compares all
// adjacency accessors with a brute-force recomputation: each mutation
// must drop the index the previous reads built.
func TestAdjacencyIndexMatchesBruteForce(t *testing.T) {
	for seed := int64(1); seed <= 20; seed++ {
		rng := rand.New(rand.NewSource(seed))
		var g Graph
		m := &shadow{}
		checkAgainstShadow(t, "empty", &g, m)
		for step := 0; step < 150; step++ {
			mutate(rng, &g, m)
			checkAgainstShadow(t, "step", &g, m)
		}
	}
}

// TestCloneIsolatedBothWays mutates a clone and then its original, and
// checks after every mutation that neither sees the other's changes;
// it also interleaves a few clone appends with the original's.
// Clones are taken both from indexed and from unindexed graphs, and the
// appends after a clone land on the task table, file table and
// dependency log it shares, capacity-capped, with its original.
func TestCloneIsolatedBothWays(t *testing.T) {
	for seed := int64(1); seed <= 20; seed++ {
		rng := rand.New(rand.NewSource(seed))
		g, m := New(), &shadow{}
		for step := 0; step < 80; step++ {
			mutate(rng, g, m)
		}
		if seed%2 == 0 {
			checkAgainstShadow(t, "original", g, m) // clone an indexed graph
		}
		c, mc := g.Clone(), m.clone()
		checkAgainstShadow(t, "fresh clone", c, mc)
		for step := 0; step < 60; step++ {
			mutate(rng, c, mc)
			checkAgainstShadow(t, "mutated clone", c, mc)
			checkAgainstShadow(t, "original after clone mutation", g, m)
		}
		for step := 0; step < 60; step++ {
			mutate(rng, g, m)
			checkAgainstShadow(t, "mutated original", g, m)
			checkAgainstShadow(t, "clone after original mutation", c, mc)
		}
		// A few appends to a fresh clone, then as many to the original:
		// the clone's entries still fit in the original's spare
		// capacity, so the original's appends land on the same slots
		// unless the clone's tables are capped.
		for k := 1; k <= 4; k++ {
			c, mc := g.Clone(), m.clone()
			for step := 0; step < k; step++ {
				mutate(rng, c, mc)
			}
			for step := 0; step < k; step++ {
				mutate(rng, g, m)
				checkAgainstShadow(t, "original after few clone appends", g, m)
				checkAgainstShadow(t, "clone after original appends", c, mc)
			}
		}
	}
}

// TestCloneSharesIndex pins the memory contract: clones share their
// original's task table, file table, dependency log and index, copy
// only the file sizes, and keep the index when they rescale them.
func TestCloneSharesIndex(t *testing.T) {
	g := randomDAG(rand.New(rand.NewSource(3)), 40, 0.2)
	c := g.Clone()
	idx := g.adj.Load()
	if idx == nil || c.adj.Load() != idx {
		t.Fatal("Clone must index the original and share that index")
	}
	if &c.tasks[0] != &g.tasks[0] || &c.files[0] != &g.files[0] || &c.deps[0] != &g.deps[0] {
		t.Fatal("Clone must share the task table, file table and dependency log")
	}
	if &c.sizes[0] == &g.sizes[0] {
		t.Fatal("Clone must copy the file sizes")
	}
	c.ScaleFileSizes(2)
	if c.adj.Load() != idx {
		t.Fatal("ScaleFileSizes dropped the index although the topology is unchanged")
	}
	c.AddTask("x", "k", 1)
	if c.adj.Load() != nil || g.adj.Load() != idx {
		t.Fatal("a mutation must drop the clone's index and leave the original's")
	}
}

// TestIndexConcurrentFirstReadsAndClones races first reads of a shared,
// unindexed graph against Clone calls on it (run it under -race): all
// readers and clones must end up on one index with correct contents.
func TestIndexConcurrentFirstReadsAndClones(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	g, m := New(), &shadow{}
	for step := 0; step < 300; step++ {
		mutate(rng, g, m)
	}
	if g.adj.Load() != nil {
		t.Fatal("a freshly mutated graph must be unindexed")
	}
	const workers = 8
	clones := make([]*Graph, workers)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			if w%2 == 0 {
				clones[w] = g.Clone()
			}
			for task := 0; task < g.NumTasks(); task++ {
				g.PredTasks(TaskID(task))
				g.SuccTasks(TaskID(task))
				g.ProducedFiles(TaskID(task))
			}
		}(w)
	}
	wg.Wait()
	idx := g.adj.Load()
	for w, c := range clones {
		if c != nil && c.adj.Load() != idx {
			t.Fatalf("clone %d holds its own index", w)
		}
	}
	checkAgainstShadow(t, "after concurrent first reads", g, m)
	for _, c := range clones {
		if c != nil {
			checkAgainstShadow(t, "concurrent clone", c, m)
		}
	}
}
