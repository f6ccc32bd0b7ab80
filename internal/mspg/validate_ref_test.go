package mspg

import (
	"fmt"
	"math/rand"
	"testing"

	"repro/internal/wfdag"
)

// validateRef is Workflow.Validate as it was before the linear pass:
// it materializes the tree's implied edge set and the graph's edge set
// as maps and compares them both ways. It is the reference the
// differential tests hold Validate to.
func validateRef(w *Workflow) error {
	if err := w.G.Validate(); err != nil {
		return err
	}
	tasks := w.Root.Tasks()
	if len(tasks) != w.G.NumTasks() {
		return fmt.Errorf("mspg: tree has %d tasks, graph has %d", len(tasks), w.G.NumTasks())
	}
	seen := make(map[wfdag.TaskID]bool, len(tasks))
	for _, t := range tasks {
		if seen[t] {
			return fmt.Errorf("mspg: task %d appears twice in the tree", t)
		}
		if int(t) < 0 || int(t) >= w.G.NumTasks() {
			return fmt.Errorf("mspg: tree references out-of-range task %d", t)
		}
		seen[t] = true
	}
	want := TreeEdgeSet(w.Root)
	got := make(map[[2]wfdag.TaskID]bool)
	for i := 0; i < w.G.NumTasks(); i++ {
		for _, s := range w.G.SuccTasks(wfdag.TaskID(i)) {
			got[[2]wfdag.TaskID{wfdag.TaskID(i), s}] = true
		}
	}
	for e := range want {
		if !got[e] {
			return fmt.Errorf("mspg: tree implies edge %d->%d missing from graph", e[0], e[1])
		}
	}
	for e := range got {
		if !want[e] {
			return fmt.Errorf("mspg: graph edge %d->%d not implied by tree", e[0], e[1])
		}
	}
	return nil
}

// TreeEdgeSet returns the task-pair dependency relation induced by the
// M-SPG algebra on the tree: for every Serial node, all sinks of each
// child connect to all sources of the next child.
func TreeEdgeSet(n *Node) map[[2]wfdag.TaskID]bool {
	out := make(map[[2]wfdag.TaskID]bool)
	var rec func(*Node)
	rec = func(n *Node) {
		if n == nil || n.Kind == Atomic {
			return
		}
		for _, c := range n.Children {
			rec(c)
		}
		if n.Kind == Serial {
			for i := 0; i+1 < len(n.Children); i++ {
				for _, u := range n.Children[i].appendSinks(nil) {
					for _, v := range n.Children[i+1].Sources() {
						out[[2]wfdag.TaskID{u, v}] = true
					}
				}
			}
		}
	}
	rec(n)
	return out
}

// mutation is one malformed (or, for some draws, still well-formed)
// variant of a workflow.
type mutation struct {
	name string
	w    *Workflow
}

// mapLeaves copies the tree node for node, relabelling every leaf.
func mapLeaves(n *Node, f func(wfdag.TaskID) wfdag.TaskID) *Node {
	if n == nil {
		return nil
	}
	if n.Kind == Atomic {
		return &Node{Kind: Atomic, Task: f(n.Task)}
	}
	out := &Node{Kind: n.Kind, Children: make([]*Node, len(n.Children))}
	for i, c := range n.Children {
		out.Children[i] = mapLeaves(c, f)
	}
	return out
}

// withoutEdge rebuilds g with every dependency of v on a file u
// produces dropped, which removes the task-edge u→v.
func withoutEdge(g *wfdag.Graph, u, v wfdag.TaskID) *wfdag.Graph {
	out := wfdag.New()
	for id := range g.NumTasks() {
		t := g.Task(wfdag.TaskID(id))
		out.AddTask(t.Name, t.Kind, t.Weight)
	}
	for i := range g.NumFiles() {
		f := g.File(wfdag.FileID(i))
		out.AddFile(f.Name, f.Size, f.Producer)
	}
	for t := 0; t < g.NumTasks(); t++ {
		for _, f := range g.InputFiles(wfdag.TaskID(t)) {
			if wfdag.TaskID(t) == v && g.File(f).Producer == u {
				continue
			}
			out.AddDependency(wfdag.TaskID(t), f)
		}
	}
	return out
}

// serialNodes appends every Serial node with at least two children.
func serialNodes(n *Node, out []*Node) []*Node {
	if n == nil || n.Kind == Atomic {
		return out
	}
	if n.Kind == Serial && len(n.Children) >= 2 {
		out = append(out, n)
	}
	for _, c := range n.Children {
		out = serialNodes(c, out)
	}
	return out
}

// mutations draws, from a well-formed workflow, one variant of each
// kind: the workflow itself, a dropped graph edge, a graph edge the
// tree does not imply, a duplicated leaf, an out-of-range leaf, an
// orphan task (in the graph only, and in the graph and in parallel in
// the tree) and two leaves swapped across a Serial boundary.
func mutations(w *Workflow, rng *rand.Rand) []mutation {
	n := w.G.NumTasks()
	out := []mutation{{"unchanged", w}}
	// Drop one task-edge.
	var edges [][2]wfdag.TaskID
	for u := 0; u < n; u++ {
		for _, v := range w.G.SuccTasks(wfdag.TaskID(u)) {
			edges = append(edges, [2]wfdag.TaskID{wfdag.TaskID(u), v})
		}
	}
	if len(edges) > 0 {
		e := edges[rng.Intn(len(edges))]
		out = append(out, mutation{"drop edge", &Workflow{Name: w.Name, G: withoutEdge(w.G, e[0], e[1]), Root: w.Root}})
	}
	// Add an edge forward in tree order that the tree does not imply.
	order := w.Root.Tasks()
	implied := TreeEdgeSet(w.Root)
	for try := 0; try < 50 && n >= 2; try++ {
		i, j := rng.Intn(n), rng.Intn(n)
		if i > j {
			i, j = j, i
		}
		u, v := order[i], order[j]
		if i == j || implied[[2]wfdag.TaskID{u, v}] {
			continue
		}
		c := w.Clone()
		c.G.Connect(u, v, "extra", 1)
		out = append(out, mutation{"add edge", c})
		break
	}
	if n >= 2 {
		// Duplicate a leaf: one leaf takes another's task.
		a, b := order[rng.Intn(n)], order[rng.Intn(n)]
		for b == a {
			b = order[rng.Intn(n)]
		}
		out = append(out, mutation{"duplicate leaf", &Workflow{Name: w.Name, G: w.G, Root: mapLeaves(w.Root, func(t wfdag.TaskID) wfdag.TaskID {
			if t == a {
				return b
			}
			return t
		})}})
	}
	if n >= 1 {
		// An out-of-range leaf in place of a real one.
		a := order[rng.Intn(n)]
		bad := wfdag.TaskID(n)
		if rng.Intn(2) == 0 {
			bad = -1
		}
		out = append(out, mutation{"out-of-range leaf", &Workflow{Name: w.Name, G: w.G, Root: mapLeaves(w.Root, func(t wfdag.TaskID) wfdag.TaskID {
			if t == a {
				return bad
			}
			return t
		})}})
	}
	// An orphan task: in the graph only, then also in parallel in the
	// tree (which is well-formed).
	c := w.Clone()
	orphan := c.G.AddTask("orphan", "k", 1)
	out = append(out, mutation{"orphan task", c})
	c = w.Clone()
	c.G.AddTask("orphan", "k", 1)
	c.Root = NewParallel(c.Root, NewAtomic(orphan))
	out = append(out, mutation{"orphan task in parallel", c})
	// Swap two leaves in different children of one Serial node.
	if serials := serialNodes(w.Root, nil); len(serials) > 0 {
		s := serials[rng.Intn(len(serials))]
		i := rng.Intn(len(s.Children) - 1)
		j := i + 1 + rng.Intn(len(s.Children)-i-1)
		left, right := s.Children[i].Tasks(), s.Children[j].Tasks()
		a, b := left[rng.Intn(len(left))], right[rng.Intn(len(right))]
		out = append(out, mutation{"swap across serial", &Workflow{Name: w.Name, G: w.G, Root: mapLeaves(w.Root, func(t wfdag.TaskID) wfdag.TaskID {
			switch t {
			case a:
				return b
			case b:
				return a
			}
			return t
		})}})
	}
	return out
}

// checkAgainstRef runs every mutation of w through Validate and
// validateRef and fails when they disagree on accept or reject. It
// returns how many variants each accepted and rejected.
func checkAgainstRef(t *testing.T, name string, w *Workflow, rng *rand.Rand) (accepted, rejected int) {
	t.Helper()
	for _, m := range mutations(w, rng) {
		got, want := m.w.Validate(), validateRef(m.w)
		if (got == nil) != (want == nil) {
			t.Errorf("%s, %s: Validate says %v, reference says %v", name, m.name, got, want)
		}
		if want == nil {
			accepted++
		} else {
			rejected++
		}
	}
	return accepted, rejected
}

// TestValidateMatchesRefRandomTrees holds Validate to validateRef on
// every mutation of the random workflows TestRandomWorkflowValidates
// draws.
func TestValidateMatchesRefRandomTrees(t *testing.T) {
	rng := rand.New(rand.NewSource(31))
	mut := rand.New(rand.NewSource(5))
	accepted, rejected := 0, 0
	for trial := 0; trial < 60; trial++ {
		next := 0
		root := randomTree(rng, 2+rng.Intn(25), &next).Normalize()
		w := &Workflow{Name: "rand", G: buildFromTree(root, next), Root: root}
		a, r := checkAgainstRef(t, fmt.Sprintf("trial %d", trial), w, mut)
		accepted += a
		rejected += r
	}
	if accepted == 0 || rejected == 0 {
		t.Fatalf("%d variants accepted and %d rejected: the mutations must exercise both", accepted, rejected)
	}
}
