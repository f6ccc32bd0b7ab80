package mspg

import (
	"fmt"

	"repro/internal/wfdag"
)

// RecognizeGeneral recognizes General Series-Parallel graphs, the first
// extension step the paper's §VIII proposes: a DAG is a GSPG when its
// *transitive reduction* is an M-SPG (Valdes, Tarjan, Lawler 1979). The
// returned tree is expressed over the original task IDs; the redundant
// (transitively implied) edges do not appear in the tree but are still
// honoured by any schedule that respects it, because a topological
// order of the reduction is a topological order of the full graph.
//
// RecognizeGeneral returns the tree, the number of redundant edges that
// were ignored, and an error when even the reduction is not an M-SPG.
func RecognizeGeneral(g *wfdag.Graph) (*Node, int, error) {
	reduced := wfdag.New()
	for i := 0; i < g.NumTasks(); i++ {
		t := g.Task(wfdag.TaskID(i))
		reduced.AddTask(t.Name, t.Kind, t.Weight)
	}
	keep := g.TransitiveReductionEdges()
	kept := 0
	for e := range keep {
		reduced.Connect(e[0], e[1], fmt.Sprintf("tr_%d_%d", e[0], e[1]), 0)
		kept++
	}
	// Count distinct task-pair dependencies in the original.
	total := 0
	for i := 0; i < g.NumTasks(); i++ {
		total += len(g.SuccTasks(wfdag.TaskID(i)))
	}
	node, err := Recognize(reduced)
	if err != nil {
		return nil, total - kept, fmt.Errorf("mspg: transitive reduction is not an M-SPG: %w", err)
	}
	return node, total - kept, nil
}

// WorkflowFromGraph builds a Workflow for an externally loaded DAG (JSON
// or DAX): it recognizes the M-SPG structure — falling back to the GSPG
// transitive-reduction route — and pairs the resulting tree with the
// graph. The returned workflow is NOT checked by Workflow.Validate when
// the GSPG route was taken (redundant edges are expected); callers get
// the redundant-edge count instead.
func WorkflowFromGraph(name string, g *wfdag.Graph) (*Workflow, int, error) {
	if node, err := Recognize(g); err == nil {
		w := &Workflow{Name: name, G: g, Root: node}
		if err := w.Validate(); err != nil {
			return nil, 0, err
		}
		return w, 0, nil
	}
	node, redundant, err := RecognizeGeneral(g)
	if err != nil {
		return nil, redundant, err
	}
	return &Workflow{Name: name, G: g, Root: node}, redundant, nil
}
