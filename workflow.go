package hanccr

import (
	"context"
	"fmt"
	"io"

	"repro/internal/mspg"
)

// Workflow is a materialized workflow DAG, before any platform
// calibration or CCR rescaling — what cmd/genwf writes out. It wraps
// the internal graph so the façade's surface stays free of internal
// types.
type Workflow struct {
	w         *mspg.Workflow
	redundant int
}

// GenerateWorkflow materializes the scenario's workflow — generating
// the family or decoding the injected document — without building a
// platform or plan. File sizes are the generator's own (no CCR
// rescaling).
func GenerateWorkflow(ctx context.Context, s Scenario) (*Workflow, error) {
	if err := s.Validate(); err != nil {
		return nil, err
	}
	w, redundant, err := s.materialize(ctx)
	if err != nil {
		return nil, err
	}
	return &Workflow{w: w, redundant: redundant}, nil
}

// Name returns the workflow's label.
func (wf *Workflow) Name() string { return wf.w.Name }

// NumTasks returns the task count.
func (wf *Workflow) NumTasks() int { return wf.w.G.NumTasks() }

// NumFiles returns the file count.
func (wf *Workflow) NumFiles() int { return wf.w.G.NumFiles() }

// RedundantEdges counts transitively redundant edges the GSPG
// recognition fallback ignored (0 for pristine M-SPGs).
func (wf *Workflow) RedundantEdges() int { return wf.redundant }

// String summarizes the graph structure.
func (wf *Workflow) String() string { return fmt.Sprint(wf.w.G) }

// MSPGTasks recognizes the M-SPG structure and returns the structure
// tree's task count, or an error wrapping ErrNotMSPG.
func (wf *Workflow) MSPGTasks() (int, error) {
	node, err := mspg.Recognize(wf.w.G)
	if err != nil {
		return 0, fmt.Errorf("%w: %v", ErrNotMSPG, err)
	}
	return node.NumTasks(), nil
}

// WriteJSON writes the workflow in the library's native JSON schema.
func (wf *Workflow) WriteJSON(w io.Writer) error { return wf.w.G.WriteJSON(w) }

// WriteDAX writes the workflow as a Pegasus DAX document.
func (wf *Workflow) WriteDAX(w io.Writer) error { return wf.w.G.WriteDAX(w, wf.w.Name) }
