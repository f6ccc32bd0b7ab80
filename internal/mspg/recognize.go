package mspg

import (
	"fmt"
	"sort"

	"repro/internal/wfdag"
)

// NotMSPGError reports why a DAG failed M-SPG recognition.
type NotMSPGError struct {
	Reason string
	Tasks  []wfdag.TaskID // offending sub-problem, ascending IDs
}

// Error implements error.
func (e *NotMSPGError) Error() string {
	return fmt.Sprintf("mspg: not an M-SPG: %s (sub-problem of %d tasks)", e.Reason, len(e.Tasks))
}

// Recognize rebuilds an M-SPG tree from the dependency structure of g.
// It returns a NotMSPGError when the task-pair dependency relation of g
// is not expressible by the M-SPG algebra.
//
// The algorithm follows the recursive definition. Empty graphs are nil;
// a disconnected graph is the parallel composition of its weak
// components; a single task is atomic. For a connected graph with at
// least two tasks, a serial cut must exist: the vertex set splits into a
// downward-closed prefix A and suffix B such that the crossing edges are
// exactly sinks(G[A]) × sources(G[B]). The prefix is found by growing A
// from the sources of the component one ready-frontier at a time; a
// standard closure argument shows that while A is a strict subset of the
// first serial factor no vertex outside that factor becomes ready, so the
// growth cannot overshoot the minimal cut.
func Recognize(g *wfdag.Graph) (*Node, error) {
	all := make([]wfdag.TaskID, g.NumTasks())
	for i := range all {
		all[i] = wfdag.TaskID(i)
	}
	n, err := recognizeSet(g, all)
	if err != nil {
		return nil, err
	}
	return n.Normalize(), nil
}

func recognizeSet(g *wfdag.Graph, set []wfdag.TaskID) (*Node, error) {
	switch len(set) {
	case 0:
		return nil, nil
	case 1:
		return NewAtomic(set[0]), nil
	}
	in := make(map[wfdag.TaskID]bool, len(set))
	for _, t := range set {
		in[t] = true
	}
	comps := weakComponentsWithin(g, set, in)
	if len(comps) > 1 {
		parts := make([]*Node, 0, len(comps))
		for _, c := range comps {
			n, err := recognizeSet(g, c)
			if err != nil {
				return nil, err
			}
			parts = append(parts, n)
		}
		return NewParallel(parts...), nil
	}

	// Connected, >= 2 tasks: find the minimal serial cut by frontier
	// growth from the internal sources.
	a := make(map[wfdag.TaskID]bool)
	for _, t := range set {
		if !hasPredWithin(g, t, in, nil) {
			a[t] = true
		}
	}
	for len(a) < len(set) {
		if validSerialCut(g, set, in, a) {
			var left, right []wfdag.TaskID
			for _, t := range set {
				if a[t] {
					left = append(left, t)
				} else {
					right = append(right, t)
				}
			}
			ln, err := recognizeSet(g, left)
			if err != nil {
				return nil, err
			}
			rn, err := recognizeSet(g, right)
			if err != nil {
				return nil, err
			}
			return NewSerial(ln, rn), nil
		}
		// Absorb the ready frontier: tasks outside A whose in-set
		// predecessors all lie in A. The frontier is computed against
		// the pre-growth A — absorbing while scanning would cascade past
		// valid cuts in a single pass.
		var frontier []wfdag.TaskID
		for _, t := range set {
			if !a[t] && !hasPredWithin(g, t, in, a) {
				frontier = append(frontier, t)
			}
		}
		if len(frontier) == 0 {
			return nil, &NotMSPGError{Reason: "frontier growth stalled", Tasks: set}
		}
		for _, t := range frontier {
			a[t] = true
		}
	}
	return nil, &NotMSPGError{Reason: "connected component admits no serial cut", Tasks: set}
}

// hasPredWithin reports whether t has a predecessor that is inside `in`
// and (when skip != nil) outside `skip`.
func hasPredWithin(g *wfdag.Graph, t wfdag.TaskID, in, skip map[wfdag.TaskID]bool) bool {
	for _, p := range g.PredTasks(t) {
		if in[p] && (skip == nil || !skip[p]) {
			return true
		}
	}
	return false
}

// validSerialCut checks that (A, set∖A) is a legal serial composition
// boundary: the crossing edges are exactly sinks(G[A]) × sources(G[B]).
func validSerialCut(g *wfdag.Graph, set []wfdag.TaskID, in, a map[wfdag.TaskID]bool) bool {
	var sinksA, srcB []wfdag.TaskID
	for _, t := range set {
		if a[t] {
			isSink := true
			for _, s := range g.SuccTasks(t) {
				if in[s] && a[s] {
					isSink = false
					break
				}
			}
			if isSink {
				sinksA = append(sinksA, t)
			}
		} else {
			if !hasPredWithin(g, t, in, a) { // all in-set preds are in A
				srcB = append(srcB, t)
			}
		}
	}
	if len(srcB) == 0 {
		return false
	}
	srcSet := make(map[wfdag.TaskID]bool, len(srcB))
	for _, t := range srcB {
		srcSet[t] = true
	}
	sinkSet := make(map[wfdag.TaskID]bool, len(sinksA))
	for _, t := range sinksA {
		sinkSet[t] = true
	}
	// Every crossing edge must go from a sink of A to a source of B
	// (the ;→ operator produces exactly sinks × sources), and every
	// (sinkA, srcB) pair must exist.
	for _, t := range set {
		if !a[t] {
			continue
		}
		for _, s := range g.SuccTasks(t) {
			if in[s] && !a[s] && (!srcSet[s] || !sinkSet[t]) {
				return false
			}
		}
	}
	for _, u := range sinksA {
		succ := make(map[wfdag.TaskID]bool)
		for _, s := range g.SuccTasks(u) {
			succ[s] = true
		}
		for _, v := range srcB {
			if !succ[v] {
				return false
			}
		}
	}
	return true
}

// weakComponentsWithin computes weakly connected components of the
// subgraph induced by set. Components are returned in ascending order of
// their smallest member, members ascending.
func weakComponentsWithin(g *wfdag.Graph, set []wfdag.TaskID, in map[wfdag.TaskID]bool) [][]wfdag.TaskID {
	visited := make(map[wfdag.TaskID]bool, len(set))
	var comps [][]wfdag.TaskID
	sorted := append([]wfdag.TaskID(nil), set...)
	sort.Slice(sorted, func(i, j int) bool { return sorted[i] < sorted[j] })
	for _, start := range sorted {
		if visited[start] {
			continue
		}
		var comp []wfdag.TaskID
		stack := []wfdag.TaskID{start}
		visited[start] = true
		for len(stack) > 0 {
			t := stack[len(stack)-1]
			stack = stack[:len(stack)-1]
			comp = append(comp, t)
			for _, s := range g.SuccTasks(t) {
				if in[s] && !visited[s] {
					visited[s] = true
					stack = append(stack, s)
				}
			}
			for _, p := range g.PredTasks(t) {
				if in[p] && !visited[p] {
					visited[p] = true
					stack = append(stack, p)
				}
			}
		}
		sort.Slice(comp, func(i, j int) bool { return comp[i] < comp[j] })
		comps = append(comps, comp)
	}
	return comps
}
