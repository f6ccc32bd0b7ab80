package mspg

// Head is the decomposition G = C ;→ (G1 ‖ … ‖ Gn) ;→ Gn+1 used by the
// paper's Algorithm 1 (line 3). Chain is the longest possible leading
// chain of atomic tasks; Parts are the parallel components that follow
// (possibly none); Rest is the remaining M-SPG (possibly empty). The
// decomposition avoids the degenerate splits that would cause an infinite
// recursion (empty chain with a single non-empty part).
type Head struct {
	Chain []*Node // leading atoms, in order; each has Kind == Atomic
	Parts []*Node // parallel components G1..Gn
	Rest  *Node   // Gn+1, nil if empty
}

// Decompose splits a normalized M-SPG per Algorithm 1. For an Atomic
// node the chain is the node itself. For a Parallel node the chain is
// empty and Parts are its children. For a Serial node the chain collects
// the maximal prefix of Atomic children; the first non-atomic child (a
// Parallel node, by normalization) contributes Parts, and everything
// after it forms Rest. If a Serial node's children are all atomic, the
// whole node is a chain.
//
// The invariant guaranteed (for non-empty normalized input) is progress:
// Chain and Parts are not both empty, and Rest is strictly smaller than
// the input, so Algorithm 1's recursion terminates.
func Decompose(n *Node) Head {
	if n == nil {
		return Head{}
	}
	switch n.Kind {
	case Atomic:
		return Head{Chain: []*Node{n}}
	case Parallel:
		return Head{Parts: n.Children}
	case Serial:
		i := 0
		for i < len(n.Children) && n.Children[i].Kind == Atomic {
			i++
		}
		h := Head{Chain: n.Children[:i]}
		if i == len(n.Children) {
			return h
		}
		// By normalization the next child is Parallel (a Serial child
		// would have been spliced into this node).
		next := n.Children[i]
		if next.Kind == Parallel {
			h.Parts = next.Children
		} else {
			// Defensive: treat a non-normalized child as a single part.
			h.Parts = []*Node{next}
		}
		h.Rest = NewSerial(n.Children[i+1:]...)
		return h
	}
	return Head{}
}
