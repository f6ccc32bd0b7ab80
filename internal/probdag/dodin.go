package probdag

import (
	"fmt"
	"slices"
	"sort"

	"repro/internal/dist"
)

// DodinOptions tunes the series-parallel approximation.
type DodinOptions struct {
	// MaxBins caps the support size of intermediate distributions;
	// quantization rounds upward so the result stays an upper-biased
	// estimate. Default 64.
	MaxBins int
	// Budget caps the number of reduction/duplication steps to guard
	// against pathological blowup. Default 4,000,000.
	Budget int
}

func (o DodinOptions) withDefaults() DodinOptions {
	if o.MaxBins == 0 {
		o.MaxBins = 64
	}
	if o.Budget == 0 {
		o.Budget = 4_000_000
	}
	return o
}

// dodinDistribution runs the reduction of Evaluator.Dodin with the
// caller's combine scratch.
func dodinDistribution(g *Graph, opts DodinOptions, comb *dist.Combiner) (*dist.Discrete, error) {
	opts = opts.withDefaults()
	if g.Len() == 0 {
		return dist.Point(0), nil
	}
	r := newReducer(g, opts, comb)
	for r.aliveCount > 1 {
		if r.steps > opts.Budget {
			return nil, fmt.Errorf("probdag: dodin budget exhausted (%d steps, %d nodes alive)", r.steps, r.aliveCount)
		}
		if r.serialPass() {
			continue
		}
		if r.parallelPass() {
			continue
		}
		if !r.duplicate() {
			return nil, fmt.Errorf("probdag: dodin stuck with %d nodes and no reduction", r.aliveCount)
		}
	}
	for i := range r.nodes {
		if r.nodes[i].alive {
			return r.nodes[i].d, nil
		}
	}
	return nil, fmt.Errorf("probdag: dodin lost all nodes")
}

// rnode keeps its adjacency as sorted, deduplicated id slices, so
// membership updates are copy-free and set comparison is a slice
// compare.
type rnode struct {
	d     *dist.Discrete
	succ  []int // sorted
	pred  []int // sorted
	alive bool
	dirty bool // queued on reducer.dirty
	seen  int  // parallelPass number that last placed v in a group
}

type reducer struct {
	nodes      []rnode
	aliveCount int
	steps      int
	opts       DodinOptions
	comb       *dist.Combiner
	// dirty lists the nodes whose pred or succ set changed since the
	// last parallelPass; every group of two or more equal-set nodes
	// contains one.
	dirty  []int
	groups []int // parallelPass scratch: groups of ids, each ended by -1
	pass   int   // parallelPass count, stamps rnode.seen
}

func newReducer(g *Graph, opts DodinOptions, comb *dist.Combiner) *reducer {
	n := g.Len()
	r := &reducer{opts: opts, comb: comb, nodes: make([]rnode, n), aliveCount: n, dirty: make([]int, n)}
	for i := 0; i < n; i++ {
		nd := &r.nodes[i]
		nd.d = g.dists[i]
		nd.alive = true
		nd.dirty = true
		r.dirty[i] = i
		nd.succ = make([]int, len(g.succ[i]))
		for k, v := range g.succ[i] {
			nd.succ[k] = int(v)
		}
		sort.Ints(nd.succ)
		nd.pred = make([]int, len(g.pred[i]))
		for k, u := range g.pred[i] {
			nd.pred[k] = int(u)
		}
		sort.Ints(nd.pred)
	}
	return r
}

// touch queues v for the next parallelPass.
func (r *reducer) touch(v int) {
	if !r.nodes[v].dirty {
		r.nodes[v].dirty = true
		r.dirty = append(r.dirty, v)
	}
}

// serialPass merges every chain link it can find; returns true if any
// merge happened.
func (r *reducer) serialPass() bool {
	merged := false
	for v := 0; v < len(r.nodes); v++ {
		nv := &r.nodes[v]
		if !nv.alive || len(nv.pred) != 1 {
			continue
		}
		u := nv.pred[0]
		nu := &r.nodes[u]
		if len(nu.succ) != 1 {
			continue
		}
		// Merge v into u: u's duration becomes u+v, u inherits v's succs.
		r.steps++
		nu.d = r.comb.AddQuantized(nu.d, nv.d, r.opts.MaxBins)
		nu.succ = append(nu.succ[:0], nv.succ...)
		r.touch(u)
		for _, s := range nv.succ {
			ns := &r.nodes[s]
			ns.pred = removeSorted(ns.pred, v)
			ns.pred = insertSorted(ns.pred, u)
			r.touch(s)
		}
		nv.alive = false
		nv.succ, nv.pred = nil, nil
		r.aliveCount--
		merged = true
	}
	return merged
}

// parallelPass merges nodes with identical predecessor and successor
// sets; returns true if any merge happened. The groups are found before
// any merge — they must reflect the pre-pass graph — and each collapses
// onto its smallest id, folding the others in ascending id order.
//
// Only dirty nodes are looked at: a group of two or more equal-set
// nodes that survived the previous pass must have had a set changed
// since, and every change queues the node (see touch). A dirty node's
// group lies among the successors of its first predecessor, or, with no
// predecessor, among the predecessors of its first successor, or, with
// neither, among the isolated nodes. Those lists are sorted, so each
// group comes out in ascending id order. The merge order of groups does
// not matter: each fold reads only its own group's distributions, and
// the adjacency removals commute.
func (r *reducer) parallelPass() bool {
	r.pass++
	groups := r.groups[:0]
	for _, v := range r.dirty {
		nv := &r.nodes[v]
		nv.dirty = false
		if !nv.alive || nv.seen == r.pass {
			continue
		}
		start := len(groups)
		switch {
		case len(nv.pred) > 0:
			groups = r.appendEqual(groups, v, r.nodes[nv.pred[0]].succ)
		case len(nv.succ) > 0:
			groups = r.appendEqual(groups, v, r.nodes[nv.succ[0]].pred)
		default:
			for w := range r.nodes {
				if nw := &r.nodes[w]; nw.alive && len(nw.pred) == 0 && len(nw.succ) == 0 {
					groups = append(groups, w)
				}
			}
		}
		if len(groups)-start < 2 {
			groups = groups[:start]
			continue
		}
		for _, w := range groups[start:] {
			r.nodes[w].seen = r.pass
		}
		groups = append(groups, -1)
	}
	r.dirty = r.dirty[:0]
	r.groups = groups
	keep := -1 // first id of the group being folded
	for _, v := range groups {
		if v < 0 || keep < 0 {
			keep = v
			continue
		}
		r.steps++
		nk, nv := &r.nodes[keep], &r.nodes[v]
		nk.d = r.comb.MaxQuantized(nk.d, nv.d, r.opts.MaxBins)
		for _, p := range nv.pred {
			r.nodes[p].succ = removeSorted(r.nodes[p].succ, v)
			r.touch(p)
		}
		for _, s := range nv.succ {
			r.nodes[s].pred = removeSorted(r.nodes[s].pred, v)
			r.touch(s)
		}
		nv.alive = false
		nv.succ, nv.pred = nil, nil
		r.aliveCount--
	}
	return len(groups) > 0
}

// appendEqual appends, in cand's order, the nodes of cand whose sets
// equal v's.
func (r *reducer) appendEqual(groups []int, v int, cand []int) []int {
	nv := &r.nodes[v]
	for _, w := range cand {
		nw := &r.nodes[w]
		if slices.Equal(nw.pred, nv.pred) && slices.Equal(nw.succ, nv.succ) {
			groups = append(groups, w)
		}
	}
	return groups
}

// duplicate picks the node with in-degree >= 2 minimizing
// (indeg-1)*max(outdeg,1) and splits it into one independent copy per
// predecessor. Returns false if no candidate exists.
func (r *reducer) duplicate() bool {
	best, bestCost := -1, 0
	for v := range r.nodes {
		nv := &r.nodes[v]
		if !nv.alive || len(nv.pred) < 2 {
			continue
		}
		out := len(nv.succ)
		if out < 1 {
			out = 1
		}
		cost := (len(nv.pred) - 1) * out
		if best == -1 || cost < bestCost {
			best, bestCost = v, cost
		}
	}
	if best == -1 {
		return false
	}
	// Snapshot the split node before appending invalidates pointers into
	// r.nodes; its own slices are only released at the end.
	d := r.nodes[best].d
	preds := r.nodes[best].pred
	succs := r.nodes[best].succ
	for _, s := range succs {
		r.nodes[s].pred = removeSorted(r.nodes[s].pred, best)
		r.touch(s)
	}
	for _, u := range preds {
		r.steps++
		r.nodes[u].succ = removeSorted(r.nodes[u].succ, best)
		r.touch(u)
		// New ids exceed every existing one, so plain appends keep all
		// adjacency slices sorted.
		id := len(r.nodes)
		r.nodes = append(r.nodes, rnode{
			d:     d,
			pred:  []int{u},
			succ:  append([]int(nil), succs...),
			alive: true,
			dirty: true,
		})
		r.dirty = append(r.dirty, id)
		r.nodes[u].succ = append(r.nodes[u].succ, id)
		for _, s := range succs {
			r.nodes[s].pred = append(r.nodes[s].pred, id)
		}
		r.aliveCount++
	}
	nb := &r.nodes[best]
	nb.alive = false
	nb.succ, nb.pred = nil, nil
	r.aliveCount--
	return true
}

// removeSorted deletes x from the sorted set s in place (no-op when
// absent).
func removeSorted(s []int, x int) []int {
	i := sort.SearchInts(s, x)
	if i < len(s) && s[i] == x {
		return append(s[:i], s[i+1:]...)
	}
	return s
}

// insertSorted adds x to the sorted set s, keeping it sorted (no-op when
// present).
func insertSorted(s []int, x int) []int {
	i := sort.SearchInts(s, x)
	if i < len(s) && s[i] == x {
		return s
	}
	s = append(s, 0)
	copy(s[i+1:], s[i:])
	s[i] = x
	return s
}
