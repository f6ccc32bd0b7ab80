package probdag_test

// This file is the full-sort Dodin reducer as it stood before the
// parallel pass became incremental, kept as the differential reference
// of dodin_diff_test.go. It is the historical code with only the
// package boundary adapted: the graph is read through Graph's exported
// accessors and the defaults of DodinOptions are inlined. Every pass
// rehashes and sorts all alive nodes to find the equal-set groups.

import (
	"fmt"
	"slices"
	"sort"

	"repro/internal/dist"
	"repro/internal/probdag"
)

// refDodinDistribution is the full-sort reduction loop. Defaults as in
// probdag.DodinOptions.
func refDodinDistribution(g *probdag.Graph, opts probdag.DodinOptions) (*dist.Discrete, error) {
	if opts.MaxBins == 0 {
		opts.MaxBins = 64
	}
	if opts.Budget == 0 {
		opts.Budget = 4_000_000
	}
	var comb dist.Combiner
	if g.Len() == 0 {
		return dist.Point(0), nil
	}
	r := newReducer(g, opts, &comb)
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

// rnode keeps its adjacency as sorted, deduplicated id slices. The
// historical reducer used map[int]bool sets and grouped parallelPass
// candidates under allocated string keys, which dominated Dodin's
// allocation profile; sorted slices make membership updates copy-free
// and grouping a sort-and-scan.
type rnode struct {
	d     *dist.Discrete
	succ  []int // sorted
	pred  []int // sorted
	alive bool
}

type reducer struct {
	nodes      []rnode
	aliveCount int
	steps      int
	opts       probdag.DodinOptions
	comb       *dist.Combiner
	cand       []int    // parallelPass candidate scratch
	runs       [][2]int // parallelPass group-boundary scratch
	hash       []uint64 // parallelPass per-node set-hash scratch
}

func newReducer(g *probdag.Graph, opts probdag.DodinOptions, comb *dist.Combiner) *reducer {
	n := g.Len()
	r := &reducer{opts: opts, comb: comb, nodes: make([]rnode, n), aliveCount: n}
	for i := 0; i < n; i++ {
		nd := &r.nodes[i]
		nd.d = g.Dist(probdag.NodeID(i))
		nd.alive = true
		nd.succ = make([]int, len(g.Succ(probdag.NodeID(i))))
		for k, v := range g.Succ(probdag.NodeID(i)) {
			nd.succ[k] = int(v)
		}
		sort.Ints(nd.succ)
		nd.pred = make([]int, len(g.Pred(probdag.NodeID(i))))
		for k, u := range g.Pred(probdag.NodeID(i)) {
			nd.pred[k] = int(u)
		}
		sort.Ints(nd.pred)
	}
	return r
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
		for _, s := range nv.succ {
			ns := &r.nodes[s]
			ns.pred = removeSorted(ns.pred, v)
			ns.pred = insertSorted(ns.pred, u)
		}
		nv.alive = false
		nv.succ, nv.pred = nil, nil
		r.aliveCount--
		merged = true
	}
	return merged
}

// parallelPass merges nodes with identical predecessor and successor
// sets; returns true if any merge happened. Candidates are sorted so
// equal-set nodes become adjacent (ids ascending within a group), the
// group boundaries are snapshotted before any merge — the grouping must
// reflect the pre-pass graph, exactly like the historical key-map — and
// then each group collapses onto its smallest id. A per-node hash of
// both sets fronts the sort comparisons, so full slice compares only
// happen between probable group members.
func (r *reducer) parallelPass() bool {
	cand := r.cand[:0]
	for v := range r.nodes {
		if r.nodes[v].alive {
			cand = append(cand, v)
		}
	}
	if cap(r.hash) < len(r.nodes) {
		r.hash = make([]uint64, len(r.nodes))
	}
	hash := r.hash[:len(r.nodes)]
	for _, v := range cand {
		hash[v] = r.setHash(v)
	}
	slices.SortFunc(cand, func(a, b int) int {
		if hash[a] != hash[b] {
			if hash[a] < hash[b] {
				return -1
			}
			return 1
		}
		na, nb := &r.nodes[a], &r.nodes[b]
		if c := slices.Compare(na.pred, nb.pred); c != 0 {
			return c
		}
		if c := slices.Compare(na.succ, nb.succ); c != 0 {
			return c
		}
		return a - b
	})
	r.cand = cand
	runs := r.runs[:0]
	for i := 0; i < len(cand); {
		j := i + 1
		for j < len(cand) && r.equalSets(cand[i], cand[j]) {
			j++
		}
		if j-i >= 2 {
			runs = append(runs, [2]int{i, j})
		}
		i = j
	}
	r.runs = runs
	for _, run := range runs {
		keep := &r.nodes[cand[run[0]]]
		for _, v := range cand[run[0]+1 : run[1]] {
			r.steps++
			nv := &r.nodes[v]
			keep.d = r.comb.MaxQuantized(keep.d, nv.d, r.opts.MaxBins)
			for _, p := range nv.pred {
				r.nodes[p].succ = removeSorted(r.nodes[p].succ, v)
			}
			for _, s := range nv.succ {
				r.nodes[s].pred = removeSorted(r.nodes[s].pred, v)
			}
			nv.alive = false
			nv.succ, nv.pred = nil, nil
			r.aliveCount--
		}
	}
	return len(runs) > 0
}

// equalSets reports whether nodes a and b share identical predecessor
// and successor sets.
func (r *reducer) equalSets(a, b int) bool {
	na, nb := &r.nodes[a], &r.nodes[b]
	return slices.Equal(na.pred, nb.pred) && slices.Equal(na.succ, nb.succ)
}

// setHash folds node v's predecessor and successor sets into an FNV-1a
// style fingerprint; equal sets always hash equal, so the hash can front
// the grouping sort's comparisons.
func (r *reducer) setHash(v int) uint64 {
	const prime = 1099511628211
	n := &r.nodes[v]
	h := uint64(14695981039346656037)
	for _, p := range n.pred {
		h = (h ^ uint64(p+1)) * prime
	}
	h = (h ^ ^uint64(0)) * prime // pred/succ separator
	for _, s := range n.succ {
		h = (h ^ uint64(s+1)) * prime
	}
	return h
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
	}
	for _, u := range preds {
		r.steps++
		r.nodes[u].succ = removeSorted(r.nodes[u].succ, best)
		// New ids exceed every existing one, so plain appends keep all
		// adjacency slices sorted.
		id := len(r.nodes)
		r.nodes = append(r.nodes, rnode{
			d:     d,
			pred:  []int{u},
			succ:  append([]int(nil), succs...),
			alive: true,
		})
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
