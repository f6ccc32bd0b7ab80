// Package ckpt implements the checkpointing half of the paper: the
// extended checkpoint semantics for superchains (§IV-A), the O(n²)
// optimal checkpoint-placement dynamic program (Algorithm 2, §IV-B), the
// CkptAll / CkptNone / CkptSome strategies, segment coalescing into
// 2-state probabilistic DAGs, and the Theorem 1 estimate for CkptNone.
package ckpt

import (
	"repro/internal/platform"
	"repro/internal/sched"
	"repro/internal/wfdag"
)

// chainCosts precomputes, for one superchain, everything needed to
// evaluate the paper's R^j_i, W^j_i and C^j_i segment costs in O(1)
// amortized per (i, j) extension:
//
//	R^j_i — storage-read time of all data produced outside tasks i..j
//	        (earlier checkpointed superchain prefixes, other superchains'
//	        checkpointed exit tasks, or workflow inputs) and consumed by
//	        tasks i..j; deduplicated by file.
//	W^j_i — total weight of tasks i..j.
//	C^j_i — storage-write (checkpoint) time of all data produced by tasks
//	        i..j and still needed after Tj (later tasks of this
//	        superchain, tasks of other superchains, or workflow outputs);
//	        deduplicated by file, matching the paper's extended
//	        checkpoint definition that also saves live data of
//	        non-checkpointed predecessors.
//
// Positions are indices into the superchain's linearized task order.
// A plan builds one table per superchain, in time linear in the chain's
// file references, and hands it to both Algorithm 2 and segment
// cutting. build reuses the buffers and the graph-sized scratch of the
// previous chain, so a table is valid until its next build.
type chainCosts struct {
	n       int
	weights []float64 // weight of the task at each position

	// Per local file, numbered in order of first reference:
	files    []wfdag.FileID
	fileCost []float64 // storage read/write time
	prodPos  []int     // producer position in this chain, or -1 (external/input)
	lastIn   []int     // last consumer position in this chain, or -1
	external []bool    // consumed outside this chain, or a workflow output
	refs     []int     // consumer-list entries that are tasks of this chain

	// consumed[consumedOff[pos]:consumedOff[pos+1]] lists the local files
	// consumed by the task at pos, each once; produced likewise.
	consumed, consumedOff []int
	produced, producedOff []int

	// fileIdx maps a FileID to its local index while build runs and is
	// all -1 between builds.
	fileIdx []int
	// stamp[f] == epoch marks local file f as already read by the
	// segment (or span-table row) being costed.
	stamp []int
	epoch int

	byLast, byLastOff []int     // segmentTable's files bucketed by lastIn
	span              []float64 // segmentTable's rows, packed
}

// newChainCosts builds the cost table of superchain sc.
func newChainCosts(s *sched.Schedule, p platform.Platform, sc *sched.Superchain) *chainCosts {
	cc := &chainCosts{}
	cc.build(s, p, sc)
	return cc
}

// build (re)fills the table for superchain sc.
func (cc *chainCosts) build(s *sched.Schedule, p platform.Platform, sc *sched.Superchain) {
	g := s.W.G
	if len(cc.fileIdx) != g.NumFiles() {
		cc.fileIdx = make([]int, g.NumFiles())
		for f := range cc.fileIdx {
			cc.fileIdx[f] = -1
		}
	}
	cc.n = len(sc.Tasks)
	cc.weights = cc.weights[:0]
	cc.files, cc.fileCost = cc.files[:0], cc.fileCost[:0]
	cc.prodPos, cc.lastIn = cc.prodPos[:0], cc.lastIn[:0]
	cc.external, cc.refs = cc.external[:0], cc.refs[:0]
	cc.consumed, cc.consumedOff = cc.consumed[:0], append(cc.consumedOff[:0], 0)
	cc.produced, cc.producedOff = cc.produced[:0], append(cc.producedOff[:0], 0)
	for pos, t := range sc.Tasks {
		cc.weights = append(cc.weights, g.Task(t).Weight)
		// Files consumed by t: dependency edges plus workflow inputs.
		for _, e := range g.Pred(t) {
			cc.consume(g, p, e.File, pos)
		}
		for _, f := range g.InputFiles(t) {
			cc.consume(g, p, f, pos)
		}
		cc.consumedOff = append(cc.consumedOff, len(cc.consumed))
		for _, f := range g.ProducedFiles(t) {
			i := cc.local(g, p, f)
			cc.prodPos[i] = pos
			cc.produced = append(cc.produced, i)
		}
		cc.producedOff = append(cc.producedOff, len(cc.produced))
	}
	for i, f := range cc.files {
		// Every entry of a file's consumer list is one dependency read,
		// so a consumer outside the chain shows as fewer in-chain
		// references than entries. A file nobody reads is a workflow
		// output: it must always be persisted to stable storage.
		nc := len(g.Consumers(f))
		cc.external[i] = nc == 0 || cc.refs[i] < nc
		cc.fileIdx[f] = -1
	}
	if cap(cc.stamp) < len(cc.files) {
		cc.stamp = make([]int, len(cc.files))
	}
	// Stale stamps of earlier chains stay below the rising epoch.
	cc.stamp = cc.stamp[:len(cc.files)]
}

// local returns f's local index, registering it on first reference.
func (cc *chainCosts) local(g *wfdag.Graph, p platform.Platform, f wfdag.FileID) int {
	if i := cc.fileIdx[f]; i >= 0 {
		return i
	}
	i := len(cc.files)
	cc.fileIdx[f] = i
	cc.files = append(cc.files, f)
	cc.fileCost = append(cc.fileCost, p.FileCost(g, f))
	cc.prodPos = append(cc.prodPos, -1)
	cc.lastIn = append(cc.lastIn, -1)
	cc.external = append(cc.external, false)
	cc.refs = append(cc.refs, 0)
	return i
}

// consume records one read of f by the task at pos; a task reading the
// same file twice lists it once.
func (cc *chainCosts) consume(g *wfdag.Graph, p platform.Platform, f wfdag.FileID, pos int) {
	i := cc.local(g, p, f)
	cc.refs[i]++
	if cc.lastIn[i] != pos {
		cc.lastIn[i] = pos
		cc.consumed = append(cc.consumed, i)
	}
}

func (cc *chainCosts) consumedAt(pos int) []int {
	return cc.consumed[cc.consumedOff[pos]:cc.consumedOff[pos+1]]
}

func (cc *chainCosts) producedAt(pos int) []int {
	return cc.produced[cc.producedOff[pos]:cc.producedOff[pos+1]]
}

// segmentCost returns (R, W, C) for the segment of positions [i, j]
// (inclusive). It is O(size of the segment's file references); the DP
// uses segmentTable for the O(n²) bulk computation instead.
func (cc *chainCosts) segmentCost(i, j int) (r, w, c float64) {
	cc.epoch++
	for pos := i; pos <= j; pos++ {
		w += cc.weights[pos]
		for _, f := range cc.consumedAt(pos) {
			if (cc.prodPos[f] < i || cc.prodPos[f] > j) && cc.stamp[f] != cc.epoch {
				cc.stamp[f] = cc.epoch
				r += cc.fileCost[f]
			}
		}
		for _, f := range cc.producedAt(pos) {
			if cc.external[f] || cc.lastIn[f] > j {
				c += cc.fileCost[f]
			}
		}
	}
	return r, w, c
}

// spanTable holds R^j_i + W^j_i + C^j_i for all 0 <= i <= j < n, row i
// packed after rows 0..i-1.
type spanTable struct {
	n int
	v []float64
}

// at returns the span of segment [i, j].
func (t spanTable) at(i, j int) float64 { return t.v[i*t.n-i*(i-1)/2+j-i] }

// segmentTable returns the spans of every segment of the chain,
// computed incrementally in O(n · file references) ≈ O(n²). The table
// reuses the chain's buffer: it is valid until the next segmentTable or
// build.
func (cc *chainCosts) segmentTable() spanTable {
	n := cc.n
	// byLast[byLastOff[j]:byLastOff[j+1]] lists, in local order, the
	// files whose last in-chain consumer sits at position j (used to
	// drop them from C when the segment absorbs j).
	cc.byLastOff = append(cc.byLastOff[:0], make([]int, n+1)...)
	internal := func(f int) bool { return cc.lastIn[f] >= 0 && !cc.external[f] && cc.prodPos[f] >= 0 }
	for f := range cc.files {
		if internal(f) {
			cc.byLastOff[cc.lastIn[f]+1]++
		}
	}
	for j := 0; j < n; j++ {
		cc.byLastOff[j+1] += cc.byLastOff[j]
	}
	cc.byLast = append(cc.byLast[:0], make([]int, cc.byLastOff[n])...)
	for f := range cc.files {
		if internal(f) {
			j := cc.lastIn[f]
			cc.byLast[cc.byLastOff[j]] = f
			cc.byLastOff[j]++
		}
	}
	// The fill advanced each start to the next bucket's start: shift back.
	copy(cc.byLastOff[1:], cc.byLastOff[:n])
	cc.byLastOff[0] = 0

	size := n * (n + 1) / 2
	if cap(cc.span) < size {
		cc.span = make([]float64, size)
	}
	span := spanTable{n: n, v: cc.span[:size]}
	k := 0
	for i := 0; i < n; i++ {
		cc.epoch++ // stamp: counted in R for the current i
		r, w, c := 0.0, 0.0, 0.0
		for j := i; j < n; j++ {
			w += cc.weights[j]
			for _, f := range cc.consumedAt(j) {
				if cc.prodPos[f] < i && cc.stamp[f] != cc.epoch {
					// produced before the segment (or externally): read it.
					cc.stamp[f] = cc.epoch
					r += cc.fileCost[f]
				}
			}
			for _, f := range cc.producedAt(j) {
				if cc.external[f] || cc.lastIn[f] > j {
					c += cc.fileCost[f]
				}
			}
			// Files produced in [i, j) whose last consumer is j stop
			// needing a checkpoint once j joins the segment.
			for _, f := range cc.byLast[cc.byLastOff[j]:cc.byLastOff[j+1]] {
				if cc.prodPos[f] >= i && cc.prodPos[f] < j {
					c -= cc.fileCost[f]
				}
			}
			span.v[k] = r + w + c
			k++
		}
	}
	return span
}
