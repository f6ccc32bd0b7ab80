package ckpt

// This file is the map-based chain-cost bookkeeping as it stood before
// the cost tables were built once per superchain on graph-sized scratch
// arrays, kept as the differential reference of costs_diff_test.go. It
// is the historical code with only the names changed: newRefChainCosts
// rebuilds the table per call and scans every file of the graph per
// task, segmentCost dedupes through a map per segment, the span table is
// one row allocation per position, and refSegmentDeps dedupes its edges
// through maps. refPlan replays the historical BuildPlanWith and
// PeriodicPlan on top of them.

import (
	"repro/internal/platform"
	"repro/internal/sched"
	"repro/internal/wfdag"
)

type refChainCosts struct {
	n          int
	weights    []float64
	fileCost   []float64
	prodPos    []int
	lastIn     []int
	external   []bool
	consumedAt [][]int
	producedAt [][]int
}

// refProducedFiles is the historical Graph.ProducedFiles: a scan of
// every file of the graph.
func refProducedFiles(g *wfdag.Graph, t wfdag.TaskID) []wfdag.FileID {
	var out []wfdag.FileID
	for i := range g.NumFiles() {
		f := g.File(wfdag.FileID(i))
		if f.Producer == t {
			out = append(out, f.ID)
		}
	}
	return out
}

func newRefChainCosts(s *sched.Schedule, p platform.Platform, sc *sched.Superchain) *refChainCosts {
	g := s.W.G
	n := len(sc.Tasks)
	cc := &refChainCosts{
		n:          n,
		weights:    make([]float64, n),
		consumedAt: make([][]int, n),
		producedAt: make([][]int, n),
	}
	posOf := make(map[wfdag.TaskID]int, n)
	for pos, t := range sc.Tasks {
		posOf[t] = pos
		cc.weights[pos] = g.Task(t).Weight
	}
	fileIdx := make(map[wfdag.FileID]int)
	local := func(f wfdag.FileID) int {
		if i, ok := fileIdx[f]; ok {
			return i
		}
		i := len(cc.fileCost)
		fileIdx[f] = i
		cc.fileCost = append(cc.fileCost, p.FileCost(g, f))
		cc.prodPos = append(cc.prodPos, -1)
		cc.lastIn = append(cc.lastIn, -1)
		cc.external = append(cc.external, false)
		return i
	}
	for pos, t := range sc.Tasks {
		seen := make(map[wfdag.FileID]bool)
		for _, e := range g.Pred(t) {
			if !seen[e.File] {
				seen[e.File] = true
				cc.consumedAt[pos] = append(cc.consumedAt[pos], local(e.File))
			}
		}
		for _, f := range g.InputFiles(t) {
			if !seen[f] {
				seen[f] = true
				cc.consumedAt[pos] = append(cc.consumedAt[pos], local(f))
			}
		}
		for _, f := range refProducedFiles(g, t) {
			cc.producedAt[pos] = append(cc.producedAt[pos], local(f))
		}
	}
	// Every entry writes only its own indexed slot, so the map's visit
	// order cannot reach the result.
	for f, i := range fileIdx {
		file := g.File(f)
		if file.Producer != wfdag.NoTask {
			if pp, ok := posOf[file.Producer]; ok {
				cc.prodPos[i] = pp
			}
		}
		consumers := g.Consumers(f)
		if len(consumers) == 0 {
			cc.external[i] = true
		}
		for _, c := range consumers {
			if cp, ok := posOf[c]; ok {
				if cp > cc.lastIn[i] {
					cc.lastIn[i] = cp
				}
			} else {
				cc.external[i] = true
			}
		}
	}
	return cc
}

func (cc *refChainCosts) segmentCost(i, j int) (r, w, c float64) {
	seenR := make(map[int]bool)
	for pos := i; pos <= j; pos++ {
		w += cc.weights[pos]
		for _, f := range cc.consumedAt[pos] {
			if (cc.prodPos[f] < i || cc.prodPos[f] > j) && !seenR[f] {
				seenR[f] = true
				r += cc.fileCost[f]
			}
		}
		for _, f := range cc.producedAt[pos] {
			if cc.external[f] || cc.lastIn[f] > j {
				c += cc.fileCost[f]
			}
		}
	}
	return r, w, c
}

func (cc *refChainCosts) segmentTable() [][]float64 {
	n := cc.n
	span := make([][]float64, n)
	filesByLastIn := make([][]int, n)
	for f := 0; f < len(cc.fileCost); f++ {
		if cc.lastIn[f] >= 0 && !cc.external[f] && cc.prodPos[f] >= 0 {
			filesByLastIn[cc.lastIn[f]] = append(filesByLastIn[cc.lastIn[f]], f)
		}
	}
	inR := make([]int, len(cc.fileCost))
	epoch := 0
	for i := 0; i < n; i++ {
		epoch++
		span[i] = make([]float64, n-i)
		r, w, c := 0.0, 0.0, 0.0
		for j := i; j < n; j++ {
			w += cc.weights[j]
			for _, f := range cc.consumedAt[j] {
				if cc.prodPos[f] < i && inR[f] != epoch {
					inR[f] = epoch
					r += cc.fileCost[f]
				}
			}
			for _, f := range cc.producedAt[j] {
				if cc.external[f] || cc.lastIn[f] > j {
					c += cc.fileCost[f]
				}
			}
			for _, f := range filesByLastIn[j] {
				if cc.prodPos[f] >= i && cc.prodPos[f] < j {
					c -= cc.fileCost[f]
				}
			}
			span[i][j-i] = r + w + c
		}
	}
	return span
}

// refOptimalCheckpoints is Algorithm 2 over the reference span table.
func refOptimalCheckpoints(cc *refChainCosts, lambda float64, model CostModel) ChainDP {
	n := cc.n
	if n == 0 {
		return ChainDP{}
	}
	span := cc.segmentTable()
	T := func(i, j int) float64 {
		return model.ExpectedTime(span[i][j-i], lambda)
	}
	etime := make([]float64, n)
	lastCkpt := make([]int, n)
	for j := 0; j < n; j++ {
		etime[j] = T(0, j)
		lastCkpt[j] = -1
		for i := 0; i < j; i++ {
			if cand := etime[i] + T(i+1, j); cand < etime[j] {
				etime[j] = cand
				lastCkpt[j] = i
			}
		}
	}
	out := ChainDP{CheckpointAfter: make([]bool, n), ExpectedTime: etime[n-1]}
	for j := n - 1; j >= 0; j = lastCkpt[j] {
		out.CheckpointAfter[j] = true
	}
	return out
}

// refPlan replays the historical planners: CkptSome runs the reference
// Algorithm 2 on every superchain, CkptAll and ExitOnly set their marks,
// and period > 0 makes a Periodic(period) plan. Segments are then cut by
// the historical buildSegments, which rebuilds each chain's cost table.
func refPlan(s *sched.Schedule, p platform.Platform, strat Strategy, model CostModel, period int) *Plan {
	n := s.W.G.NumTasks()
	plan := &Plan{Strategy: strat, Sched: s, Platform: p, Model: model,
		CheckpointAfter: make([]bool, n), segOf: make([]int, n)}
	for i := range plan.segOf {
		plan.segOf[i] = -1
	}
	switch {
	case period > 0:
		for _, sc := range s.Chains {
			for pos, t := range sc.Tasks {
				if (pos+1)%period == 0 || pos == len(sc.Tasks)-1 {
					plan.CheckpointAfter[t] = true
				}
			}
		}
	case strat == CkptAll:
		for i := range plan.CheckpointAfter {
			plan.CheckpointAfter[i] = true
		}
	case strat == ExitOnly:
		for _, sc := range s.Chains {
			if len(sc.Tasks) > 0 {
				plan.CheckpointAfter[sc.Tasks[len(sc.Tasks)-1]] = true
			}
		}
	case strat == CkptSome:
		for _, sc := range s.Chains {
			dp := refOptimalCheckpoints(newRefChainCosts(s, p, sc), p.Lambda, model)
			for pos, ck := range dp.CheckpointAfter {
				if ck {
					plan.CheckpointAfter[sc.Tasks[pos]] = true
				}
			}
		}
	}
	for ci, sc := range s.Chains {
		if len(sc.Tasks) == 0 {
			continue
		}
		cc := newRefChainCosts(s, p, sc)
		ckAfter := make([]bool, len(sc.Tasks))
		for pos, t := range sc.Tasks {
			ckAfter[pos] = plan.CheckpointAfter[t]
		}
		ckAfter[len(sc.Tasks)-1] = true
		plan.CheckpointAfter[sc.Tasks[len(sc.Tasks)-1]] = true
		for _, segPos := range SegmentsOf(ckAfter) {
			i, j := segPos[0], segPos[1]
			r, w, c := cc.segmentCost(i, j)
			seg := Segment{Index: len(plan.Segments), Chain: ci, Proc: sc.Proc,
				Tasks: sc.Tasks[i : j+1], R: r, W: w, C: c}
			for _, t := range seg.Tasks {
				plan.segOf[t] = seg.Index
			}
			plan.Segments = append(plan.Segments, seg)
		}
	}
	return plan
}

func refSegmentDeps(p *Plan) [][2]int {
	seen := make(map[[2]int]bool)
	var out [][2]int
	add := func(a, b int) {
		e := [2]int{a, b}
		if a != b && !seen[e] {
			seen[e] = true
			out = append(out, e)
		}
	}
	wg := p.Sched.W.G
	for i := 0; i < wg.NumTasks(); i++ {
		from := p.segOf[i]
		for _, s := range wg.SuccTasks(taskID(i)) {
			add(from, p.segOf[s])
		}
	}
	prevByChain := make(map[int]int)
	for i, seg := range p.Segments {
		if prev, ok := prevByChain[seg.Chain]; ok {
			add(prev, i)
		}
		prevByChain[seg.Chain] = i
	}
	firstSeg := make(map[int]int)
	lastSeg := make(map[int]int)
	for i, seg := range p.Segments {
		if _, ok := firstSeg[seg.Chain]; !ok {
			firstSeg[seg.Chain] = i
		}
		lastSeg[seg.Chain] = i
	}
	for proc := 0; proc < p.Platform.Processors; proc++ {
		seq := p.Sched.ProcSequence(proc)
		for k := 0; k+1 < len(seq); k++ {
			a, aok := lastSeg[seq[k]]
			b, bok := firstSeg[seq[k+1]]
			if aok && bok {
				add(a, b)
			}
		}
	}
	return out
}
