package ckpt

import (
	"repro/internal/platform"
	"repro/internal/sched"
)

// ChainDP is the result of Algorithm 2 on one superchain.
type ChainDP struct {
	// CheckpointAfter[pos] is true when a checkpoint is taken right
	// after the task at this position of the superchain completes. The
	// last position is always checkpointed (crossover-dependency
	// avoidance).
	CheckpointAfter []bool
	// ExpectedTime is ETime(b): the optimal expected time to execute the
	// whole superchain, first-order model.
	ExpectedTime float64
}

// OptimalCheckpoints runs the paper's Algorithm 2 (the O(n²) dynamic
// program) on superchain sc: it chooses the checkpoint positions
// minimizing the expected execution time of the superchain under the
// first-order failure model, with a mandatory checkpoint after the last
// task. T(i, j) is the Eq. (2) expected time of the segment [i, j]:
//
//	T(i,j) = (1 − λ·S)·S + λ·S·(3/2)·S,  S = R^j_i + W^j_i + C^j_i.
func OptimalCheckpoints(s *sched.Schedule, p platform.Platform, sc *sched.Superchain) ChainDP {
	return OptimalCheckpointsModel(s, p, sc, ModelFirstOrder)
}

// OptimalCheckpointsModel is OptimalCheckpoints with an explicit segment
// cost model (ModelFirstOrder reproduces the paper; ModelExact accounts
// for multiple successive failures).
func OptimalCheckpointsModel(s *sched.Schedule, p platform.Platform, sc *sched.Superchain, model CostModel) ChainDP {
	cc := newChainCosts(s, p, sc)
	return optimalCheckpointsFromCosts(cc, p.Lambda, model)
}

func optimalCheckpointsFromCosts(cc *chainCosts, lambda float64, model CostModel) ChainDP {
	n := cc.n
	if n == 0 {
		return ChainDP{}
	}
	span := cc.segmentTable()
	T := func(i, j int) float64 { // expected time of segment [i, j]
		return model.ExpectedTime(span.at(i, j), lambda)
	}
	etime := make([]float64, n)
	lastCkpt := make([]int, n) // index of previous checkpointed position, -1 if none
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

// SegmentsOf splits positions 0..n-1 into maximal runs ending at a
// checkpointed position. checkpointAfter[n-1] must be true.
func SegmentsOf(checkpointAfter []bool) [][2]int {
	var out [][2]int
	start := 0
	for pos, ck := range checkpointAfter {
		if ck {
			out = append(out, [2]int{start, pos})
			start = pos + 1
		}
	}
	return out
}

// ExpectedChainTime returns the first-order expected execution time of a
// superchain for a given checkpoint placement (not necessarily optimal):
// the sum over segments of T(i, j). Used by tests and ablations.
func ExpectedChainTime(cc *chainCosts, lambda float64, checkpointAfter []bool) float64 {
	return ExpectedChainTimeModel(cc, lambda, ModelFirstOrder, checkpointAfter)
}

// ExpectedChainTimeModel is ExpectedChainTime under an explicit cost
// model.
func ExpectedChainTimeModel(cc *chainCosts, lambda float64, model CostModel, checkpointAfter []bool) float64 {
	total := 0.0
	for _, seg := range SegmentsOf(checkpointAfter) {
		total += model.ExpectedTime(segSpan(cc, seg[0], seg[1]), lambda)
	}
	return total
}

func segSpan(cc *chainCosts, i, j int) float64 {
	r, w, c := cc.segmentCost(i, j)
	return r + w + c
}
