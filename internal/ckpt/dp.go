package ckpt

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

// optimalCheckpointsFromCosts runs the paper's Algorithm 2 (the O(n²)
// dynamic program) on one superchain's cost table: it chooses the
// checkpoint positions minimizing the expected execution time of the
// superchain under the cost model, with a mandatory checkpoint after
// the last task. Under the first-order model T(i, j) is the Eq. (2)
// expected time of the segment [i, j]:
//
//	T(i,j) = (1 − λ·S)·S + λ·S·(3/2)·S,  S = R^j_i + W^j_i + C^j_i.
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
