package ckpt

import (
	"fmt"
	"math/rand"

	"repro/internal/dist"
	"repro/internal/probdag"
)

// EvalDAG coalesces the plan's segments into the 2-state probabilistic
// DAG of §II-C: one node per segment with the Eq. (2) first-order
// duration distribution, and precedence edges from
//
//   - data dependencies between tasks of different segments,
//   - consecutive segments of the same superchain, and
//   - consecutive superchains on the same processor.
//
// The expected makespan of this DAG is the expected makespan of the
// plan (to first order in λ), computable with any probdag estimator.
func EvalDAG(p *Plan) (*probdag.Graph, error) {
	g, err := segmentDAG(p)
	if err != nil {
		return nil, err
	}
	if _, err := g.TopoOrder(); err != nil {
		return nil, fmt.Errorf("ckpt: segment DAG is cyclic: %w", err)
	}
	return g, nil
}

// segmentDAG is EvalDAG without the cycle check. Node i is segment i;
// SegmentDeps's edges, already deduplicated, are packed in one pass.
func segmentDAG(p *Plan) (*probdag.Graph, error) {
	if p.Strategy == CkptNone {
		return nil, fmt.Errorf("ckpt: CkptNone has no segment DAG; use Theorem1 or the simulator")
	}
	g, err := probdag.FromEdges(segmentLaws(p), SegmentDeps(p))
	if err != nil {
		return nil, fmt.Errorf("ckpt: segment DAG: %w", err)
	}
	return g, nil
}

// segmentLaws returns every segment's duration law, sharing one
// backing block (dist.TwoStates).
func segmentLaws(p *Plan) []*dist.Discrete {
	return dist.TwoStates(len(p.Segments), func(i int) (float64, float64, float64) {
		return p.Model.segmentLaw(p.Segments[i].Span(), p.Platform.Lambda)
	})
}

// SegmentDeps returns the precedence edges between segments (pairs of
// segment indices, deduplicated): cross-segment data dependencies,
// within-superchain sequencing, and same-processor superchain
// sequencing, each edge at the place of its first derivation in that
// order. It is shared by EvalDAG and the discrete-event simulator.
func SegmentDeps(p *Plan) [][2]int {
	wg := p.Sched.W.G
	n, nSeg, nChains := wg.NumTasks(), len(p.Segments), len(p.Sched.Chains)
	// Sequencing: prev[i] precedes segment i in its superchain and
	// next[prev[i]] = i; procNext[a] opens the superchain run after a's
	// on its processor (-1 if none).
	prev, next, procNext := filled(nSeg, -1), filled(nSeg, -1), filled(nSeg, -1)
	firstSeg, lastSeg := filled(nChains, -1), filled(nChains, -1)
	for i, seg := range p.Segments {
		if a := lastSeg[seg.Chain]; a >= 0 {
			prev[i], next[a] = a, i
		} else {
			firstSeg[seg.Chain] = i
		}
		lastSeg[seg.Chain] = i
	}
	for proc := 0; proc < p.Platform.Processors; proc++ {
		seq := p.Sched.ProcSequence(proc)
		for k := 0; k+1 < len(seq); k++ {
			if a, b := lastSeg[seq[k]], firstSeg[seq[k+1]]; a >= 0 && b >= 0 {
				procNext[a] = b
			}
		}
	}
	// Data dependencies. Candidate q = start[t]+k is the k-th successor
	// of task t, in derivation order. Per source segment a, stamp[b] ==
	// a+1 marks (a, b) as derived and first[b] keeps its earliest
	// candidate, whose slot then records b+1. Sequencing edges that
	// repeat a data dependency are flagged as duplicates.
	start := make([]int, n+1)
	for t := 0; t < n; t++ {
		start[t+1] = start[t] + len(wg.SuccTasks(taskID(t)))
	}
	slot := make([]int, start[n])
	stamp, first := make([]int, nSeg), make([]int, nSeg)
	dupNext, dupProc := make([]bool, nSeg), make([]bool, nSeg)
	var targets []int
	pairs := 0
	for a, seg := range p.Segments {
		targets = targets[:0]
		for _, t := range seg.Tasks {
			for k, s := range wg.SuccTasks(t) {
				b, q := p.segOf[s], start[t]+k
				switch {
				case b == a:
				case stamp[b] != a+1:
					stamp[b], first[b] = a+1, q
					targets = append(targets, b)
				case q < first[b]:
					first[b] = q
				}
			}
		}
		for _, b := range targets {
			slot[first[b]] = b + 1
		}
		pairs += len(targets)
		dupNext[a] = next[a] >= 0 && stamp[next[a]] == a+1
		dupProc[a] = procNext[a] >= 0 && stamp[procNext[a]] == a+1
	}
	out := make([][2]int, 0, pairs+nSeg)
	for t := 0; t < n; t++ {
		for q := start[t]; q < start[t+1]; q++ {
			if slot[q] > 0 {
				out = append(out, [2]int{p.segOf[t], slot[q] - 1})
			}
		}
	}
	// Sequencing inside a superchain, then between consecutive
	// superchains of one processor.
	for i, a := range prev {
		if a >= 0 && !dupNext[a] {
			out = append(out, [2]int{a, i})
		}
	}
	for proc := 0; proc < p.Platform.Processors; proc++ {
		seq := p.Sched.ProcSequence(proc)
		for k := 0; k+1 < len(seq); k++ {
			if a, b := lastSeg[seq[k]], firstSeg[seq[k+1]]; a >= 0 && b >= 0 && !dupProc[a] {
				out = append(out, [2]int{a, b})
			}
		}
	}
	return out
}

// filled returns a slice of n copies of v.
func filled(n, v int) []int {
	s := make([]int, n)
	for i := range s {
		s[i] = v
	}
	return s
}

// Estimator selects an expected-makespan evaluation method for segment
// DAGs.
type Estimator string

const (
	// EstPathApprox is the paper's method of choice (§VI-B).
	EstPathApprox Estimator = "PathApprox"
	// EstMonteCarlo samples the 2-state DAG (ground truth; slow).
	EstMonteCarlo Estimator = "MonteCarlo"
	// EstNormal is Sculli's normal-moment method.
	EstNormal Estimator = "Normal"
	// EstDodin is Dodin's series-parallel approximation.
	EstDodin Estimator = "Dodin"
)

// EvalOptions tunes ExpectedMakespan.
type EvalOptions struct {
	Estimator Estimator
	MCTrials  int   // Monte Carlo trials; default 10000
	MCSeed    int64 // Monte Carlo seed; default 1
	Dodin     probdag.DodinOptions
}

func (o EvalOptions) withDefaults() EvalOptions {
	if o.Estimator == "" {
		o.Estimator = EstPathApprox
	}
	if o.MCTrials == 0 {
		o.MCTrials = 10000
	}
	if o.MCSeed == 0 {
		o.MCSeed = 1
	}
	return o
}

// ExpectedMakespan estimates the plan's expected makespan. CkptNone
// plans use the Theorem 1 closed formula; the others build the segment
// DAG and apply the chosen estimator.
func ExpectedMakespan(p *Plan, opts EvalOptions) (float64, error) {
	opts = opts.withDefaults()
	if p.Strategy == CkptNone {
		return Theorem1(p.Sched, p.Platform), nil
	}
	g, err := segmentDAG(p)
	if err != nil {
		return 0, err
	}
	ev, err := probdag.NewEvaluator(g) // the one topological sort
	if err != nil {
		return 0, fmt.Errorf("ckpt: segment DAG is cyclic: %w", err)
	}
	switch opts.Estimator {
	case EstPathApprox:
		return ev.PathApprox(), nil
	case EstMonteCarlo:
		return ev.MonteCarlo(opts.MCTrials, rand.New(rand.NewSource(opts.MCSeed))).Mean, nil
	case EstNormal:
		return ev.Normal(), nil
	case EstDodin:
		return ev.Dodin(opts.Dodin)
	default:
		return 0, fmt.Errorf("ckpt: unknown estimator %q", opts.Estimator)
	}
}
