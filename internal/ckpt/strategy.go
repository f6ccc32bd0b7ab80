package ckpt

import (
	"fmt"

	"repro/internal/platform"
	"repro/internal/sched"
	"repro/internal/wfdag"
)

// Strategy names a checkpointing policy.
type Strategy string

const (
	// CkptAll checkpoints every task (the de-facto standard of
	// production WMSs: every output is written to storage, every input
	// read back from it).
	CkptAll Strategy = "CkptAll"
	// CkptSome is the paper's contribution: optimal checkpoints inside
	// each superchain (Algorithm 2), exit tasks always covered.
	CkptSome Strategy = "CkptSome"
	// CkptNone never checkpoints; a failure restarts the whole run.
	CkptNone Strategy = "CkptNone"
	// ExitOnly checkpoints only at the end of each superchain (the
	// "naive solution" of §II-C used as an ablation).
	ExitOnly Strategy = "ExitOnly"
)

// Segment is a maximal run of superchain tasks between two checkpoints,
// coalesced into one node of the 2-state evaluation DAG.
type Segment struct {
	Index int
	Chain int // superchain index in the schedule
	Proc  int
	Tasks []wfdag.TaskID // contiguous slice of the superchain order
	R     float64        // storage-read time on (re-)start
	W     float64        // compute time
	C     float64        // checkpoint-write time at the end
}

// Span returns R+W+C, the failure-free duration of the segment.
func (s Segment) Span() float64 { return s.R + s.W + s.C }

// Plan is a complete solution: a schedule plus checkpoint decisions,
// cut into segments.
type Plan struct {
	Strategy Strategy
	Sched    *sched.Schedule
	Platform platform.Platform
	// Model is the segment cost model used for both the DP decisions
	// and the evaluation DAG (default ModelFirstOrder, the paper's).
	Model CostModel
	// CheckpointAfter[t] is true when a checkpoint is taken right after
	// task t (meaningless for CkptNone).
	CheckpointAfter []bool
	Segments        []Segment
	segOf           []int // task -> segment index, -1 for CkptNone
}

// NumCheckpoints returns how many tasks are followed by a checkpoint.
func (p *Plan) NumCheckpoints() int {
	n := 0
	for _, b := range p.CheckpointAfter {
		if b {
			n++
		}
	}
	return n
}

// BuildPlanWith applies a strategy to a schedule under a segment cost
// model. For CkptSome it runs Algorithm 2 on every superchain; for
// CkptAll it checkpoints after every task; for ExitOnly it checkpoints
// only superchain ends; for CkptNone no segments are built (evaluation
// goes through Theorem 1). It builds each superchain's cost table once:
// under CkptSome the table feeds Algorithm 2 and then cuts the segments
// of the marks it placed.
func BuildPlanWith(s *sched.Schedule, p platform.Platform, strat Strategy, model CostModel) (*Plan, error) {
	n := s.W.G.NumTasks()
	plan := &Plan{
		Strategy:        strat,
		Sched:           s,
		Platform:        p,
		Model:           model,
		CheckpointAfter: make([]bool, n),
		segOf:           make([]int, n),
	}
	for i := range plan.segOf {
		plan.segOf[i] = -1
	}
	switch strat {
	case CkptNone:
		return plan, nil
	case CkptAll:
		for i := range plan.CheckpointAfter {
			plan.CheckpointAfter[i] = true
		}
	case ExitOnly:
		for _, sc := range s.Chains {
			if len(sc.Tasks) > 0 {
				plan.CheckpointAfter[sc.Tasks[len(sc.Tasks)-1]] = true
			}
		}
	case CkptSome:
		// buildSegments places the marks chain by chain (Algorithm 2).
	default:
		return nil, fmt.Errorf("ckpt: unknown strategy %q", strat)
	}
	plan.buildSegments(strat == CkptSome)
	return plan, nil
}

// PeriodicPlan checkpoints after every k-th task of each superchain (and
// always after the last). It is an ablation baseline for Algorithm 2.
func PeriodicPlan(s *sched.Schedule, p platform.Platform, k int) (*Plan, error) {
	if k < 1 {
		return nil, fmt.Errorf("ckpt: period must be >= 1, got %d", k)
	}
	n := s.W.G.NumTasks()
	plan := &Plan{
		Strategy:        Strategy(fmt.Sprintf("Periodic(%d)", k)),
		Sched:           s,
		Platform:        p,
		CheckpointAfter: make([]bool, n),
		segOf:           make([]int, n),
	}
	for i := range plan.segOf {
		plan.segOf[i] = -1
	}
	for _, sc := range s.Chains {
		for pos, t := range sc.Tasks {
			if (pos+1)%k == 0 || pos == len(sc.Tasks)-1 {
				plan.CheckpointAfter[t] = true
			}
		}
	}
	plan.buildSegments(false)
	return plan, nil
}

// buildSegments cuts every superchain at its checkpointed positions and
// computes each segment's R/W/C costs. Each chain's cost table is built
// once, reusing the previous chain's buffers; with place set it first
// runs Algorithm 2 on that table and marks the checkpoints it chooses.
func (p *Plan) buildSegments(place bool) {
	var cc chainCosts
	for ci, sc := range p.Sched.Chains {
		if len(sc.Tasks) == 0 {
			continue
		}
		cc.build(p.Sched, p.Platform, sc)
		if place {
			dp := optimalCheckpointsFromCosts(&cc, p.Platform.Lambda, p.Model)
			for pos, ck := range dp.CheckpointAfter {
				if ck {
					p.CheckpointAfter[sc.Tasks[pos]] = true
				}
			}
		}
		// The paper always checkpoints the end of a superchain.
		p.CheckpointAfter[sc.Tasks[len(sc.Tasks)-1]] = true
		start := 0
		for pos, t := range sc.Tasks {
			if !p.CheckpointAfter[t] {
				continue
			}
			r, w, c := cc.segmentCost(start, pos)
			seg := Segment{
				Index: len(p.Segments),
				Chain: ci,
				Proc:  sc.Proc,
				Tasks: sc.Tasks[start : pos+1],
				R:     r, W: w, C: c,
			}
			for _, t := range seg.Tasks {
				p.segOf[t] = seg.Index
			}
			p.Segments = append(p.Segments, seg)
			start = pos + 1
		}
	}
}

// Validate checks segment bookkeeping: every task in exactly one segment
// (except under CkptNone), contiguity within superchains, and
// non-negative costs.
func (p *Plan) Validate() error {
	if p.Strategy == CkptNone {
		return nil
	}
	n := p.Sched.W.G.NumTasks()
	count := make([]int, n)
	for _, seg := range p.Segments {
		if seg.R < 0 || seg.W < 0 || seg.C < 0 {
			return fmt.Errorf("ckpt: segment %d has negative cost (R=%g W=%g C=%g)", seg.Index, seg.R, seg.W, seg.C)
		}
		for _, t := range seg.Tasks {
			count[t]++
			if p.segOf[t] != seg.Index {
				return fmt.Errorf("ckpt: task %d segment index mismatch", t)
			}
		}
		last := seg.Tasks[len(seg.Tasks)-1]
		if !p.CheckpointAfter[last] {
			return fmt.Errorf("ckpt: segment %d does not end at a checkpoint", seg.Index)
		}
	}
	for t, c := range count {
		if c != 1 {
			return fmt.Errorf("ckpt: task %d appears in %d segments", t, c)
		}
	}
	return nil
}
