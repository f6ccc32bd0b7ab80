// Package sched implements the paper's Algorithm 1 (CkptSome's scheduling
// half): a recursive list scheduler that follows the M-SPG structure,
// allocating processors to parallel components with the proportional-
// mapping heuristic (PropMap) and linearizing every sub-M-SPG that ends
// up on a single processor into a superchain.
package sched

import (
	"fmt"
	"math/rand"
	"slices"
	"sort"

	"repro/internal/mspg"
	"repro/internal/platform"
	"repro/internal/wfdag"
)

// Superchain is a sub-M-SPG linearized on one processor: its tasks run
// sequentially in Tasks order. Entry tasks have predecessors outside the
// superchain, exit tasks have successors outside it.
type Superchain struct {
	Index int            // position in Schedule.Chains
	Proc  int            // owning processor
	Tasks []wfdag.TaskID // linearized execution order
}

// Schedule is the output of Algorithm 1: a partition of the workflow
// tasks into superchains with a processor assignment.
type Schedule struct {
	W      *mspg.Workflow
	P      platform.Platform
	Chains []*Superchain

	procOf   []int // task -> processor
	chainOf  []int // task -> superchain index
	posOf    []int // task -> position inside its superchain
	procSeq  [][]int
	assigned int
}

// newSchedule allocates bookkeeping for w on p processors.
func newSchedule(w *mspg.Workflow, p platform.Platform) *Schedule {
	n := w.G.NumTasks()
	s := &Schedule{W: w, P: p,
		procOf:  make([]int, n),
		chainOf: make([]int, n),
		posOf:   make([]int, n),
		procSeq: make([][]int, p.Processors),
	}
	for i := range s.procOf {
		s.procOf[i] = -1
		s.chainOf[i] = -1
		s.posOf[i] = -1
	}
	return s
}

// addSuperchain registers tasks (already linearized) on processor proc.
func (s *Schedule) addSuperchain(proc int, tasks []wfdag.TaskID) *Superchain {
	sc := &Superchain{Index: len(s.Chains), Proc: proc, Tasks: tasks}
	s.Chains = append(s.Chains, sc)
	s.procSeq[proc] = append(s.procSeq[proc], sc.Index)
	for pos, t := range tasks {
		s.procOf[t] = proc
		s.chainOf[t] = sc.Index
		s.posOf[t] = pos
		s.assigned++
	}
	return sc
}

// Rebuild reconstructs a Schedule from its archived shape — the
// per-superchain processor assignment and task order — without
// re-running Algorithm 1. It is the scaffold path's stage 3: a
// core.Scaffold archives exactly (proc, tasks) per superchain, and
// Rebuild re-derives every piece of private bookkeeping from that,
// then re-checks the full set of schedule invariants with Validate.
func Rebuild(w *mspg.Workflow, p platform.Platform, procs []int, chains [][]wfdag.TaskID) (*Schedule, error) {
	if len(procs) != len(chains) {
		return nil, fmt.Errorf("sched: rebuild: %d processor assignments for %d superchains", len(procs), len(chains))
	}
	s := newSchedule(w, p)
	n := w.G.NumTasks()
	for i, tasks := range chains {
		proc := procs[i]
		if proc < 0 || proc >= p.Processors {
			return nil, fmt.Errorf("sched: rebuild: superchain %d on invalid processor %d", i, proc)
		}
		for _, t := range tasks {
			if int(t) < 0 || int(t) >= n {
				return nil, fmt.Errorf("sched: rebuild: superchain %d references unknown task %d", i, t)
			}
			if s.procOf[t] != -1 {
				return nil, fmt.Errorf("sched: rebuild: task %d assigned twice", t)
			}
		}
		s.addSuperchain(proc, tasks)
	}
	if err := s.Validate(); err != nil {
		return nil, fmt.Errorf("sched: rebuild: %w", err)
	}
	return s, nil
}

// ProcSequence returns the superchain indices run by processor p, in
// temporal order.
func (s *Schedule) ProcSequence(p int) []int { return s.procSeq[p] }

// Validate checks that every task is assigned exactly once, that each
// superchain's linearization respects the internal dependencies, and
// that no dependency goes backwards within a superchain.
func (s *Schedule) Validate() error {
	n := s.W.G.NumTasks()
	if s.assigned != n {
		return fmt.Errorf("sched: %d of %d tasks assigned", s.assigned, n)
	}
	for i := 0; i < n; i++ {
		if s.procOf[i] < 0 || s.procOf[i] >= s.P.Processors {
			return fmt.Errorf("sched: task %d on invalid processor %d", i, s.procOf[i])
		}
	}
	for _, sc := range s.Chains {
		for pos, t := range sc.Tasks {
			if s.posOf[t] != pos || s.chainOf[t] != sc.Index {
				return fmt.Errorf("sched: bookkeeping mismatch for task %d", t)
			}
			for _, p := range s.W.G.PredTasks(t) {
				if s.chainOf[p] == sc.Index && s.posOf[p] >= pos {
					return fmt.Errorf("sched: superchain %d violates dependency %d->%d", sc.Index, p, t)
				}
			}
		}
	}
	return nil
}

// LinearOrder returns, for processor p, the concatenation of its
// superchains' task lists in temporal order.
func (s *Schedule) LinearOrder(p int) []wfdag.TaskID {
	var out []wfdag.TaskID
	for _, ci := range s.procSeq[p] {
		out = append(out, s.Chains[ci].Tasks...)
	}
	return out
}

// MakespanWith simulates the failure-free schedule using duration[t] as
// the execution time of task t (the caller folds in whatever I/O costs
// its strategy implies). Tasks run in superchain order on each processor
// and wait for their dependencies; the returned value is the time at
// which the last task completes.
func (s *Schedule) MakespanWith(duration []float64) float64 {
	g := s.W.G
	finish := make([]float64, g.NumTasks())
	for i := range finish {
		finish[i] = -1
	}
	// Process tasks in a global topological order consistent with both
	// dependencies and per-processor sequencing; iterate until fixed
	// point over processor queues (simple list simulation).
	type cursor struct {
		order []wfdag.TaskID
		next  int
		clock float64
	}
	cursors := make([]cursor, s.P.Processors)
	for p := range cursors {
		cursors[p].order = s.LinearOrder(p)
	}
	remaining := g.NumTasks()
	for remaining > 0 {
		progressed := false
		for p := range cursors {
			c := &cursors[p]
			for c.next < len(c.order) {
				t := c.order[c.next]
				ready := c.clock
				ok := true
				for _, pr := range g.PredTasks(t) {
					if finish[pr] < 0 {
						ok = false
						break
					}
					if finish[pr] > ready {
						ready = finish[pr]
					}
				}
				if !ok {
					break
				}
				finish[t] = ready + duration[t]
				c.clock = finish[t]
				c.next++
				remaining--
				progressed = true
			}
		}
		if !progressed {
			// A dependency cycle through processor orders: impossible for
			// valid M-SPG schedules; signal with NaN-free sentinel.
			panic("sched: schedule deadlock (invalid linearization)")
		}
	}
	max := 0.0
	for _, f := range finish {
		if f > max {
			max = f
		}
	}
	return max
}

// FailureFreeMakespan returns the schedule length when every task costs
// exactly its weight (no I/O, no failures): the paper's W_par used by the
// CkptNone estimate (Theorem 1).
func (s *Schedule) FailureFreeMakespan() float64 {
	g := s.W.G
	d := make([]float64, g.NumTasks())
	for i := range d {
		d[i] = g.Task(wfdag.TaskID(i)).Weight
	}
	return s.MakespanWith(d)
}

// String summarizes the schedule.
func (s *Schedule) String() string {
	return fmt.Sprintf("sched.Schedule{superchains: %d, procs: %d, tasks: %d}",
		len(s.Chains), s.P.Processors, s.W.G.NumTasks())
}

// Linearizer chooses a topological order for the tasks of a sub-M-SPG
// placed on one processor.
type Linearizer func(g *wfdag.Graph, node *mspg.Node, rng *rand.Rand) []wfdag.TaskID

// RandomLinearizer is the paper's OnOneProcessor behaviour: a uniformly
// random topological sort of the sub-graph.
func RandomLinearizer(g *wfdag.Graph, node *mspg.Node, rng *rand.Rand) []wfdag.TaskID {
	return topoWithin(g, node.Tasks(), func(ready []wfdag.TaskID) wfdag.TaskID {
		return ready[rng.Intn(len(ready))]
	})
}

// DeterministicLinearizer picks the smallest ready task ID first;
// reproducible independently of the RNG.
func DeterministicLinearizer(g *wfdag.Graph, node *mspg.Node, rng *rand.Rand) []wfdag.TaskID {
	return topoWithin(g, node.Tasks(), func(ready []wfdag.TaskID) wfdag.TaskID {
		return ready[0]
	})
}

// MinLiveFilesLinearizer greedily picks the ready task minimizing the
// volume of live output data (an inexpensive heuristic for the sum-cut
// problem the paper's §VIII points at): among ready tasks it chooses the
// one whose execution releases the most input bytes net of the output
// bytes it creates, breaking ties by ID.
func MinLiveFilesLinearizer(g *wfdag.Graph, node *mspg.Node, rng *rand.Rand) []wfdag.TaskID {
	tasks := node.Tasks()
	in := make(map[wfdag.TaskID]bool, len(tasks))
	for _, t := range tasks {
		in[t] = true
	}
	// remainingConsumers[f] counts unexecuted in-set consumers of file f.
	remaining := make(map[wfdag.FileID]int)
	for _, t := range tasks {
		for _, e := range g.Pred(t) {
			if in[e.From] {
				remaining[e.File]++
			}
		}
	}
	score := func(t wfdag.TaskID) float64 {
		released := 0.0
		for _, e := range g.Pred(t) {
			if in[e.From] && remaining[e.File] == 1 {
				released += g.File(e.File).Size
			}
		}
		created := 0.0
		seen := make(map[wfdag.FileID]bool)
		for _, e := range g.Succ(t) {
			if !seen[e.File] {
				seen[e.File] = true
				created += g.File(e.File).Size
			}
		}
		return created - released // lower is better
	}
	return topoWithin(g, tasks, func(ready []wfdag.TaskID) wfdag.TaskID {
		best := ready[0]
		bestScore := score(best)
		for _, t := range ready[1:] {
			if sc := score(t); sc < bestScore {
				best, bestScore = t, sc
			}
		}
		for _, e := range g.Pred(best) {
			if in[e.From] {
				remaining[e.File]--
			}
		}
		return best
	})
}

// topoWithin runs Kahn's algorithm restricted to the given task set,
// delegating the choice among ready tasks to pick. The ready slice is
// kept sorted ascending. It sorts tasks in place, so callers pass a
// slice they own; membership in the set is then a binary search, and
// the sorted positions index the in-degrees.
func topoWithin(g *wfdag.Graph, tasks []wfdag.TaskID, pick func([]wfdag.TaskID) wfdag.TaskID) []wfdag.TaskID {
	slices.Sort(tasks)
	indeg := make([]int, len(tasks))
	var ready []wfdag.TaskID
	for i, t := range tasks {
		for _, p := range g.PredTasks(t) {
			if _, in := slices.BinarySearch(tasks, p); in {
				indeg[i]++
			}
		}
		if indeg[i] == 0 {
			ready = append(ready, t) // ascending, as tasks is
		}
	}
	out := make([]wfdag.TaskID, 0, len(tasks))
	for len(ready) > 0 {
		t := pick(ready)
		for i, r := range ready {
			if r == t {
				ready = append(ready[:i], ready[i+1:]...)
				break
			}
		}
		out = append(out, t)
		for _, sc := range g.SuccTasks(t) {
			i, in := slices.BinarySearch(tasks, sc)
			if !in {
				continue
			}
			indeg[i]--
			if indeg[i] == 0 {
				pos := sort.Search(len(ready), func(i int) bool { return ready[i] >= sc })
				ready = append(ready, 0)
				copy(ready[pos+1:], ready[pos:])
				ready[pos] = sc
			}
		}
	}
	return out
}
