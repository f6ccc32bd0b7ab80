// Package wfdag provides the workflow substrate used throughout the
// repository: weighted task graphs (Directed Acyclic Graphs) whose edges
// carry data files, together with the graph algorithms the scheduling and
// checkpointing layers rely on (topological sorts, weak components,
// longest paths, reachability, transitive reduction and validation).
//
// # Conventions
//
// Tasks are identified by dense TaskIDs 0..N-1 and carry a weight, the
// failure-free execution time in seconds. Files are identified by dense
// FileIDs and carry a size in bytes; a file has a single producer task
// (or none, for workflow inputs) and any number of consumers. A
// dependency edge (u, v, f) states that task v needs file f produced by
// task u before it can start. Several edges may share the same file:
// checkpoint cost accounting deduplicates by FileID, matching the paper's
// remark that a file feeding two successors is saved only once.
package wfdag

import (
	"fmt"
	"slices"
	"sync/atomic"
)

// TaskID identifies a task within a Graph. IDs are dense: 0..NumTasks-1.
type TaskID int

// FileID identifies a data file within a Graph. IDs are dense.
type FileID int

// NoTask is the producer recorded for workflow input files, which exist
// before the execution starts.
const NoTask TaskID = -1

// Task is a sequential workflow task.
type Task struct {
	ID     TaskID
	Name   string
	Kind   string  // task type from the generator, e.g. "mProject"
	Weight float64 // failure-free execution time in seconds
}

// File is a datum exchanged between tasks (or a workflow input/output).
type File struct {
	ID       FileID
	Name     string
	Size     float64 // bytes
	Producer TaskID  // NoTask for workflow inputs
}

// Edge is a data dependency: To consumes file File produced by From.
type Edge struct {
	From TaskID
	To   TaskID
	File FileID
}

// Graph is a mutable workflow DAG. The zero value is an empty graph
// ready to use.
//
// The adjacency accessors (ProducedFiles, PredTasks, SuccTasks, Succ,
// Pred, InputFiles, Consumers) return slices the graph shares with
// every caller and with its clones: they are read-only, and the
// mutators only append to them. ProducedFiles, PredTasks and SuccTasks
// read a derived index built on first use and dropped by AddTask,
// AddFile and AddDependency; Clone shares it by pointer, so a graph and
// all its clones hold one copy.
type Graph struct {
	tasks []Task
	files []File
	succ  [][]Edge // outgoing edges, indexed by TaskID
	pred  [][]Edge // incoming edges, indexed by TaskID

	// inputs[t] lists workflow input files (Producer == NoTask) read by t.
	inputs [][]FileID
	// consumers[f] lists the tasks that read file f.
	consumers [][]TaskID

	adj atomic.Pointer[adjacency] // nil until first read after a mutation
}

// adjacency is the derived, immutable index behind ProducedFiles,
// PredTasks and SuccTasks.
type adjacency struct {
	produced  packedLists[FileID] // files produced by each task, in FileID order
	predTasks packedLists[TaskID] // distinct predecessors of each task, ascending
	succTasks packedLists[TaskID] // distinct successors of each task, ascending
}

// packedLists stores list i at flat[off[i]:off[i+1]]: two allocations
// per table and 4 bytes per list.
type packedLists[T any] struct {
	off  []int32
	flat []T
}

// at returns list i, capped so that an append cannot reach list i+1.
func (l packedLists[T]) at(i int) []T {
	lo, hi := l.off[i], l.off[i+1]
	return l.flat[lo:hi:hi]
}

// New returns an empty graph.
func New() *Graph { return &Graph{} }

// AddTask appends a task and returns its ID. The weight must be
// non-negative; invalid weights are reported by Validate.
func (g *Graph) AddTask(name, kind string, weight float64) TaskID {
	g.adj.Store(nil)
	id := TaskID(len(g.tasks))
	g.tasks = append(g.tasks, Task{ID: id, Name: name, Kind: kind, Weight: weight})
	g.succ = append(g.succ, nil)
	g.pred = append(g.pred, nil)
	g.inputs = append(g.inputs, nil)
	return id
}

// AddFile registers a file of the given size produced by producer
// (NoTask for a workflow input) and returns its ID.
func (g *Graph) AddFile(name string, size float64, producer TaskID) FileID {
	g.adj.Store(nil)
	id := FileID(len(g.files))
	g.files = append(g.files, File{ID: id, Name: name, Size: size, Producer: producer})
	g.consumers = append(g.consumers, nil)
	return id
}

// AddDependency records that task "to" consumes file f. If the file has a
// producer task, a dependency edge producer->to is added; if the file is a
// workflow input, the read is recorded without an edge.
func (g *Graph) AddDependency(to TaskID, f FileID) {
	g.adj.Store(nil)
	file := g.files[f]
	g.consumers[f] = append(g.consumers[f], to)
	if file.Producer == NoTask {
		g.inputs[to] = append(g.inputs[to], f)
		return
	}
	e := Edge{From: file.Producer, To: to, File: f}
	g.succ[file.Producer] = append(g.succ[file.Producer], e)
	g.pred[to] = append(g.pred[to], e)
}

// Connect is a convenience that creates a fresh file of the given size
// produced by from and consumed by to, returning the new FileID.
func (g *Graph) Connect(from, to TaskID, name string, size float64) FileID {
	f := g.AddFile(name, size, from)
	g.AddDependency(to, f)
	return f
}

// NumTasks returns the number of tasks.
func (g *Graph) NumTasks() int { return len(g.tasks) }

// NumFiles returns the number of registered files.
func (g *Graph) NumFiles() int { return len(g.files) }

// NumEdges returns the number of dependency edges.
func (g *Graph) NumEdges() int {
	n := 0
	for _, es := range g.succ {
		n += len(es)
	}
	return n
}

// Task returns the task with the given ID.
func (g *Graph) Task(id TaskID) Task { return g.tasks[id] }

// File returns the file with the given ID.
func (g *Graph) File(id FileID) File { return g.files[id] }

// Tasks returns a copy of the task slice.
func (g *Graph) Tasks() []Task {
	out := make([]Task, len(g.tasks))
	copy(out, g.tasks)
	return out
}

// Files returns a copy of the file slice.
func (g *Graph) Files() []File {
	out := make([]File, len(g.files))
	copy(out, g.files)
	return out
}

// Succ returns the outgoing edges of t (shared, read-only).
func (g *Graph) Succ(t TaskID) []Edge { return g.succ[t] }

// Pred returns the incoming edges of t (shared, read-only).
func (g *Graph) Pred(t TaskID) []Edge { return g.pred[t] }

// InputFiles returns the workflow input files read by t (shared,
// read-only).
func (g *Graph) InputFiles(t TaskID) []FileID { return g.inputs[t] }

// Consumers returns the tasks that read file f (shared, read-only).
func (g *Graph) Consumers(f FileID) []TaskID { return g.consumers[f] }

// OutputFiles returns, for task t, the files it produces that have no
// consumer: these are workflow outputs that any execution must persist.
func (g *Graph) OutputFiles(t TaskID) []FileID {
	var out []FileID
	for _, f := range g.index().produced.at(int(t)) {
		if len(g.consumers[f]) == 0 {
			out = append(out, f)
		}
	}
	return out
}

// ProducedFiles returns every file produced by t (with or without
// consumers), in FileID order (shared, read-only).
func (g *Graph) ProducedFiles(t TaskID) []FileID { return g.index().produced.at(int(t)) }

// SuccTasks returns the distinct successor tasks of t in ascending ID
// order (shared, read-only).
func (g *Graph) SuccTasks(t TaskID) []TaskID { return g.index().succTasks.at(int(t)) }

// PredTasks returns the distinct predecessor tasks of t in ascending ID
// order (shared, read-only).
func (g *Graph) PredTasks(t TaskID) []TaskID { return g.index().predTasks.at(int(t)) }

// index returns the adjacency index, building it on first use. Readers
// racing on an unindexed graph may each build one; the first published
// wins and every reader returns it.
func (g *Graph) index() *adjacency {
	if a := g.adj.Load(); a != nil {
		return a
	}
	n := len(g.tasks)
	a := &adjacency{
		produced:  packedLists[FileID]{off: make([]int32, n+1)},
		predTasks: dedupTasks(g.pred, func(e Edge) TaskID { return e.From }),
		succTasks: dedupTasks(g.succ, func(e Edge) TaskID { return e.To }),
	}
	// Counting sort of the produced files by producer, stable in FileID
	// order.
	off := a.produced.off
	for _, f := range g.files {
		if f.Producer != NoTask {
			off[f.Producer+1]++
		}
	}
	for t := 0; t < n; t++ {
		off[t+1] += off[t]
	}
	a.produced.flat = make([]FileID, off[n])
	next := append([]int32(nil), off[:n]...)
	for _, f := range g.files {
		if f.Producer != NoTask {
			a.produced.flat[next[f.Producer]] = f.ID
			next[f.Producer]++
		}
	}
	if !g.adj.CompareAndSwap(nil, a) {
		return g.adj.Load()
	}
	return a
}

// dedupTasks packs, per task, the distinct key(e) over its edge list in
// ascending order.
func dedupTasks(adj [][]Edge, key func(Edge) TaskID) packedLists[TaskID] {
	total := 0
	for _, es := range adj {
		total += len(es)
	}
	l := packedLists[TaskID]{off: make([]int32, len(adj)+1), flat: make([]TaskID, 0, total)}
	for t, es := range adj {
		start := len(l.flat)
		for _, e := range es {
			l.flat = append(l.flat, key(e))
		}
		slices.Sort(l.flat[start:])
		l.flat = l.flat[:start+len(slices.Compact(l.flat[start:]))]
		l.off[t+1] = int32(len(l.flat))
	}
	return l
}

// Sources returns tasks with no predecessor, in ascending ID order.
func (g *Graph) Sources() []TaskID {
	var out []TaskID
	for i := range g.tasks {
		if len(g.pred[i]) == 0 {
			out = append(out, TaskID(i))
		}
	}
	return out
}

// Sinks returns tasks with no successor, in ascending ID order.
func (g *Graph) Sinks() []TaskID {
	var out []TaskID
	for i := range g.tasks {
		if len(g.succ[i]) == 0 {
			out = append(out, TaskID(i))
		}
	}
	return out
}

// TotalWeight returns the sum of all task weights.
func (g *Graph) TotalWeight() float64 {
	s := 0.0
	for _, t := range g.tasks {
		s += t.Weight
	}
	return s
}

// TotalFileBytes returns the sum of all file sizes (each file counted
// once, matching the paper's CCR definition over input, output and
// intermediate files).
func (g *Graph) TotalFileBytes() float64 {
	s := 0.0
	for _, f := range g.files {
		s += f.Size
	}
	return s
}

// ScaleFileSizes multiplies every file size by factor. It is used to
// target a given Communication-to-Computation Ratio.
func (g *Graph) ScaleFileSizes(factor float64) {
	for i := range g.files {
		g.files[i].Size *= factor
	}
}

// MeanWeight returns the average task weight (0 for an empty graph).
func (g *Graph) MeanWeight() float64 {
	if len(g.tasks) == 0 {
		return 0
	}
	return g.TotalWeight() / float64(len(g.tasks))
}

// Clone returns a copy of the graph that can be mutated independently
// of g. It copies the task and file tables (ScaleFileSizes rescales
// files in place) and the outer headers of the four adjacency tables
// (succ, pred, inputs, consumers), and shares each inner list with g,
// its capacity capped at its length. The mutators only ever append to
// an inner list, so the clone's first append to a shared list
// reallocates it and never writes into g, and g's own appends land
// beyond the clone's capped view. The clone also shares g's adjacency
// index, building it on g first if needed, so that g and all its
// clones hold one index.
func (g *Graph) Clone() *Graph {
	c := &Graph{
		tasks:     slices.Clone(g.tasks),
		files:     slices.Clone(g.files),
		succ:      capped(g.succ),
		pred:      capped(g.pred),
		inputs:    capped(g.inputs),
		consumers: capped(g.consumers),
	}
	c.adj.Store(g.index())
	return c
}

// capped copies the outer headers of lists, each inner list capped at
// its length so that an append to it reallocates.
func capped[T any](lists [][]T) [][]T {
	out := make([][]T, len(lists))
	for i, l := range lists {
		out[i] = slices.Clip(l)
	}
	return out
}

// String returns a short human-readable summary.
func (g *Graph) String() string {
	return fmt.Sprintf("wfdag.Graph{tasks: %d, edges: %d, files: %d, weight: %.6g s, bytes: %.6g}",
		g.NumTasks(), g.NumEdges(), g.NumFiles(), g.TotalWeight(), g.TotalFileBytes())
}
