// Package wfdag provides the workflow substrate used throughout the
// repository: weighted task graphs (Directed Acyclic Graphs) whose edges
// carry data files, together with the graph algorithms the scheduling and
// checkpointing layers rely on (topological order, reachability,
// transitive reduction and validation).
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
//
// # Layout
//
// A Graph is built once and then read: the mutators append to flat
// tables (tasks, files, file sizes and a log of AddDependency calls),
// and every adjacency list is read from an index packed from those
// tables on the first read after a mutation. Interleaving mutations and
// reads therefore rebuilds the index at each read; build the graph
// first, then read it.
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
// The mutators only append: AddTask and AddFile to the task and file
// tables, AddDependency one (consumer, file) entry to the dependency
// log. The adjacency accessors (Succ, Pred, InputFiles, Consumers,
// ProducedFiles, PredTasks, SuccTasks) read an immutable index packed
// from those tables on first use and dropped by every mutation, so
// they return slices the graph shares with every caller and with its
// clones: they are read-only. File sizes live apart from the file
// table, because ScaleFileSizes is the one in-place write.
type Graph struct {
	tasks []Task
	files []fileMeta
	sizes []float64 // bytes, indexed by FileID
	deps  []dep     // one entry per AddDependency call, in call order

	adj atomic.Pointer[adjacency] // nil until first read after a mutation
}

// fileMeta is a file's immutable part; its size is in Graph.sizes.
type fileMeta struct {
	name     string
	producer TaskID
}

// dep records one AddDependency call: task to reads file.
type dep struct {
	to   TaskID
	file FileID
}

// adjacency is the derived, immutable index behind the adjacency
// accessors. Every list keeps the order of the table it is sorted from:
// the edge, input and consumer lists the order of the AddDependency
// calls, the produced files FileID order.
type adjacency struct {
	succ, pred packedLists[Edge]   // outgoing and incoming edges per task
	inputs     packedLists[FileID] // workflow input files read, per task
	consumers  packedLists[TaskID] // readers, per file
	produced   packedLists[FileID] // files produced, per task
	predTasks  packedLists[TaskID] // distinct predecessors of each task, ascending
	succTasks  packedLists[TaskID] // distinct successors of each task, ascending
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

// The stable counting sort that fills a packedLists of n lists: count
// each item's list, then start, then put the items in the order they
// were counted, then finish.
func newPacked[T any](n int) packedLists[T] { return packedLists[T]{off: make([]int32, n+1)} }

func (l *packedLists[T]) count(i int) { l.off[i+1]++ }

// start turns the counts into list starts and allocates flat; off[i]
// then serves as list i's write cursor.
func (l *packedLists[T]) start() {
	for i := 1; i < len(l.off); i++ {
		l.off[i] += l.off[i-1]
	}
	l.flat = make([]T, l.off[len(l.off)-1])
}

func (l *packedLists[T]) put(i int, v T) {
	l.flat[l.off[i]] = v
	l.off[i]++
}

// finish shifts the cursors, each now at the start of the next list,
// back into list starts.
func (l *packedLists[T]) finish() {
	copy(l.off[1:], l.off[:len(l.off)-1])
	l.off[0] = 0
}

// New returns an empty graph.
func New() *Graph { return &Graph{} }

// dropIndex drops the index after a mutation. The common case, a graph
// under construction, skips the atomic store.
func (g *Graph) dropIndex() {
	if g.adj.Load() != nil {
		g.adj.Store(nil)
	}
}

// AddTask appends a task and returns its ID. The weight must be
// non-negative; invalid weights are reported by Validate.
func (g *Graph) AddTask(name, kind string, weight float64) TaskID {
	g.dropIndex()
	id := TaskID(len(g.tasks))
	g.tasks = append(g.tasks, Task{ID: id, Name: name, Kind: kind, Weight: weight})
	return id
}

// AddFile registers a file of the given size produced by producer
// (NoTask for a workflow input) and returns its ID.
func (g *Graph) AddFile(name string, size float64, producer TaskID) FileID {
	g.dropIndex()
	id := FileID(len(g.files))
	g.files = append(g.files, fileMeta{name: name, producer: producer})
	g.sizes = append(g.sizes, size)
	return id
}

// AddDependency records that task "to" consumes file f. If the file has a
// producer task, this is a dependency edge producer->to; if the file is a
// workflow input, the read is recorded without an edge. Out-of-range IDs
// are reported by Validate.
func (g *Graph) AddDependency(to TaskID, f FileID) {
	g.dropIndex()
	g.deps = append(g.deps, dep{to: to, file: f})
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
	for _, d := range g.deps {
		if g.files[d.file].producer != NoTask {
			n++
		}
	}
	return n
}

// Task returns the task with the given ID.
func (g *Graph) Task(id TaskID) Task { return g.tasks[id] }

// File returns the file with the given ID.
func (g *Graph) File(id FileID) File {
	m := g.files[id]
	return File{ID: id, Name: m.name, Size: g.sizes[id], Producer: m.producer}
}

// Succ returns the outgoing edges of t (shared, read-only).
func (g *Graph) Succ(t TaskID) []Edge { return g.index().succ.at(int(t)) }

// Pred returns the incoming edges of t (shared, read-only).
func (g *Graph) Pred(t TaskID) []Edge { return g.index().pred.at(int(t)) }

// InputFiles returns the workflow input files read by t (shared,
// read-only).
func (g *Graph) InputFiles(t TaskID) []FileID { return g.index().inputs.at(int(t)) }

// Consumers returns the tasks that read file f (shared, read-only).
func (g *Graph) Consumers(f FileID) []TaskID { return g.index().consumers.at(int(f)) }

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
// wins and every reader returns it. The IDs in the tables must be in
// range, which Validate checks without reading the index.
func (g *Graph) index() *adjacency {
	if a := g.adj.Load(); a != nil {
		return a
	}
	n := len(g.tasks)
	a := &adjacency{
		succ:      newPacked[Edge](n),
		pred:      newPacked[Edge](n),
		inputs:    newPacked[FileID](n),
		consumers: newPacked[TaskID](len(g.files)),
		produced:  newPacked[FileID](n),
	}
	for _, f := range g.files {
		if f.producer != NoTask {
			a.produced.count(int(f.producer))
		}
	}
	for _, d := range g.deps {
		a.consumers.count(int(d.file))
		if p := g.files[d.file].producer; p == NoTask {
			a.inputs.count(int(d.to))
		} else {
			a.succ.count(int(p))
			a.pred.count(int(d.to))
		}
	}
	a.succ.start()
	a.pred.start()
	a.inputs.start()
	a.consumers.start()
	a.produced.start()
	for i, f := range g.files {
		if f.producer != NoTask {
			a.produced.put(int(f.producer), FileID(i))
		}
	}
	for _, d := range g.deps {
		a.consumers.put(int(d.file), d.to)
		if p := g.files[d.file].producer; p == NoTask {
			a.inputs.put(int(d.to), d.file)
		} else {
			e := Edge{From: p, To: d.to, File: d.file}
			a.succ.put(int(p), e)
			a.pred.put(int(d.to), e)
		}
	}
	a.succ.finish()
	a.pred.finish()
	a.inputs.finish()
	a.consumers.finish()
	a.produced.finish()
	a.predTasks = dedupTasks(a.pred, func(e Edge) TaskID { return e.From })
	a.succTasks = dedupTasks(a.succ, func(e Edge) TaskID { return e.To })
	if !g.adj.CompareAndSwap(nil, a) {
		return g.adj.Load()
	}
	return a
}

// dedupTasks packs, per task, the distinct key(e) over its edge list in
// ascending order.
func dedupTasks(edges packedLists[Edge], key func(Edge) TaskID) packedLists[TaskID] {
	n := len(edges.off) - 1
	l := packedLists[TaskID]{off: make([]int32, n+1), flat: make([]TaskID, 0, len(edges.flat))}
	for t := 0; t < n; t++ {
		start := len(l.flat)
		for _, e := range edges.at(t) {
			l.flat = append(l.flat, key(e))
		}
		slices.Sort(l.flat[start:])
		l.flat = l.flat[:start+len(slices.Compact(l.flat[start:]))]
		l.off[t+1] = int32(len(l.flat))
	}
	return l
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
	for _, size := range g.sizes {
		s += size
	}
	return s
}

// ScaleFileSizes multiplies every file size by factor. It is used to
// target a given Communication-to-Computation Ratio.
func (g *Graph) ScaleFileSizes(factor float64) {
	for i := range g.sizes {
		g.sizes[i] *= factor
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
// of g. It copies only the file sizes, which ScaleFileSizes rewrites in
// place. The task table, file table and dependency log, which the
// mutators only append to, are shared with g with their capacity capped
// at their length, so the clone's first append to each reallocates it
// and never writes into g, and g's own appends land beyond the clone's
// view. The clone also shares g's adjacency index, building it on g
// first if needed, so that g and all its clones hold one index.
func (g *Graph) Clone() *Graph {
	c := &Graph{
		tasks: slices.Clip(g.tasks),
		files: slices.Clip(g.files),
		sizes: slices.Clone(g.sizes),
		deps:  slices.Clip(g.deps),
	}
	c.adj.Store(g.index())
	return c
}

// String returns a short human-readable summary.
func (g *Graph) String() string {
	return fmt.Sprintf("wfdag.Graph{tasks: %d, edges: %d, files: %d, weight: %.6g s, bytes: %.6g}",
		g.NumTasks(), g.NumEdges(), g.NumFiles(), g.TotalWeight(), g.TotalFileBytes())
}
