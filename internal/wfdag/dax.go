package wfdag

import (
	"encoding/xml"
	"fmt"
	"io"
	"sort"
)

// This file implements a practical subset of the Pegasus DAX v3.x XML
// schema — the interchange format real workflows (and the Pegasus
// Workflow Generator the paper uses) are distributed in. A DAX lists
// <job> elements with a runtime attribute and <uses> file references
// (link="input"/"output" with a size), plus explicit <child>/<parent>
// precedence. Data dependencies are reconstructed from shared file
// names: the producer is the job that "uses" the file as output, the
// consumers use it as input; files used as input by some job and never
// produced are workflow inputs; produced files nobody reads are
// workflow outputs.

type daxADAG struct {
	XMLName xml.Name   `xml:"adag"`
	Name    string     `xml:"name,attr"`
	Jobs    []daxJob   `xml:"job"`
	Childs  []daxChild `xml:"child"`
}

type daxJob struct {
	ID      string    `xml:"id,attr"`
	Name    string    `xml:"name,attr"`
	Runtime float64   `xml:"runtime,attr"`
	Uses    []daxUses `xml:"uses"`
}

type daxUses struct {
	File string  `xml:"file,attr"`
	Link string  `xml:"link,attr"` // "input" | "output"
	Size float64 `xml:"size,attr"`
}

type daxChild struct {
	Ref     string      `xml:"ref,attr"`
	Parents []daxParent `xml:"parent"`
}

type daxParent struct {
	Ref string `xml:"ref,attr"`
}

// WriteDAX serializes the graph in the DAX subset. Job IDs are
// ID0000001-style like Pegasus; every file appears as an output "uses"
// on its producer and an input "uses" on each consumer.
func (g *Graph) WriteDAX(w io.Writer, name string) error {
	adag := daxADAG{Name: name}
	jobID := func(t TaskID) string { return fmt.Sprintf("ID%07d", int(t)+1) }
	for _, t := range g.tasks {
		j := daxJob{ID: jobID(t.ID), Name: nonEmpty(t.Kind, t.Name), Runtime: t.Weight}
		// Inputs: dependency files + workflow inputs, deduplicated.
		seen := map[FileID]bool{}
		for _, e := range g.Pred(t.ID) {
			if !seen[e.File] {
				seen[e.File] = true
				j.Uses = append(j.Uses, g.daxUses(e.File, "input"))
			}
		}
		for _, fid := range g.InputFiles(t.ID) {
			if !seen[fid] {
				seen[fid] = true
				j.Uses = append(j.Uses, g.daxUses(fid, "input"))
			}
		}
		for _, fid := range g.ProducedFiles(t.ID) {
			j.Uses = append(j.Uses, g.daxUses(fid, "output"))
		}
		adag.Jobs = append(adag.Jobs, j)
	}
	// Explicit precedence for readers that ignore file flow.
	for i := range g.tasks {
		parents := g.PredTasks(TaskID(i))
		if len(parents) == 0 {
			continue
		}
		c := daxChild{Ref: jobID(TaskID(i))}
		for _, p := range parents {
			c.Parents = append(c.Parents, daxParent{Ref: jobID(p)})
		}
		adag.Childs = append(adag.Childs, c)
	}
	if _, err := io.WriteString(w, xml.Header); err != nil {
		return err
	}
	enc := xml.NewEncoder(w)
	enc.Indent("", "  ")
	if err := enc.Encode(adag); err != nil {
		return err
	}
	_, err := io.WriteString(w, "\n")
	return err
}

// daxUses is the <uses> element for file f.
func (g *Graph) daxUses(f FileID, link string) daxUses {
	return daxUses{File: g.files[f].name, Link: link, Size: g.sizes[f]}
}

// ReadDAX parses a DAX document into a Graph. File names must be unique
// per producer; a file produced by two jobs is rejected. Explicit
// <child>/<parent> precedence that is not carried by any shared file is
// materialized as a zero-byte control file (the paper's dummy
// dependency), so the dependency relation is fully preserved.
func ReadDAX(r io.Reader) (*Graph, error) {
	var adag daxADAG
	dec := xml.NewDecoder(r)
	if err := dec.Decode(&adag); err != nil {
		return nil, fmt.Errorf("wfdag: parsing DAX: %w", err)
	}
	g := New()
	taskOf := make(map[string]TaskID, len(adag.Jobs))
	for _, j := range adag.Jobs {
		if j.Runtime < 0 {
			return nil, fmt.Errorf("wfdag: job %s has negative runtime", j.ID)
		}
		if _, dup := taskOf[j.ID]; dup {
			return nil, fmt.Errorf("wfdag: duplicate job id %s", j.ID)
		}
		taskOf[j.ID] = g.AddTask(j.ID, j.Name, j.Runtime)
	}
	// First pass: producers.
	fileOf := make(map[string]FileID)
	for _, j := range adag.Jobs {
		for _, u := range j.Uses {
			if u.Link != "output" {
				continue
			}
			if fid, dup := fileOf[u.File]; dup {
				return nil, fmt.Errorf("wfdag: file %q produced twice (second producer %s, first %d)",
					u.File, j.ID, g.files[fid].producer)
			}
			fileOf[u.File] = g.AddFile(u.File, u.Size, taskOf[j.ID])
		}
	}
	// Second pass: consumers (unknown files become workflow inputs).
	for _, j := range adag.Jobs {
		seen := map[string]bool{}
		for _, u := range j.Uses {
			if u.Link != "input" || seen[u.File] {
				continue
			}
			seen[u.File] = true
			fid, ok := fileOf[u.File]
			if !ok {
				fid = g.AddFile(u.File, u.Size, NoTask)
				fileOf[u.File] = fid
			}
			g.AddDependency(taskOf[j.ID], fid)
		}
	}
	// Third pass: control-only precedence.
	covered := make(map[[2]TaskID]bool)
	for i := range g.tasks {
		for _, s := range g.SuccTasks(TaskID(i)) {
			covered[[2]TaskID{TaskID(i), s}] = true
		}
	}
	extras := 0
	for _, c := range adag.Childs {
		child, ok := taskOf[c.Ref]
		if !ok {
			return nil, fmt.Errorf("wfdag: child ref %q unknown", c.Ref)
		}
		parents := append([]daxParent(nil), c.Parents...)
		sort.Slice(parents, func(i, j int) bool { return parents[i].Ref < parents[j].Ref })
		for _, p := range parents {
			parent, ok := taskOf[p.Ref]
			if !ok {
				return nil, fmt.Errorf("wfdag: parent ref %q unknown", p.Ref)
			}
			if !covered[[2]TaskID{parent, child}] {
				extras++
				f := g.AddFile(fmt.Sprintf("_ctrl_%d_%d_%d", parent, child, extras), 0, parent)
				g.AddDependency(child, f)
				covered[[2]TaskID{parent, child}] = true
			}
		}
	}
	if err := g.Validate(); err != nil {
		return nil, err
	}
	return g, nil
}

func nonEmpty(a, b string) string {
	if a != "" {
		return a
	}
	return b
}
