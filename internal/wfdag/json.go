package wfdag

import (
	"encoding/json"
	"fmt"
	"io"
)

// jsonGraph is the wire format, loosely modelled after Pegasus DAX files:
// a list of typed jobs and a list of files with producer/consumer lists.
type jsonGraph struct {
	Name  string     `json:"name,omitempty"`
	Tasks []jsonTask `json:"tasks"`
	Files []jsonFile `json:"files"`
}

type jsonTask struct {
	ID     int     `json:"id"`
	Name   string  `json:"name"`
	Kind   string  `json:"kind,omitempty"`
	Weight float64 `json:"weight"`
}

type jsonFile struct {
	ID        int     `json:"id"`
	Name      string  `json:"name"`
	Size      float64 `json:"size"`
	Producer  int     `json:"producer"` // -1 for workflow inputs
	Consumers []int   `json:"consumers,omitempty"`
}

// MarshalJSON implements json.Marshaler.
func (g *Graph) MarshalJSON() ([]byte, error) {
	jg := jsonGraph{}
	for _, t := range g.tasks {
		jg.Tasks = append(jg.Tasks, jsonTask{ID: int(t.ID), Name: t.Name, Kind: t.Kind, Weight: t.Weight})
	}
	for i, f := range g.files {
		jf := jsonFile{ID: i, Name: f.name, Size: g.sizes[i], Producer: int(f.producer)}
		for _, c := range g.Consumers(FileID(i)) {
			jf.Consumers = append(jf.Consumers, int(c))
		}
		jg.Files = append(jg.Files, jf)
	}
	return json.Marshal(jg)
}

// UnmarshalJSON implements json.Unmarshaler.
func (g *Graph) UnmarshalJSON(data []byte) error {
	var jg jsonGraph
	if err := json.Unmarshal(data, &jg); err != nil {
		return err
	}
	*g = *New()
	for i, t := range jg.Tasks {
		if t.ID != i {
			return fmt.Errorf("wfdag: task IDs must be dense and ordered, got %d at position %d", t.ID, i)
		}
		g.AddTask(t.Name, t.Kind, t.Weight)
	}
	for i, f := range jg.Files {
		if f.ID != i {
			return fmt.Errorf("wfdag: file IDs must be dense and ordered, got %d at position %d", f.ID, i)
		}
		producer := TaskID(f.Producer)
		if producer != NoTask && (producer < 0 || int(producer) >= len(g.tasks)) {
			return fmt.Errorf("wfdag: file %d has out-of-range producer %d", f.ID, f.Producer)
		}
		fid := g.AddFile(f.Name, f.Size, producer)
		for _, c := range f.Consumers {
			if c < 0 || c >= len(g.tasks) {
				return fmt.Errorf("wfdag: file %d has out-of-range consumer %d", f.ID, c)
			}
			g.AddDependency(TaskID(c), fid)
		}
	}
	return g.Validate()
}

// WriteJSON serializes the graph to w with indentation.
func (g *Graph) WriteJSON(w io.Writer) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(g)
}

// ReadJSON parses a graph from r and validates it.
func ReadJSON(r io.Reader) (*Graph, error) {
	g := New()
	dec := json.NewDecoder(r)
	if err := dec.Decode(g); err != nil {
		return nil, err
	}
	return g, nil
}
