package core

import (
	"context"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/ckpt"
	"repro/internal/mspg"
	"repro/internal/pegasus"
	"repro/internal/platform"
	"repro/internal/wfdag"
)

// LoadWorkflow is the file loader the tests drive the decoders and
// recognition through. It reads a workflow from disk — `.json` (this
// library's native format) or `.dax`/`.xml` (the Pegasus DAX subset) —
// and recovers its M-SPG structure by recognition, falling back to the
// GSPG transitive-reduction route for graphs with redundant edges. The
// returned redundant count is non-zero when the fallback was taken.
// Decoding failures come back as a *ParseError with file/position
// context; recognition failures keep the *mspg.NotMSPGError type.
func LoadWorkflow(path string) (w *mspg.Workflow, redundant int, err error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, 0, err
	}
	defer f.Close()
	var g *wfdag.Graph
	switch ext := strings.ToLower(filepath.Ext(path)); ext {
	case ".json":
		g, err = wfdag.ReadJSON(f)
	case ".dax", ".xml":
		g, err = wfdag.ReadDAX(f)
	default:
		return nil, 0, NewParseError(path, fmt.Errorf("unsupported workflow format %q (want .json, .dax or .xml)", ext))
	}
	if err != nil {
		return nil, 0, NewParseError(path, err)
	}
	name := strings.TrimSuffix(filepath.Base(path), filepath.Ext(path))
	return mspg.WorkflowFromGraph(name, g)
}

func writeTemp(t *testing.T, name, content string) string {
	t.Helper()
	path := filepath.Join(t.TempDir(), name)
	if err := os.WriteFile(path, []byte(content), 0o644); err != nil {
		t.Fatal(err)
	}
	return path
}

func TestLoadWorkflowJSONRoundTrip(t *testing.T) {
	w, err := pegasus.Generate("montage", pegasus.Options{Tasks: 80, Seed: 5})
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "wf.json")
	f, err := os.Create(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := w.G.WriteJSON(f); err != nil {
		t.Fatal(err)
	}
	f.Close()

	loaded, redundant, err := LoadWorkflow(path)
	if err != nil {
		t.Fatal(err)
	}
	if redundant != 0 {
		t.Fatalf("montage is a clean M-SPG, redundant = %d", redundant)
	}
	if loaded.G.NumTasks() != w.G.NumTasks() {
		t.Fatalf("tasks: %d vs %d", loaded.G.NumTasks(), w.G.NumTasks())
	}
	// And the loaded workflow is fully plannable.
	pf := platform.New(5, 0, 1e8).WithLambdaForPFail(0.001, loaded.G)
	res, err := Run(context.Background(), loaded, pf, Config{Strategy: ckpt.CkptSome})
	if err != nil {
		t.Fatal(err)
	}
	if res.ExpectedMakespan <= 0 {
		t.Fatal("bad plan from loaded workflow")
	}
}

func TestLoadWorkflowDAX(t *testing.T) {
	w, err := pegasus.Generate("genome", pegasus.Options{Tasks: 60, Seed: 5})
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "wf.dax")
	f, err := os.Create(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := w.G.WriteDAX(f, w.Name); err != nil {
		t.Fatal(err)
	}
	f.Close()

	loaded, _, err := LoadWorkflow(path)
	if err != nil {
		t.Fatal(err)
	}
	if loaded.G.NumTasks() != w.G.NumTasks() {
		t.Fatal("DAX round trip changed the task count")
	}
	if loaded.G.NumEdges() != w.G.NumEdges() {
		t.Fatalf("DAX round trip changed edges: %d vs %d", loaded.G.NumEdges(), w.G.NumEdges())
	}
}

func TestLoadWorkflowGSPGFallback(t *testing.T) {
	// A chain with a redundant shortcut: only GSPG recognition accepts it.
	path := writeTemp(t, "gspg.json", `{
	  "tasks": [
	    {"id":0,"name":"a","weight":10},
	    {"id":1,"name":"b","weight":10},
	    {"id":2,"name":"c","weight":10}
	  ],
	  "files": [
	    {"id":0,"name":"ab","size":5,"producer":0,"consumers":[1]},
	    {"id":1,"name":"bc","size":5,"producer":1,"consumers":[2]},
	    {"id":2,"name":"ac","size":5,"producer":0,"consumers":[2]}
	  ]
	}`)
	w, redundant, err := LoadWorkflow(path)
	if err != nil {
		t.Fatal(err)
	}
	if redundant != 1 {
		t.Fatalf("redundant = %d, want 1", redundant)
	}
	pf := platform.New(2, 1e-4, 1)
	res, err := Run(context.Background(), w, pf, Config{})
	if err != nil {
		t.Fatal(err)
	}
	// All three tasks on one superchain (it's a chain after reduction).
	if res.Superchains != 1 {
		t.Fatalf("superchains = %d", res.Superchains)
	}
}

func TestLoadWorkflowErrors(t *testing.T) {
	if _, _, err := LoadWorkflow(filepath.Join(t.TempDir(), "missing.json")); err == nil {
		t.Fatal("missing file must error")
	}
	path := writeTemp(t, "wf.txt", "not a workflow")
	if _, _, err := LoadWorkflow(path); err == nil {
		t.Fatal("unsupported extension must error")
	}
	bad := writeTemp(t, "bad.json", "{")
	if _, _, err := LoadWorkflow(bad); err == nil {
		t.Fatal("malformed JSON must error")
	}
	// An N-graph is not even a GSPG.
	ngraph := writeTemp(t, "n.json", `{
	  "tasks": [
	    {"id":0,"name":"a","weight":1},
	    {"id":1,"name":"b","weight":1},
	    {"id":2,"name":"c","weight":1},
	    {"id":3,"name":"d","weight":1}
	  ],
	  "files": [
	    {"id":0,"name":"f0","size":1,"producer":0,"consumers":[2]},
	    {"id":1,"name":"f1","size":1,"producer":1,"consumers":[2]},
	    {"id":2,"name":"f2","size":1,"producer":1,"consumers":[3]}
	  ]
	}`)
	if _, _, err := LoadWorkflow(ngraph); err == nil {
		t.Fatal("N-graph must be rejected")
	}
}

// TestLoadWorkflowParseErrorTyped pins the typed-error contract: decode
// failures surface as *ParseError with file and position context, while
// recognition failures keep the *mspg.NotMSPGError type — callers (the
// CLIs' exit codes, the façade's ErrParse/ErrNotMSPG mapping) tell the
// two apart with errors.As.
func TestLoadWorkflowParseErrorTyped(t *testing.T) {
	// JSON syntax error: offset recorded, line unknown.
	bad := writeTemp(t, "bad.json", "{\"tasks\": [}")
	_, _, err := LoadWorkflow(bad)
	var pe *ParseError
	if !errors.As(err, &pe) {
		t.Fatalf("malformed JSON: got %T (%v), want *ParseError", err, err)
	}
	if pe.Path != bad || pe.Offset == 0 {
		t.Fatalf("ParseError context = %+v, want path %q and a byte offset", pe, bad)
	}

	// XML syntax error: 1-based line recorded.
	dax := writeTemp(t, "bad.dax", "<adag>\n<job id=\"a\"\n</adag>")
	_, _, err = LoadWorkflow(dax)
	pe = nil
	if !errors.As(err, &pe) {
		t.Fatalf("malformed DAX: got %T (%v), want *ParseError", err, err)
	}
	if pe.Line == 0 {
		t.Fatalf("DAX ParseError carries no line: %+v", pe)
	}

	// Unsupported extension is a parse failure too.
	txt := writeTemp(t, "wf.txt", "nope")
	if _, _, err := LoadWorkflow(txt); !errors.As(err, &pe) {
		t.Fatalf("unsupported extension: got %T, want *ParseError", err)
	}

	// A well-formed document that is not an M-SPG is NOT a ParseError.
	ngraph := writeTemp(t, "n2.json", `{
	  "tasks": [
	    {"id":0,"name":"a","weight":1},
	    {"id":1,"name":"b","weight":1},
	    {"id":2,"name":"c","weight":1},
	    {"id":3,"name":"d","weight":1}
	  ],
	  "files": [
	    {"id":0,"name":"f0","size":1,"producer":0,"consumers":[2]},
	    {"id":1,"name":"f1","size":1,"producer":1,"consumers":[2]},
	    {"id":2,"name":"f2","size":1,"producer":1,"consumers":[3]}
	  ]
	}`)
	_, _, err = LoadWorkflow(ngraph)
	if err == nil {
		t.Fatal("N-graph must be rejected")
	}
	if errors.As(err, &pe) {
		t.Fatalf("recognition failure mis-typed as ParseError: %v", err)
	}
	var notMSPG *mspg.NotMSPGError
	if !errors.As(err, &notMSPG) {
		t.Fatalf("recognition failure lost its type: %T (%v)", err, err)
	}
}
