package wfdag

import (
	"bytes"
	"strings"
	"testing"
)

func TestDAXRoundTrip(t *testing.T) {
	g := diamond(t)
	in := g.AddFile("region.fits", 3, NoTask)
	g.AddDependency(0, in)
	g.AddFile("mosaic.jpg", 9, 3)

	var buf bytes.Buffer
	if err := g.WriteDAX(&buf, "diamond"); err != nil {
		t.Fatal(err)
	}
	back, err := ReadDAX(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if back.NumTasks() != g.NumTasks() || back.NumFiles() != g.NumFiles() {
		t.Fatalf("round trip shape: %v vs %v", back, g)
	}
	// Same dependency relation.
	for i := 0; i < g.NumTasks(); i++ {
		a, b := g.SuccTasks(TaskID(i)), back.SuccTasks(TaskID(i))
		if len(a) != len(b) {
			t.Fatalf("task %d succ %v vs %v", i, a, b)
		}
		for j := range a {
			if a[j] != b[j] {
				t.Fatalf("task %d succ %v vs %v", i, a, b)
			}
		}
		if back.Task(TaskID(i)).Weight != g.Task(TaskID(i)).Weight {
			t.Fatalf("task %d weight changed", i)
		}
	}
	if len(back.InputFiles(0)) != 1 {
		t.Fatal("workflow input lost")
	}
	if len(outputFiles(back, 3)) != 1 {
		t.Fatal("workflow output lost")
	}
}

const sampleDAX = `<?xml version="1.0" encoding="UTF-8"?>
<adag name="sample">
  <job id="ID01" name="preprocess" runtime="10">
    <uses file="raw.dat" link="input" size="1000"/>
    <uses file="clean.dat" link="output" size="800"/>
  </job>
  <job id="ID02" name="analyze" runtime="60">
    <uses file="clean.dat" link="input" size="800"/>
    <uses file="result.dat" link="output" size="50"/>
  </job>
  <job id="ID03" name="archive" runtime="5">
    <uses file="result.dat" link="input" size="50"/>
  </job>
  <child ref="ID03">
    <parent ref="ID02"/>
    <parent ref="ID01"/>
  </child>
</adag>`

func TestReadDAXSample(t *testing.T) {
	g, err := ReadDAX(strings.NewReader(sampleDAX))
	if err != nil {
		t.Fatal(err)
	}
	if g.NumTasks() != 3 {
		t.Fatalf("tasks = %d", g.NumTasks())
	}
	// clean.dat gives ID01 -> ID02, result.dat gives ID02 -> ID03; the
	// explicit ID01 -> ID03 precedence is control-only and must appear
	// as a zero-byte file.
	if s := g.SuccTasks(0); len(s) != 2 {
		t.Fatalf("succ(preprocess) = %v", s)
	}
	ctrl := 0
	for i := 0; i < g.NumFiles(); i++ {
		if f := g.File(FileID(i)); f.Size == 0 && strings.HasPrefix(f.Name, "_ctrl_") {
			ctrl++
		}
	}
	if ctrl != 1 {
		t.Fatalf("control files = %d, want 1", ctrl)
	}
	// raw.dat is a workflow input.
	if len(g.InputFiles(0)) != 1 {
		t.Fatal("raw.dat must be a workflow input")
	}
	if g.Task(1).Weight != 60 {
		t.Fatalf("runtime lost: %+v", g.Task(1))
	}
}

func TestReadDAXRejectsDuplicateProducer(t *testing.T) {
	bad := `<adag name="x">
	  <job id="A" name="a" runtime="1"><uses file="f" link="output" size="1"/></job>
	  <job id="B" name="b" runtime="1"><uses file="f" link="output" size="1"/></job>
	</adag>`
	if _, err := ReadDAX(strings.NewReader(bad)); err == nil {
		t.Fatal("file produced twice must be rejected")
	}
}

func TestReadDAXRejectsUnknownRefs(t *testing.T) {
	bad := `<adag name="x">
	  <job id="A" name="a" runtime="1"/>
	  <child ref="Z"><parent ref="A"/></child>
	</adag>`
	if _, err := ReadDAX(strings.NewReader(bad)); err == nil {
		t.Fatal("unknown child ref must be rejected")
	}
	bad2 := `<adag name="x">
	  <job id="A" name="a" runtime="1"/>
	  <child ref="A"><parent ref="Z"/></child>
	</adag>`
	if _, err := ReadDAX(strings.NewReader(bad2)); err == nil {
		t.Fatal("unknown parent ref must be rejected")
	}
}

func TestReadDAXRejectsCycle(t *testing.T) {
	bad := `<adag name="x">
	  <job id="A" name="a" runtime="1"/>
	  <job id="B" name="b" runtime="1"/>
	  <child ref="A"><parent ref="B"/></child>
	  <child ref="B"><parent ref="A"/></child>
	</adag>`
	if _, err := ReadDAX(strings.NewReader(bad)); err == nil {
		t.Fatal("cyclic DAX must be rejected")
	}
}

func TestReadDAXRejectsNegativeRuntime(t *testing.T) {
	bad := `<adag name="x"><job id="A" name="a" runtime="-1"/></adag>`
	if _, err := ReadDAX(strings.NewReader(bad)); err == nil {
		t.Fatal("negative runtime must be rejected")
	}
}
