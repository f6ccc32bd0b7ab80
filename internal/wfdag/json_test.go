package wfdag

import (
	"bytes"
	"math/rand"
	"strings"
	"testing"
)

func TestJSONRoundTrip(t *testing.T) {
	g := diamond(t)
	in := g.AddFile("wfin", 3, NoTask)
	g.AddDependency(0, in)
	g.AddFile("wfout", 9, 3)

	var buf bytes.Buffer
	if err := g.WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	back, err := ReadJSON(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if back.NumTasks() != g.NumTasks() || back.NumFiles() != g.NumFiles() || back.NumEdges() != g.NumEdges() {
		t.Fatalf("round trip changed shape: %v vs %v", back, g)
	}
	for i := 0; i < g.NumTasks(); i++ {
		if back.Task(TaskID(i)) != g.Task(TaskID(i)) {
			t.Fatalf("task %d changed: %+v vs %+v", i, back.Task(TaskID(i)), g.Task(TaskID(i)))
		}
	}
	for i := 0; i < g.NumFiles(); i++ {
		if back.File(FileID(i)) != g.File(FileID(i)) {
			t.Fatalf("file %d changed", i)
		}
	}
	if len(back.InputFiles(0)) != 1 {
		t.Fatal("workflow input lost in round trip")
	}
	if len(outputFiles(back, 3)) != 1 {
		t.Fatal("workflow output lost in round trip")
	}
}

func TestJSONRoundTripRandom(t *testing.T) {
	rng := rand.New(rand.NewSource(17))
	for trial := 0; trial < 10; trial++ {
		g := randomDAG(rng, 30, 0.15)
		var buf bytes.Buffer
		if err := g.WriteJSON(&buf); err != nil {
			t.Fatal(err)
		}
		back, err := ReadJSON(&buf)
		if err != nil {
			t.Fatal(err)
		}
		var b1, b2 bytes.Buffer
		if err := g.WriteJSON(&b1); err != nil {
			t.Fatal(err)
		}
		if err := back.WriteJSON(&b2); err != nil {
			t.Fatal(err)
		}
		if b1.String() != b2.String() {
			t.Fatal("JSON not canonical across round trip")
		}
	}
}

func TestReadJSONRejectsBadProducer(t *testing.T) {
	_, err := ReadJSON(strings.NewReader(`{
		"tasks": [{"id":0,"name":"a","weight":1}],
		"files": [{"id":0,"name":"f","size":1,"producer":7}]
	}`))
	if err == nil {
		t.Fatal("out-of-range producer must be rejected")
	}
}

func TestReadJSONRejectsBadConsumer(t *testing.T) {
	_, err := ReadJSON(strings.NewReader(`{
		"tasks": [{"id":0,"name":"a","weight":1}],
		"files": [{"id":0,"name":"f","size":1,"producer":-1,"consumers":[3]}]
	}`))
	if err == nil {
		t.Fatal("out-of-range consumer must be rejected")
	}
}

func TestReadJSONRejectsNonDenseIDs(t *testing.T) {
	_, err := ReadJSON(strings.NewReader(`{
		"tasks": [{"id":1,"name":"a","weight":1}],
		"files": []
	}`))
	if err == nil {
		t.Fatal("non-dense task IDs must be rejected")
	}
}
