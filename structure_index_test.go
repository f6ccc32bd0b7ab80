package hanccr

import (
	"context"
	"testing"

	"repro/internal/wfdag"
)

// TestStructureHitSharesScaffoldIndex pins the memory contract of the
// graph's adjacency index: a structure-hit plan's workflow is a clone
// of its scaffold's master and must share the master's index rather
// than hold a copy, or every cached plan would retain one of its own.
// Shared index lists have the same backing arrays.
func TestStructureHitSharesScaffoldIndex(t *testing.T) {
	ctx := context.Background()
	variants := paramVariants("montage", 3, 3)
	sf, err := buildScaffold(ctx, variants[0])
	if err != nil {
		t.Fatal(err)
	}
	master := sf.W.G
	for i, sc := range variants {
		p, err := planFromScaffold(ctx, sc, sf)
		if err != nil {
			t.Fatal(err)
		}
		g := p.res.Schedule.W.G
		if g == master {
			t.Fatalf("variant %d: the plan must own a clone of the master", i)
		}
		shared := 0
		for task := 0; task < g.NumTasks(); task++ {
			id := wfdag.TaskID(task)
			for _, lists := range [][2][]wfdag.TaskID{
				{g.PredTasks(id), master.PredTasks(id)},
				{g.SuccTasks(id), master.SuccTasks(id)},
			} {
				if len(lists[0]) == 0 {
					continue
				}
				if len(lists[1]) == 0 || &lists[0][0] != &lists[1][0] {
					t.Fatalf("variant %d: task %d's adjacency is not the master's index", i, task)
				}
				shared++
			}
		}
		if shared == 0 {
			t.Fatalf("variant %d: no adjacency to compare", i)
		}
	}
}
