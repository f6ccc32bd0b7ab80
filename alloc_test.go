package hanccr

import (
	"context"
	"testing"
)

// TestPlanFromScaffoldAllocs guards the parameter tail a structure-hit
// runs (clone, calibrate, rebuild, place, evaluate) against going back
// to copying the immutable M-SPG tree and adjacency lists and to
// allocating every segment law and edge of the segment DAG on its own.
// Before the tail stopped copying them, a montage-300 plan made 2 627
// allocations under CkptSome and 2 172 under ExitOnly; the bound is
// half of each.
func TestPlanFromScaffoldAllocs(t *testing.T) {
	ctx := context.Background()
	sf, err := buildScaffold(ctx, NewScenario(WithFamily("montage"), WithTasks(300)))
	if err != nil {
		t.Fatal(err)
	}
	for _, c := range []struct {
		st     Strategy
		parent float64
	}{
		{CkptSome, 2627},
		{ExitOnly, 2172},
	} {
		sc := NewScenario(WithFamily("montage"), WithTasks(300), WithStrategy(c.st), WithPFail(1e-3), WithCCR(0.1))
		allocs := testing.AllocsPerRun(20, func() {
			if _, err := planFromScaffold(ctx, sc, sf); err != nil {
				t.Fatal(err)
			}
		})
		t.Logf("%s: %.0f allocations per plan", c.st, allocs)
		if bound := c.parent / 2; allocs > bound {
			t.Errorf("%s: planFromScaffold makes %.0f allocations per plan, want at most %.0f", c.st, allocs, bound)
		}
	}
}
