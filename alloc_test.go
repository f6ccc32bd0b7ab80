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

// TestBuildScaffoldAllocs guards a cold miss's generation and
// Algorithm 1 (buildScaffold) against going back to validating the
// M-SPG tree through edge maps, naming tasks and files through fmt and
// copying the already-canonical tree in Normalize. Before those went, a
// 300-task scaffold made 7 671 allocations for montage and 7 049 for
// cybershake; the bound is 85% of each.
func TestBuildScaffoldAllocs(t *testing.T) {
	ctx := context.Background()
	for _, c := range []struct {
		family string
		parent float64
	}{
		{"montage", 7671},
		{"cybershake", 7049},
	} {
		sc := NewScenario(WithFamily(c.family), WithTasks(300))
		allocs := testing.AllocsPerRun(20, func() {
			if _, err := buildScaffold(ctx, sc); err != nil {
				t.Fatal(err)
			}
		})
		t.Logf("%s: %.0f allocations per scaffold", c.family, allocs)
		if bound := 0.85 * c.parent; allocs > bound {
			t.Errorf("%s: buildScaffold makes %.0f allocations per scaffold, want at most %.0f", c.family, allocs, bound)
		}
	}
}
