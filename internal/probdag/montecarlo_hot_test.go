package probdag_test

import (
	"math"
	"testing"

	"repro/internal/ckpt"
	"repro/internal/probdag"
)

// TestMCThresholdsHotPlans checks the Monte Carlo kernel's integer
// first-value test on the segment DAGs the daemon samples most: the
// four families at 300 tasks with default parameters under CkptSome.
// For every node, the raw value just below its threshold maps to a
// uniform below the first inverse-CDF threshold, and the threshold
// itself to one at or above it unless the clamp applies.
func TestMCThresholdsHotPlans(t *testing.T) {
	for _, family := range []string{"genome", "montage", "ligo", "cybershake"} {
		g := segmentDAG(t, family, 300, 42, ckpt.CkptSome)
		first, raw := g.MCThresholds()
		if len(first) != g.Len() || len(raw) != g.Len() {
			t.Fatalf("%s: %d first thresholds and %d raw ones for %d nodes", family, len(first), len(raw), g.Len())
		}
		for i, f := range first {
			if err := probdag.RawThresholdErr(f, raw[i]); err != nil {
				t.Fatalf("%s node %d: %v", family, i, err)
			}
			if d := g.Dist(probdag.NodeID(i)); d.Len() == 1 && !math.IsInf(f, 1) {
				t.Fatalf("%s node %d: point mass with first threshold %v", family, i, f)
			}
		}
	}
}
