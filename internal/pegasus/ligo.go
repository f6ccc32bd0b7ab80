package pegasus

import (
	"fmt"
	"strconv"

	"repro/internal/mspg"
	"repro/internal/wfdag"
)

// Ligo generates a LIGO Inspiral workflow (Bharathi et al. §IV-C): the
// gravitational-wave candidate search runs in groups, each processing
// one segment of interferometer data:
//
//	TmpltBank (k, parallel) → Inspiral (k, 1:1)   matched filtering
//	  → Thinca (1, join)                           coincidence analysis
//	  → TrigBank (k2, fork) → Inspiral2 (k2, 1:1)  follow-up filtering
//	  → Thinca2 (1, join)
//
// Groups are independent (parallel composition) and a final Thinca
// merges all groups. Total ≈ groups·(2k + 2k2 + 2) + 1.
//
// With Ragged set, every group's TrigBank fork is made "incomplete":
// each TrigBank also reads the first group's Thinca output, a cross-
// group edge that PWG's Ligo output exhibits and that breaks the M-SPG
// property (footnote 2 of the paper). The generator then completes the
// structure with dummy zero-byte dependencies from every group's Thinca
// to every TrigBank — the paper's own fairness fix ("bipartite graphs
// extended with dummy dependencies carrying empty files, which adds
// synchronizations but no data transfers").
func Ligo(opts Options) (*mspg.Workflow, error) {
	opts = opts.withDefaults()
	if opts.Tasks < 7 {
		return nil, fmt.Errorf("pegasus: ligo needs at least 7 tasks, got %d", opts.Tasks)
	}
	b := newBuilder(opts.Seed)
	groups, k, k2 := ligoShape(opts.Tasks)

	type groupOut struct {
		thinca    wfdag.TaskID
		trigBanks []wfdag.TaskID
	}
	var outs []groupOut
	var groupNodes [][]*mspg.Node // per group: [stage1, thinca, stage2, thinca2]
	var finals []wfdag.TaskID
	for gi := 0; gi < groups; gi++ {
		var pairs []*mspg.Node
		var tails []wfdag.TaskID
		for i := 0; i < k; i++ {
			ids, node := b.chain([]profile{pTmpltBank, pInspiral})
			// Both the template bank and the matched filter read the same
			// interferometer frame file (~170 MB, Juve et al. table 8).
			// Sharing matters for checkpoint placement: with TmpltBank and
			// Inspiral in one segment the frame is fetched from stable
			// storage once; a checkpoint between them forces a re-read.
			b.sharedInput([]wfdag.TaskID{ids[0], ids[1]},
				"gwdata_"+strconv.Itoa(gi)+"_"+strconv.Itoa(i)+".gwf", 1.7e8, 0.2)
			pairs = append(pairs, node)
			tails = append(tails, ids[1])
		}
		thinca, thincaNode := b.task(pThinca)
		b.wireSerial(tails, pInspiral, []wfdag.TaskID{thinca})

		var pairs2 []*mspg.Node
		var heads2, tails2 []wfdag.TaskID
		for i := 0; i < k2; i++ {
			ids, node := b.chain([]profile{pTrigBank, pInspiral})
			// The follow-up filter also reads frame data.
			b.sharedInput([]wfdag.TaskID{ids[0], ids[1]},
				"gwdata2_"+strconv.Itoa(gi)+"_"+strconv.Itoa(i)+".gwf", 1.7e8, 0.2)
			pairs2 = append(pairs2, node)
			heads2 = append(heads2, ids[0])
			tails2 = append(tails2, ids[1])
		}
		b.wireSerial([]wfdag.TaskID{thinca}, pThinca, heads2)
		thinca2, thinca2Node := b.task(pThinca)
		b.wireSerial(tails2, pInspiral, []wfdag.TaskID{thinca2})
		finals = append(finals, thinca2)
		outs = append(outs, groupOut{thinca: thinca, trigBanks: heads2})
		groupNodes = append(groupNodes, []*mspg.Node{
			mspg.NewParallel(pairs...), thincaNode, mspg.NewParallel(pairs2...), thinca2Node,
		})
	}
	merge, mergeNode := b.task(pThinca)
	b.wireSerial(finals, pThinca, []wfdag.TaskID{merge})
	b.output(merge, pThinca)

	var root *mspg.Node
	if opts.Ragged && groups > 1 {
		// Cross-group raggedness: every group's TrigBanks also read the
		// first group's Thinca output (a shared veto file).
		first := outs[0].thinca
		veto := b.g.AddFile("veto_"+itoa(first), pThinca.drawBytes(b.rng), first)
		for gi := 1; gi < groups; gi++ {
			for _, tb := range outs[gi].trigBanks {
				b.g.AddDependency(tb, veto)
			}
		}
		// Paper's fairness fix: complete the Thinca→TrigBank level into a
		// full bipartite layer with zero-byte dummy files, restoring the
		// M-SPG property at the cost of extra synchronization.
		for gi := 0; gi < groups; gi++ {
			for gj := 0; gj < groups; gj++ {
				if gi == gj || (gi == 0 && gj > 0) {
					continue // real edges already present
				}
				dummy := b.g.AddFile("dummy_"+strconv.Itoa(gi)+"_"+strconv.Itoa(gj), 0, outs[gi].thinca)
				for _, tb := range outs[gj].trigBanks {
					b.g.AddDependency(tb, dummy)
				}
			}
		}
		// Completed structure: stage1 of all groups in parallel, then the
		// Thinca layer, then the TrigBank→Inspiral2 layer, then Thinca2s.
		var s1, s2, thinca2s []*mspg.Node
		for gi := 0; gi < groups; gi++ {
			s1 = append(s1, mspg.NewSerial(groupNodes[gi][0], groupNodes[gi][1]))
			s2 = append(s2, groupNodes[gi][2])
			thinca2s = append(thinca2s, groupNodes[gi][3])
		}
		// After completion, every TrigBank depends on every Thinca, so
		// the M-SPG is Serial[P(stage1+thinca per group), P(stage2 per
		// group), P(thinca2 per group), merge]... but thinca2 joins only
		// its own group's inspirals, so groups 2..n stay nested: instead
		// the completed DAG is Serial[P(s1_i;thinca_i), P(stage2_i;thinca2_i), merge].
		var upper, lower []*mspg.Node
		for gi := 0; gi < groups; gi++ {
			upper = append(upper, s1[gi])
			lower = append(lower, mspg.NewSerial(s2[gi], thinca2s[gi]))
		}
		root = mspg.NewSerial(mspg.NewParallel(upper...), mspg.NewParallel(lower...), mergeNode)
	} else {
		var gs []*mspg.Node
		for gi := 0; gi < groups; gi++ {
			gs = append(gs, mspg.NewSerial(groupNodes[gi]...))
		}
		root = mspg.NewSerial(mspg.NewParallel(gs...), mergeNode)
	}
	w := &mspg.Workflow{Name: "ligo-" + strconv.Itoa(b.g.NumTasks()), G: b.g, Root: root}
	if err := w.Validate(); err != nil {
		return nil, err
	}
	return w, nil
}

// ligoShape picks (groups, k, k2) with k≈9, k2≈⌈k/2⌉ per Bharathi's
// characterization, solving groups·(2k+2k2+2)+1 ≈ n.
func ligoShape(n int) (groups, k, k2 int) {
	k, k2 = 9, 5
	per := 2*k + 2*k2 + 2 // 30
	groups = (n - 1 + per/2) / per
	if groups < 1 {
		groups = 1
	}
	if groups == 1 {
		// Small workflows: shrink the group instead.
		k = (n - 3) / 3
		if k < 1 {
			k = 1
		}
		k2 = (k + 1) / 2
		rem := n - 1 - 2 - 2*k - 2*k2
		for rem >= 2 && k < n {
			k++
			rem -= 2
		}
	}
	return groups, k, k2
}
