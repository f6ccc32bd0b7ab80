package pegasus

import (
	"fmt"
	"strconv"

	"repro/internal/mspg"
	"repro/internal/wfdag"
)

// Genome generates an Epigenomics workflow (Bharathi et al. §IV-E): a
// fork-join of sequencing lanes. Each lane splits its FASTQ input
// (fastQSplit) into k chunks, pipes every chunk through the 4-stage
// chain filterContams → sol2sanger → fast2bfq → map, and merges the
// mapped reads (mapMerge). A global maqIndex and pileup close the
// workflow. Total tasks ≈ lanes·(4k + 2) + 2. The paper calls this
// family GENOME; it is the most chain-heavy of the three, which is why
// CkptSome has the most room to drop checkpoints inside lanes.
func Genome(opts Options) (*mspg.Workflow, error) {
	opts = opts.withDefaults()
	if opts.Tasks < 8 {
		return nil, fmt.Errorf("pegasus: genome needs at least 8 tasks, got %d", opts.Tasks)
	}
	b := newBuilder(opts.Seed)
	lanes, k := genomeShape(opts.Tasks)

	chainProfiles := []profile{pFilter, pSol2Sanger, pFastq2Bfq, pMap}
	var laneNodes []*mspg.Node
	var merges []wfdag.TaskID
	for lane := 0; lane < lanes; lane++ {
		split, splitNode := b.task(pFastQSplit)
		b.input(split, "lane_"+strconv.Itoa(lane)+".fastq", pGenomeInBase, 0.2)
		var chainNodes []*mspg.Node
		var chainHeads, chainTails []wfdag.TaskID
		for c := 0; c < k; c++ {
			ids, node := b.chain(chainProfiles)
			chainNodes = append(chainNodes, node)
			chainHeads = append(chainHeads, ids[0])
			chainTails = append(chainTails, ids[len(ids)-1])
		}
		// fastQSplit fans one chunk file to each chain head. Chunks are
		// distinct files: fan-out without data sharing.
		for _, h := range chainHeads {
			b.wireOne(split, pFastQSplit, h)
		}
		merge, mergeNode := b.task(pMapMerge)
		b.wireSerial(chainTails, pMap, []wfdag.TaskID{merge})
		merges = append(merges, merge)
		laneNodes = append(laneNodes, mspg.NewSerial(
			splitNode,
			mspg.NewParallel(chainNodes...),
			mergeNode,
		))
	}
	index, indexNode := b.task(pMaqIndex)
	b.wireSerial(merges, pMapMerge, []wfdag.TaskID{index})
	pile, pileNode := b.task(pPileup)
	b.wireOne(index, pMaqIndex, pile)
	b.output(pile, pPileup)

	root := mspg.NewSerial(mspg.NewParallel(laneNodes...), indexNode, pileNode)
	w := &mspg.Workflow{Name: "genome-" + strconv.Itoa(b.g.NumTasks()), G: b.g, Root: root}
	if err := w.Validate(); err != nil {
		return nil, err
	}
	return w, nil
}

// genomeShape picks (lanes, chains-per-lane) so that lanes·(4k+2)+2 best
// approximates the requested task count, keeping lanes near √(n)/5 as in
// the PWG presets (few lanes, deep fan-out).
func genomeShape(n int) (lanes, k int) {
	bestLanes, bestK, bestErr := 1, 1, 1<<30
	for l := 1; l <= 8; l++ {
		kk := (n - 2 - 2*l) / (4 * l)
		if kk < 1 {
			continue
		}
		for _, cand := range []int{kk, kk + 1} {
			total := l*(4*cand+2) + 2
			err := total - n
			if err < 0 {
				err = -err
			}
			if err < bestErr {
				bestLanes, bestK, bestErr = l, cand, err
			}
		}
	}
	return bestLanes, bestK
}
