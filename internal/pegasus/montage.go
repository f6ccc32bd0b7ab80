package pegasus

import (
	"fmt"
	"strconv"

	"repro/internal/mspg"
	"repro/internal/wfdag"
)

// Montage generates an astronomy mosaic workflow (Bharathi et al. §IV-A):
//
//	mProjectPP (width a, parallel)       re-projection of input images
//	mDiffFit   (≈a, grouped bipartite)   overlap difference fitting
//	mConcatFit (1)                       fit aggregation
//	mBgModel   (1)                       background model
//	mBackground(a, parallel)             background correction
//	mImgtbl    (1)                       image table
//	mAdd       (1)                       co-addition
//	mShrink    (⌈a/2⌉, parallel)         tile shrinking
//	mJPEG      (1)                       final image
//
// The mProject→mDiffFit overlap structure is modelled as blocks of
// neighbouring images: each block of up to blockSize projections feeds a
// block of the same number of mDiffFit tasks as a complete bipartite
// sub-M-SPG (the parallel composition of these blocks is exactly how the
// PWG output decomposes as an M-SPG). The approximate task total is
// matched by solving for the width a.
func Montage(opts Options) (*mspg.Workflow, error) {
	opts = opts.withDefaults()
	if opts.Tasks < 9 {
		return nil, fmt.Errorf("pegasus: montage needs at least 9 tasks, got %d", opts.Tasks)
	}
	b := newBuilder(opts.Seed)
	// Fixed tasks: mConcatFit, mBgModel, mImgtbl, mAdd, mJPEG = 5.
	// Variable: a (mProject) + a (mDiffFit) + a (mBackground) + a/2 (mShrink).
	a := (opts.Tasks - 5) * 2 / 7
	if a < 1 {
		a = 1
	}
	blockSize := 3

	proj, projNodes := b.tasks(pMProject, a)
	for _, t := range proj {
		b.input(t, "region_"+itoa(t)+".fits", 4.2e6, 0.2)
	}
	diff, diffNodes := b.tasks(pMDiffFit, a)

	// Blocks: parallel composition of complete-bipartite sub-M-SPGs.
	var blocks []*mspg.Node
	for start := 0; start < a; start += blockSize {
		end := start + blockSize
		if end > a {
			end = a
		}
		b.wireSerial(proj[start:end], pMProject, diff[start:end])
		blocks = append(blocks, mspg.NewSerial(
			mspg.NewParallel(projNodes[start:end]...),
			mspg.NewParallel(diffNodes[start:end]...),
		))
	}
	stage1 := mspg.NewParallel(blocks...)

	concat, concatNode := b.task(pMConcatFit)
	b.wireSerial(diff, pMDiffFit, []wfdag.TaskID{concat})

	bgModel, bgModelNode := b.task(pMBgModel)
	b.wireOne(concat, pMConcatFit, bgModel)

	backg, backgNodes := b.tasks(pMBackgrnd, a)
	b.wireSerial([]wfdag.TaskID{bgModel}, pMBgModel, backg)

	imgtbl, imgtblNode := b.task(pMImgtbl)
	b.wireSerial(backg, pMBackgrnd, []wfdag.TaskID{imgtbl})

	madd, maddNode := b.task(pMAdd)
	b.wireOne(imgtbl, pMImgtbl, madd)

	nShrink := (a + 1) / 2
	shrink, shrinkNodes := b.tasks(pMShrink, nShrink)
	b.wireSerial([]wfdag.TaskID{madd}, pMAdd, shrink)

	jpeg, jpegNode := b.task(pMJPEG)
	b.wireSerial(shrink, pMShrink, []wfdag.TaskID{jpeg})
	b.output(jpeg, pMJPEG)

	root := mspg.NewSerial(
		stage1,
		concatNode,
		bgModelNode,
		mspg.NewParallel(backgNodes...),
		imgtblNode,
		maddNode,
		mspg.NewParallel(shrinkNodes...),
		jpegNode,
	)
	w := &mspg.Workflow{Name: "montage-" + strconv.Itoa(b.g.NumTasks()), G: b.g, Root: root}
	if err := w.Validate(); err != nil {
		return nil, err
	}
	return w, nil
}
