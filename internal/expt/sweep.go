// Package expt is the experiment harness that regenerates the paper's
// evaluation (§VI): the relative-expected-makespan sweeps of Figures
// 5/6/7, the estimator-accuracy study of §VI-B, the simulator
// cross-validation, and the ablations listed in DESIGN.md. Results are
// emitted as CSV rows and quick ASCII plots.
//
// All grid experiments run on the worker-pool Engine: cells are
// enumerated up front, fanned out over Workers goroutines (default
// GOMAXPROCS), and collected by cell index, so output is bit-identical
// to a serial run. Workflow generation is memoized per call, through a
// pegasus.Memo the call owns: each cell clones its workflow from that
// memo instead of regenerating it, and the memo is dropped when the
// call returns, so nothing generated outlives the sweep or study.
package expt

import (
	"context"
	"fmt"
	"math"
	"runtime"

	"repro/internal/ckpt"
	"repro/internal/core"
	"repro/internal/par"
	"repro/internal/pegasus"
	"repro/internal/platform"
)

// Row is one point of a Figure 5/6/7 sweep.
type Row struct {
	Family string
	Tasks  int // requested size (50/300/1000)
	Procs  int
	PFail  float64
	CCR    float64

	EMSome, EMAll, EMNone float64
	RelAll, RelNone       float64

	CheckpointsSome int
	Superchains     int
	WPar            float64
}

// SweepConfig describes one figure's parameter grid.
type SweepConfig struct {
	Family          string
	Sizes           []int
	PFails          []float64
	CCRMin          float64
	CCRMax          float64
	PointsPerDecade int
	Seed            int64
	// Bandwidth is arbitrary (CCR scaling absorbs it); default 1e8 B/s.
	Bandwidth float64
	// Ragged switches the Ligo generator to the PWG-artifact mode.
	Ragged bool
	// Procs restricts the processor counts; empty means the paper's
	// per-size counts (pegasus.PaperProcessorCounts).
	Procs []int
	// Workers sizes the grid worker pool; 0 means GOMAXPROCS.
	Workers int
}

func (c SweepConfig) withDefaults() SweepConfig {
	if len(c.Sizes) == 0 {
		c.Sizes = pegasus.PaperSizes()
	}
	if len(c.PFails) == 0 {
		c.PFails = pegasus.PaperPFails()
	}
	if c.PointsPerDecade == 0 {
		c.PointsPerDecade = 5
	}
	if c.Seed == 0 {
		c.Seed = 42
	}
	if c.Bandwidth == 0 {
		c.Bandwidth = 1e8
	}
	return c
}

// procsFor returns the processor counts swept for one workflow size.
func (c SweepConfig) procsFor(size int) []int {
	if len(c.Procs) > 0 {
		return c.Procs
	}
	return pegasus.PaperProcessorCounts(size)
}

// FigureConfig returns the paper's grid for the given family: Figure 5
// (GENOME, CCR 1e-4..1e-2), Figure 6 (MONTAGE, CCR 1e-3..1) or Figure 7
// (LIGO, CCR 1e-3..1).
func FigureConfig(family string) SweepConfig {
	c := SweepConfig{Family: family}
	switch family {
	case "genome":
		c.CCRMin, c.CCRMax = 1e-4, 1e-2
	default:
		c.CCRMin, c.CCRMax = 1e-3, 1
	}
	return c.withDefaults()
}

// CCRGrid returns log-spaced CCR values covering [min, max]. Each point
// is computed directly as min·10^(i/perDecade) — not by accumulating a
// log step, which drifts over several decades — so the lower endpoint
// is hit exactly and decade boundaries stay stable however wide the
// range is.
func CCRGrid(min, max float64, perDecade int) []float64 {
	if min <= 0 || max < min || perDecade <= 0 {
		return nil
	}
	var out []float64
	for i := 0; ; i++ {
		v := min * math.Pow(10, float64(i)/float64(perDecade))
		if v > max*(1+1e-9) {
			break
		}
		out = append(out, v)
	}
	return out
}

// gridPoint is one cell of a sweep grid.
type gridPoint struct {
	size  int
	procs int
	pfail float64
	ccr   float64
}

// enumerate lists the sweep's cells in canonical (size, procs, pfail,
// ccr) order — the order serial code iterated them in.
func (c SweepConfig) enumerate() []gridPoint {
	g := c.grid()
	pts := make([]gridPoint, g.cells)
	for i := range pts {
		pts[i] = g.point(i)
	}
	return pts
}

// cellGrid is a sweep grid indexed by cell number: the per-size block
// offsets are precomputed once so cell i's coordinates come from index
// arithmetic alone. StreamSweep walks it instead of a materialized cell
// list, keeping a million-cell request O(sizes), not O(cells), in grid
// memory.
type cellGrid struct {
	pfails []float64
	ccrs   []float64
	blocks []sizeBlock
	cells  int
}

// sizeBlock is the contiguous run of cells belonging to one workflow
// size (each size can sweep a different processor list).
type sizeBlock struct {
	size  int
	procs []int
	start int // first cell index of this block
}

// grid resolves the (already defaulted) config into its indexed form.
func (c SweepConfig) grid() cellGrid {
	g := cellGrid{
		pfails: c.PFails,
		ccrs:   CCRGrid(c.CCRMin, c.CCRMax, c.PointsPerDecade),
	}
	for _, size := range c.Sizes {
		procs := c.procsFor(size)
		g.blocks = append(g.blocks, sizeBlock{size: size, procs: procs, start: g.cells})
		g.cells += len(procs) * len(g.pfails) * len(g.ccrs)
	}
	return g
}

// point decodes cell i into its canonical (size, procs, pfail, ccr)
// coordinates.
func (g cellGrid) point(i int) gridPoint {
	b := g.blocks[0]
	for _, sb := range g.blocks[1:] {
		if i < sb.start {
			break
		}
		b = sb
	}
	off := i - b.start
	perProc := len(g.pfails) * len(g.ccrs)
	return gridPoint{
		size:  b.size,
		procs: b.procs[off/perProc],
		pfail: g.pfails[off%perProc/len(g.ccrs)],
		ccr:   g.ccrs[off%len(g.ccrs)],
	}
}

// NumCells returns how many cells the sweep's grid enumerates (after
// defaulting), without materializing them — servers use it to bound a
// requested grid before committing to run it.
func (c SweepConfig) NumCells() int {
	return c.withDefaults().grid().cells
}

// streamWindow bounds the reorder buffer of a streamed sweep: up to
// four completed rows per worker may wait for a straggling earlier
// cell before the pool stalls, so peak row memory is O(workers), never
// O(cells).
func streamWindow(workers int) int {
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	return 4 * workers
}

// StreamSweep evaluates the same grid as RunSweep but hands each row to
// emit in canonical cell order as soon as it (and every earlier cell)
// has been computed, instead of materializing the whole result. Cells
// still fan out over the worker pool; an index-window reorder buffer
// (par.EmitOrdered) restores grid order, and its bound means a sweep of
// any size holds only O(workers) completed rows at once. emit runs on a
// single goroutine; returning an error from it aborts the sweep. On
// error — a cell failure, a sink failure, cancellation — rows already
// emitted stay emitted and the stream is cut short, so a consumer that
// counted fewer rows than NumCells knows the sweep did not finish.
func StreamSweep(ctx context.Context, cfg SweepConfig, emit func(Row) error) error {
	cfg = cfg.withDefaults()
	g := cfg.grid()
	var memo pegasus.Memo // each size generates once per call
	return par.EmitOrdered(ctx, cfg.Workers, g.cells, streamWindow(cfg.Workers),
		func(i int) (Row, error) {
			p := g.point(i)
			return runPoint(ctx, cfg, &memo, p.size, p.procs, p.pfail, p.ccr)
		},
		func(_ int, row Row) error { return emit(row) })
}

// RunSweep evaluates the three strategies over the full grid of one
// figure. Each size's workflow is generated once per call; for each
// (size, procs, pfail, ccr) point it is cloned, its file sizes
// rescaled to hit the CCR, λ calibrated from pfail, one schedule
// built, and all three strategies evaluated on that shared schedule
// with PathApprox (the method of choice per §VI-B).
// It is the collect-all wrapper over StreamSweep: cells run on the
// worker pool and rows come back in grid order regardless of the worker
// count.
func RunSweep(ctx context.Context, cfg SweepConfig) ([]Row, error) {
	cfg = cfg.withDefaults()
	rows := make([]Row, 0, cfg.NumCells())
	if err := StreamSweep(ctx, cfg, func(r Row) error {
		rows = append(rows, r)
		return nil
	}); err != nil {
		return nil, err
	}
	return rows, nil
}

// RunPoint evaluates a single grid point.
func RunPoint(ctx context.Context, cfg SweepConfig, size, procs int, pfail, ccr float64) (Row, error) {
	return runPoint(ctx, cfg.withDefaults(), nil, size, procs, pfail, ccr)
}

// runPoint is RunPoint on a defaulted config, taking the point's
// workflow from memo (nil: generated afresh).
func runPoint(ctx context.Context, cfg SweepConfig, memo *pegasus.Memo, size, procs int, pfail, ccr float64) (Row, error) {
	w, err := memo.Generate(cfg.Family, pegasus.Options{Tasks: size, Seed: cfg.Seed, Ragged: cfg.Ragged})
	if err != nil {
		return Row{}, err
	}
	pf := platform.New(procs, 0, cfg.Bandwidth).WithLambdaForPFail(pfail, w.G)
	pf.ScaleToCCR(w.G, ccr)
	cmp, err := core.Compare(ctx, w, pf, core.Config{Estimator: ckpt.EstPathApprox, Seed: cfg.Seed})
	if err != nil {
		return Row{}, fmt.Errorf("expt: %s n=%d p=%d pfail=%g ccr=%g: %w", cfg.Family, size, procs, pfail, ccr, err)
	}
	return Row{
		Family: cfg.Family, Tasks: size, Procs: procs, PFail: pfail, CCR: ccr,
		EMSome: cmp.Some.ExpectedMakespan, EMAll: cmp.All.ExpectedMakespan, EMNone: cmp.None.ExpectedMakespan,
		RelAll: cmp.RelAll(), RelNone: cmp.RelNone(),
		CheckpointsSome: cmp.Some.Checkpoints, Superchains: cmp.Some.Superchains,
		WPar: cmp.Some.FailureFreeMakespan,
	}, nil
}

// Crossover scans a sorted-by-CCR series and reports the first CCR at
// which CkptNone beats CkptSome (RelNone < 1), or 0 when CkptSome wins
// everywhere.
func Crossover(rows []Row) float64 {
	for _, r := range rows {
		if r.RelNone < 1 {
			return r.CCR
		}
	}
	return 0
}
