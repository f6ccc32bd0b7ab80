// Package expt is the experiment harness that regenerates the paper's
// evaluation (§VI): the relative-expected-makespan sweeps of Figures
// 5/6/7, the estimator-accuracy study of §VI-B, the simulator
// cross-validation, and the ablations listed in DESIGN.md. Results are
// emitted as CSV rows and quick ASCII plots.
//
// Every grid experiment enumerates its cells up front and fans them
// out over Workers goroutines (default GOMAXPROCS) with internal/par:
// RunAccuracy and RunSimCheck with par.ForEachCtx, each cell writing
// its own index-addressed rows, and the sweeps with par.EmitOrdered,
// which emits rows in grid order; so output is bit-identical to a
// serial run. Workflow generation is memoized per call, through a
// pegasus.Memo the call owns: each cell clones its workflow from that
// memo instead of regenerating it, and the memo is dropped when the
// call returns, so nothing generated outlives the sweep or study.
// Sweeps run internal/core's stage list: Algorithm 1 once per (size,
// procs) into a core.Scaffold, then each (pfail, CCR) cell calibrates
// and rebuilds a private copy of it.
package expt

import (
	"context"
	"fmt"
	"math"
	"runtime"
	"sync"
	"sync/atomic"

	"repro/internal/ckpt"
	"repro/internal/core"
	"repro/internal/par"
	"repro/internal/pegasus"
	"repro/internal/sched"
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
	return newSweep(cfg).stream(ctx, func(_ int, row Row) error { return emit(row) })
}

// sweep is one StreamSweep call. Slot k holds the scaffold of the k-th
// (size, procs) pair, whose cells are the perProc cells from
// k·perProc: the first of them to arrive builds it, the last to take
// its copy drops it. par.EmitOrdered keeps at most a window of cells in
// flight, so a sweep holds O(window) scaffolds, not one per pair.
type sweep struct {
	cfg     SweepConfig
	grid    cellGrid
	perProc int
	memo    pegasus.Memo // each size generates once per call
	slots   []scaffoldSlot
}

type scaffoldSlot struct {
	once  sync.Once
	sf    *core.Scaffold
	err   error
	taken atomic.Int64
}

func newSweep(cfg SweepConfig) *sweep {
	cfg = cfg.withDefaults()
	sw := &sweep{cfg: cfg, grid: cfg.grid()}
	if sw.perProc = len(sw.grid.pfails) * len(sw.grid.ccrs); sw.perProc > 0 {
		sw.slots = make([]scaffoldSlot, sw.grid.cells/sw.perProc)
	}
	return sw
}

// stream runs every cell on a copy of its slot's scaffold and hands the
// rows to emit in cell order.
func (sw *sweep) stream(ctx context.Context, emit func(i int, row Row) error) error {
	return par.EmitOrdered(ctx, sw.cfg.Workers, sw.grid.cells, streamWindow(sw.cfg.Workers),
		func(i int) (Row, error) {
			p := sw.grid.point(i)
			slot := &sw.slots[i/sw.perProc]
			slot.once.Do(func() { slot.sf, slot.err = newScaffold(sw.cfg, &sw.memo, p.size, p.procs) })
			sf, err := slot.sf, slot.err
			if err == nil {
				sf = sf.Copy()
			}
			if slot.taken.Add(1) == int64(sw.perProc) {
				slot.sf = nil // every cell of the pair has its copy
			}
			return runPoint(ctx, sw.cfg, p, sf, err)
		}, emit)
}

// RunSweep evaluates the three strategies over the full grid of one
// figure. Algorithm 1 runs once per (size, procs), on the size's
// workflow generated once per call; each (pfail, ccr) cell then
// calibrates a private copy of that scaffold (λ from pfail, file sizes
// rescaled to the CCR), rebuilds the schedule and evaluates all three
// strategies on it with PathApprox (the method of choice per §VI-B).
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

// RunPoint evaluates a single grid point on a scaffold of its own.
func RunPoint(ctx context.Context, cfg SweepConfig, size, procs int, pfail, ccr float64) (Row, error) {
	cfg = cfg.withDefaults()
	sf, err := newScaffold(cfg, nil, size, procs)
	return runPoint(ctx, cfg, gridPoint{size: size, procs: procs, pfail: pfail, ccr: ccr}, sf, err)
}

// newScaffold runs Algorithm 1 for one (size, procs) pair of a
// defaulted config on a workflow drawn from memo (nil: generated
// afresh).
func newScaffold(cfg SweepConfig, memo *pegasus.Memo, size, procs int) (*core.Scaffold, error) {
	w, err := memo.Generate(cfg.Family, pegasus.Options{Tasks: size, Seed: cfg.Seed, Ragged: cfg.Ragged})
	if err != nil {
		return nil, err
	}
	return core.NewScaffold(w, procs, cfg.Bandwidth, cfg.Seed)
}

// runPoint evaluates point p on sf, a private scaffold for p's (size,
// procs): stage 3 and the three strategies on the one rebuilt
// schedule. err is the failure to build sf, if any; every failure is
// labelled with p.
func runPoint(ctx context.Context, cfg SweepConfig, p gridPoint, sf *core.Scaffold, err error) (Row, error) {
	var cmp core.Comparison
	if err == nil {
		var s *sched.Schedule
		if s, err = sf.Rebuild(core.Params{Procs: p.procs, Bandwidth: cfg.Bandwidth, PFail: p.pfail, CCR: p.ccr}); err == nil {
			cmp, err = core.CompareOnSchedule(ctx, s, s.P, core.Config{Estimator: ckpt.EstPathApprox, Seed: cfg.Seed})
		}
	}
	if err != nil {
		return Row{}, fmt.Errorf("expt: %s n=%d p=%d pfail=%g ccr=%g: %w", cfg.Family, p.size, p.procs, p.pfail, p.ccr, err)
	}
	return Row{
		Family: cfg.Family, Tasks: p.size, Procs: p.procs, PFail: p.pfail, CCR: p.ccr,
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
