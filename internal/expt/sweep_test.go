package expt

import (
	"context"
	"fmt"
	"math"
	"testing"

	"repro/internal/ckpt"
	"repro/internal/core"
	"repro/internal/pegasus"
	"repro/internal/platform"
)

// referenceRow computes the row of point p the serial cold way: a fresh
// workflow, calibrated inline rather than through core.Calibrate, and
// one core.Run per strategy, each running Algorithm 1 on the calibrated
// workflow.
func referenceRow(t *testing.T, cfg SweepConfig, p gridPoint) Row {
	t.Helper()
	w, err := pegasus.Generate(cfg.Family, pegasus.Options{Tasks: p.size, Seed: cfg.Seed, Ragged: cfg.Ragged})
	if err != nil {
		t.Fatal(err)
	}
	pf := platform.New(p.procs, 0, cfg.Bandwidth).WithLambdaForPFail(p.pfail, w.G)
	pf.ScaleToCCR(w.G, p.ccr)
	var res [3]*core.Result
	for i, st := range []ckpt.Strategy{ckpt.CkptSome, ckpt.CkptAll, ckpt.CkptNone} {
		if res[i], err = core.Run(context.Background(), w, pf, core.Config{Strategy: st, Estimator: ckpt.EstPathApprox, Seed: cfg.Seed}); err != nil {
			t.Fatal(err)
		}
	}
	return Row{
		Family: cfg.Family, Tasks: p.size, Procs: p.procs, PFail: p.pfail, CCR: p.ccr,
		EMSome: res[0].ExpectedMakespan, EMAll: res[1].ExpectedMakespan, EMNone: res[2].ExpectedMakespan,
		CheckpointsSome: res[0].Checkpoints, Superchains: res[0].Superchains, WPar: res[0].FailureFreeMakespan,
	}
}

// rowBits renders the fields of a row the reference pins, floats as
// their bit patterns.
func rowBits(r Row) string {
	return fmt.Sprintf("%s n=%d p=%d pfail=%x ccr=%x em=%x/%x/%x ckpt=%d chains=%d wpar=%x",
		r.Family, r.Tasks, r.Procs, math.Float64bits(r.PFail), math.Float64bits(r.CCR),
		math.Float64bits(r.EMSome), math.Float64bits(r.EMAll), math.Float64bits(r.EMNone),
		r.CheckpointsSome, r.Superchains, math.Float64bits(r.WPar))
}

// TestSweepRowsMatchColdReference demands that every way to get a sweep
// row — RunSweep serial and parallel, StreamSweep, RunPoint — equals the
// serial cold reference bit for bit, for every family (ragged LIGO too)
// over a grid with several sizes, processor counts, pfails and CCRs. A
// sweep that shared one scaffold per size across processor counts, or
// let a cell calibrate the shared scaffold in place, would fail it.
func TestSweepRowsMatchColdReference(t *testing.T) {
	ctx := context.Background()
	type family struct {
		name   string
		ragged bool
	}
	var families []family
	for _, f := range pegasus.Families() {
		families = append(families, family{f, false})
	}
	families = append(families, family{"ligo", true})
	for _, f := range families {
		cfg := SweepConfig{
			Family: f.name, Ragged: f.ragged, Sizes: []int{30, 50}, Procs: []int{3, 5},
			PFails: []float64{0.001, 0.01}, CCRMin: 1e-3, CCRMax: 1e-1, PointsPerDecade: 1, Seed: 7,
		}.withDefaults()
		g := cfg.grid()
		if g.cells != 2*2*2*3 {
			t.Fatalf("grid has %d cells, want 24", g.cells)
		}
		pts := make([]gridPoint, g.cells)
		for i := range pts {
			pts[i] = g.point(i)
		}
		want := make([]string, len(pts))
		for i, p := range pts {
			want[i] = rowBits(referenceRow(t, cfg, p))
		}
		check := func(path string, rows []Row) {
			t.Helper()
			if len(rows) != len(want) {
				t.Fatalf("%s ragged=%v %s: %d rows, want %d", f.name, f.ragged, path, len(rows), len(want))
			}
			for i, r := range rows {
				if got := rowBits(r); got != want[i] {
					t.Errorf("%s ragged=%v %s: row %d differs from the cold reference:\n got %s\nwant %s", f.name, f.ragged, path, i, got, want[i])
				}
			}
		}
		for _, workers := range []int{1, 4} {
			c := cfg
			c.Workers = workers
			rows, err := RunSweep(ctx, c)
			if err != nil {
				t.Fatal(err)
			}
			check(fmt.Sprintf("RunSweep workers=%d", workers), rows)
		}
		var streamed []Row
		if err := StreamSweep(ctx, cfg, func(r Row) error {
			streamed = append(streamed, r)
			return nil
		}); err != nil {
			t.Fatal(err)
		}
		check("StreamSweep", streamed)
		points := make([]Row, len(pts))
		for i, p := range pts {
			r, err := RunPoint(ctx, cfg, p.size, p.procs, p.pfail, p.ccr)
			if err != nil {
				t.Fatal(err)
			}
			points[i] = r
		}
		check("RunPoint", points)
	}
}

// TestStreamSweepReleasesScaffolds pins the sweep's memory bound: a
// (size, procs) slot drops its scaffold once the last of its cells has
// taken a copy, so when that cell's row is emitted no slot up to its
// own still holds one.
func TestStreamSweepReleasesScaffolds(t *testing.T) {
	procs := make([]int, 50)
	for i := range procs {
		procs[i] = i + 1
	}
	cfg := SweepConfig{
		Family: "genome", Sizes: []int{50}, Procs: procs, PFails: []float64{0.001},
		CCRMin: 1e-3, CCRMax: 1e-2, PointsPerDecade: 1, Seed: 3,
	}
	for _, workers := range []int{1, 4} {
		cfg.Workers = workers
		sw := newSweep(cfg)
		perProc := sw.perProc
		if len(sw.slots) != len(procs) || perProc != 2 {
			t.Fatalf("%d slots of %d cells, want %d of 2", len(sw.slots), perProc, len(procs))
		}
		emitted := 0
		err := sw.stream(context.Background(), func(i int, _ Row) error {
			emitted++
			if (i+1)%perProc != 0 {
				return nil
			}
			for k := 0; k <= i/perProc; k++ {
				if sw.slots[k].sf != nil {
					return fmt.Errorf("row %d emitted while slot %d (procs=%d) still holds its scaffold", i, k, procs[k])
				}
			}
			return nil
		})
		if err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		if emitted != sw.grid.cells {
			t.Fatalf("workers=%d: emitted %d of %d rows", workers, emitted, sw.grid.cells)
		}
	}
}
