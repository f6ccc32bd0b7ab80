package expt

import (
	"context"
	"errors"
	"reflect"
	"testing"
)

// stripElapsed clears the wall-clock field, the only legitimately
// nondeterministic part of an accuracy row.
func stripElapsed(rows []AccuracyRow) []AccuracyRow {
	out := append([]AccuracyRow(nil), rows...)
	for i := range out {
		out[i].Elapsed = 0
	}
	return out
}

func TestRunSweepParallelBitIdentical(t *testing.T) {
	cfg := SweepConfig{
		Family: "genome", Sizes: []int{50}, PFails: []float64{0.01, 0.001},
		CCRMin: 1e-3, CCRMax: 1e-2, PointsPerDecade: 2, Seed: 3,
	}
	cfg.Workers = 1
	serial, err := RunSweep(context.Background(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	for _, workers := range []int{2, 8} {
		cfg.Workers = workers
		par, err := RunSweep(context.Background(), cfg)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(par, serial) {
			t.Fatalf("workers=%d rows differ from serial run", workers)
		}
	}
}

func TestRunAccuracyParallelBitIdentical(t *testing.T) {
	cfg := AccuracyConfig{
		Families: []string{"genome", "montage"}, Sizes: []int{50},
		PFails: []float64{0.001}, TruthTrials: 9000, Seed: 3,
	}
	cfg.Workers = 1
	serial, err := RunAccuracy(context.Background(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	cfg.Workers = 4
	par, err := RunAccuracy(context.Background(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(stripElapsed(par), stripElapsed(serial)) {
		t.Fatal("parallel accuracy rows differ from serial run")
	}
}

func TestRunSimCheckParallelBitIdentical(t *testing.T) {
	cfg := SimCheckConfig{
		Families: []string{"genome", "ligo"}, Tasks: 50, Procs: 5,
		PFails: []float64{0.001}, CCR: 0.01, Trials: 200, Seed: 3,
	}
	cfg.Workers = 1
	serial, err := RunSimCheck(context.Background(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	cfg.Workers = 4
	par, err := RunSimCheck(context.Background(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(par, serial) {
		t.Fatal("parallel simcheck rows differ from serial run")
	}
}

func TestSweepConfigProcsOverride(t *testing.T) {
	cfg := SweepConfig{
		Family: "genome", Sizes: []int{50}, PFails: []float64{0.001},
		CCRMin: 1e-3, CCRMax: 1e-2, PointsPerDecade: 2, Seed: 3,
		Procs: []int{5},
	}
	rows, err := RunSweep(context.Background(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	// 1 size × 1 proc count × 1 pfail × 3 CCRs.
	if len(rows) != 3 {
		t.Fatalf("rows = %d", len(rows))
	}
	for _, r := range rows {
		if r.Procs != 5 {
			t.Fatalf("procs = %d", r.Procs)
		}
	}
}

func TestCCRGridEndpointsExact(t *testing.T) {
	// 7 decades at 5/decade: the drifting accumulator missed decade
	// boundaries by growing float error; the indexed form cannot.
	grid := CCRGrid(1e-6, 10, 5)
	if len(grid) != 36 {
		t.Fatalf("7 decades at 5/decade: %d points", len(grid))
	}
	if grid[0] != 1e-6 {
		t.Fatalf("low endpoint %g", grid[0])
	}
	for d := 0; d < 7; d++ {
		if got, want := grid[5*d], 1e-6*pow10(d); relDiff(got, want) > 1e-12 {
			t.Fatalf("decade %d: %g, want %g", d, got, want)
		}
	}
}

func pow10(d int) float64 {
	out := 1.0
	for i := 0; i < d; i++ {
		out *= 10
	}
	return out
}

func relDiff(a, b float64) float64 {
	d := a - b
	if d < 0 {
		d = -d
	}
	return d / b
}

// TestGridPointMatchesEnumerate cross-checks the index-arithmetic cell
// decode against the nested-loop enumeration it replaced, on a grid
// with per-size processor lists of different lengths.
func TestGridPointMatchesEnumerate(t *testing.T) {
	cfg := SweepConfig{
		Family: "genome", Sizes: []int{50, 300}, PFails: []float64{0.01, 0.001, 0.0001},
		CCRMin: 1e-3, CCRMax: 1e-1, PointsPerDecade: 3, Seed: 3,
	}.withDefaults()
	g := cfg.grid()
	want := func() []gridPoint {
		ccrs := CCRGrid(cfg.CCRMin, cfg.CCRMax, cfg.PointsPerDecade)
		var pts []gridPoint
		for _, size := range cfg.Sizes {
			for _, procs := range cfg.procsFor(size) {
				for _, pfail := range cfg.PFails {
					for _, ccr := range ccrs {
						pts = append(pts, gridPoint{size, procs, pfail, ccr})
					}
				}
			}
		}
		return pts
	}()
	if g.cells != len(want) {
		t.Fatalf("grid has %d cells, nested loops give %d", g.cells, len(want))
	}
	got := make([]gridPoint, g.cells)
	for i := range got {
		got[i] = g.point(i)
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatal("point(i) differs from the nested-loop order")
	}
	if n := cfg.NumCells(); n != len(want) {
		t.Fatalf("NumCells() = %d, want %d", n, len(want))
	}
}

// TestStreamSweepMatchesRunSweep pins the streaming contract: rows
// handed to emit arrive in canonical grid order and are identical to
// the collected RunSweep result, for every worker count.
func TestStreamSweepMatchesRunSweep(t *testing.T) {
	cfg := SweepConfig{
		Family: "genome", Sizes: []int{50}, PFails: []float64{0.01, 0.001},
		CCRMin: 1e-3, CCRMax: 1e-2, PointsPerDecade: 2, Seed: 3,
	}
	cfg.Workers = 1
	want, err := RunSweep(context.Background(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	for _, workers := range []int{1, 2, 8} {
		cfg.Workers = workers
		var got []Row
		if err := StreamSweep(context.Background(), cfg, func(r Row) error {
			got = append(got, r)
			return nil
		}); err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("workers=%d: streamed rows differ from RunSweep", workers)
		}
	}
}

// TestStreamSweepCancellation cancels mid-stream and checks the emitted
// prefix stays a clean, ordered cut of the full row set.
func TestStreamSweepCancellation(t *testing.T) {
	cfg := SweepConfig{
		Family: "genome", Sizes: []int{50}, PFails: []float64{0.01, 0.001},
		CCRMin: 1e-3, CCRMax: 1e-1, PointsPerDecade: 5, Seed: 3, Workers: 4,
	}
	full, err := RunSweep(context.Background(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	var got []Row
	err = StreamSweep(ctx, cfg, func(r Row) error {
		got = append(got, r)
		if len(got) == 3 {
			cancel()
		}
		return nil
	})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	if len(got) >= len(full) {
		t.Fatalf("emitted all %d rows despite cancellation", len(got))
	}
	if !reflect.DeepEqual(got, full[:len(got)]) {
		t.Fatal("cancelled stream is not a prefix of the full row set")
	}
}

// TestStreamSweepEmitErrorAborts pins that a failing sink stops the
// sweep with that error rather than running the grid to completion.
func TestStreamSweepEmitErrorAborts(t *testing.T) {
	sink := errors.New("sink closed")
	cfg := SweepConfig{
		Family: "genome", Sizes: []int{50}, PFails: []float64{0.01, 0.001},
		CCRMin: 1e-3, CCRMax: 1e-1, PointsPerDecade: 5, Seed: 3, Workers: 4,
	}
	emitted := 0
	err := StreamSweep(context.Background(), cfg, func(Row) error {
		emitted++
		if emitted == 2 {
			return sink
		}
		return nil
	})
	if !errors.Is(err, sink) {
		t.Fatalf("err = %v, want the sink error", err)
	}
}
