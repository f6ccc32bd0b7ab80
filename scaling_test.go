//go:build scaling

package hanccr

// The wall-clock gates behind `make bench-scaling` and CI's
// parallel-scaling job. They time the §VI sweep grid (buffered and
// streamed), the simulator's trial fan-out and Service.Batch at one
// worker against NumCPU workers, and a batch of parameter variants of
// one structure against an equal batch of cold structures. Every timed
// workload is bit-identical across worker counts (pinned by the rest of
// the suite); these tests only measure time, so they sit behind the
// scaling build tag and never run under `go test ./...` or -race.

import (
	"context"
	"fmt"
	"runtime"
	"testing"
	"time"

	"repro/internal/expt"
)

const (
	// scalingReps timed runs per side; the fastest counts.
	scalingReps = 3
	// minSpeedup is the floor every gated ratio must reach.
	minSpeedup = 1.0
)

// needMulticore skips on a single-core host, where a speedup proves
// nothing.
func needMulticore(t *testing.T) int {
	t.Helper()
	ncpu := runtime.NumCPU()
	if ncpu < 2 {
		t.Skipf("NumCPU = %d: parallel speedups are not observable", ncpu)
	}
	return ncpu
}

// bestOf runs the fns in turn, scalingReps rounds, and returns each
// one's fastest wall clock: the best run strips scheduler noise from a
// throughput measurement, and the interleaving spreads any drift of
// the host over every side alike.
func bestOf(t *testing.T, fns ...func() error) []time.Duration {
	t.Helper()
	best := make([]time.Duration, len(fns))
	for r := 0; r < scalingReps; r++ {
		for i, fn := range fns {
			start := time.Now()
			if err := fn(); err != nil {
				t.Fatal(err)
			}
			if d := time.Since(start); best[i] == 0 || d < best[i] {
				best[i] = d
			}
		}
	}
	return best
}

// checkSpeedup logs one ratio and fails the test when it is below
// minSpeedup.
func checkSpeedup(t *testing.T, name string, slow, fast time.Duration) {
	t.Helper()
	speedup := slow.Seconds() / fast.Seconds()
	t.Logf("%-16s %8.3fs -> %8.3fs speedup=%5.2fx", name, slow.Seconds(), fast.Seconds(), speedup)
	if speedup < minSpeedup {
		t.Errorf("%s: speedup %.2fx < %.2f", name, speedup, minSpeedup)
	}
}

// TestParallelScaling fails when any hot path runs slower at NumCPU
// workers than at one.
func TestParallelScaling(t *testing.T) {
	ncpu := needMulticore(t)
	ctx := context.Background()
	for _, p := range []struct {
		name string
		run  func(ctx context.Context, workers int) error
	}{
		{"sweep", runSweepPanel},
		{"sweep-stream", runStreamPanel},
		{"sim", simPanel(t, ctx)},
		{"batch", runBatchPanel},
	} {
		// One untimed warm-up. It only warms the runtime: no generated
		// workflow outlives the sweep or batch that made it, so serial
		// and parallel runs each do the same generation.
		if err := p.run(ctx, ncpu); err != nil {
			t.Fatalf("%s warm-up: %v", p.name, err)
		}
		d := bestOf(t,
			func() error { return p.run(ctx, 1) },
			func() error { return p.run(ctx, ncpu) })
		checkSpeedup(t, fmt.Sprintf("%s x%d", p.name, ncpu), d[0], d[1])
	}
}

// sweepPanelConfig is the grid of both sweep panels: the MONTAGE
// figure ranges at two sizes, a few seconds serially on a CI runner.
func sweepPanelConfig(workers int) expt.SweepConfig {
	return expt.SweepConfig{
		Family:          "montage",
		Sizes:           []int{50, 300},
		PFails:          []float64{1e-4, 1e-3},
		CCRMin:          1e-3,
		CCRMax:          1,
		PointsPerDecade: 10,
		Seed:            42,
		Workers:         workers,
	}
}

func runSweepPanel(ctx context.Context, workers int) error {
	_, err := expt.RunSweep(ctx, sweepPanelConfig(workers))
	return err
}

// runStreamPanel drives the same grid through the ordered streaming
// path, discarding each row at emission the way an NDJSON response
// hands it to the socket.
func runStreamPanel(ctx context.Context, workers int) error {
	return expt.StreamSweep(ctx, sweepPanelConfig(workers), func(expt.Row) error { return nil })
}

// simPanel plans one paper-sized scenario once and returns a runner
// that fans simulator trials over the worker pool.
func simPanel(t *testing.T, ctx context.Context) func(context.Context, int) error {
	plan, err := NewPlan(ctx, NewScenario(
		WithFamily("genome"), WithTasks(300), WithProcs(35),
		WithPFail(0.001), WithCCR(0.01),
	))
	if err != nil {
		t.Fatal(err)
	}
	return func(ctx context.Context, workers int) error {
		_, err := plan.Simulate(ctx, WithSimTrials(400000), WithSimWorkers(workers))
		return err
	}
}

// runBatchPanel cold-plans 32 distinct scenarios through a fresh
// sharded Service.Batch: generation, scheduling and checkpoint
// placement per job, since nothing outlives a Service.
func runBatchPanel(ctx context.Context, workers int) error {
	families := []string{"genome", "montage", "ligo", "cybershake"}
	jobs := make([]Job, 32)
	for i := range jobs {
		jobs[i] = Job{Kind: JobPlan, Scenario: NewScenario(
			WithFamily(families[i%len(families)]),
			WithTasks(1000), WithProcs(70),
			WithSeed(int64(1+i/len(families))),
			WithCCR(0.01),
		)}
	}
	_, err := runScalingBatch(ctx, jobs, workers)
	return err
}

// runScalingBatch runs jobs through a fresh 16-shard Service and
// returns it for its counters.
func runScalingBatch(ctx context.Context, jobs []Job, workers int) (*Service, error) {
	svc := NewService(WithShards(16))
	results, err := svc.Batch(ctx, jobs, WithBatchWorkers(workers))
	if err != nil {
		return nil, err
	}
	for i, r := range results {
		if r.Err != nil {
			return nil, fmt.Errorf("job %d: %w", i, r.Err)
		}
	}
	return svc, nil
}

// TestNearDupFastPath times a 32-plan batch of parameter variants of
// one structure (one seed, a grid of pfail/ccr/strategy tails) against
// a 32-plan batch of distinct structures (32 seeds, one parameter point
// each), both at NumCPU workers on a fresh service per run. The cold
// side generates, schedules and runs the tail for every job; the
// near-dup side does all three once and then only the tail, so it must
// be faster, and its counters must show the fast path engaged.
func TestNearDupFastPath(t *testing.T) {
	ncpu := needMulticore(t)
	ctx := context.Background()
	const n = 32
	strategies := []Strategy{CkptSome, CkptAll, CkptNone}
	cold := make([]Job, n)
	near := make([]Job, n)
	for i := 0; i < n; i++ {
		cold[i] = Job{Kind: JobPlan, Scenario: NewScenario(
			WithFamily("genome"), WithTasks(300), WithProcs(35),
			WithSeed(int64(1+i)),
		)}
		near[i] = Job{Kind: JobPlan, Scenario: NewScenario(
			WithFamily("genome"), WithTasks(300), WithProcs(35),
			WithSeed(1),
			WithPFail(0.0001*float64(1+i%8)), WithCCR(0.01*float64(1+i/8)),
			WithStrategy(strategies[i%len(strategies)]),
		)}
	}
	// One untimed warm-up of each side.
	for _, jobs := range [][]Job{cold, near} {
		if _, err := runScalingBatch(ctx, jobs, ncpu); err != nil {
			t.Fatalf("warm-up: %v", err)
		}
	}
	d := bestOf(t, func() error {
		svc, err := runScalingBatch(ctx, cold, ncpu)
		if err != nil {
			return err
		}
		if hits := svc.Stats().StructureHits; hits != 0 {
			return fmt.Errorf("cold side recorded %d structure hits over distinct structures, want 0", hits)
		}
		return nil
	}, func() error {
		svc, err := runScalingBatch(ctx, near, ncpu)
		if err != nil {
			return err
		}
		// Every key is unique, so exactly one request built the
		// scaffold and the other n-1 took the fast path, whatever the
		// worker interleaving.
		if st := svc.Stats(); st.StructureHits != n-1 || st.Misses != n {
			return fmt.Errorf("near-dup side: %d structure hits / %d misses, want %d / %d",
				st.StructureHits, st.Misses, n-1, n)
		}
		return nil
	})
	checkSpeedup(t, fmt.Sprintf("near-dup %dx%d", n, n), d[0], d[1])
}
