// Package par provides the deterministic parallel-for primitive shared
// by the experiment engine (internal/expt) and the core façade: work
// items are handed out by ascending index to a fixed goroutine pool and
// callers write results into index-addressed slots, so output never
// depends on the worker count or completion order.
package par

import (
	"context"
	"runtime"
	"sync"
	"sync/atomic"
)

// ForEachCtx runs fn(0), …, fn(n-1) on a pool of the given size (0 or
// less selects GOMAXPROCS). fn must write its result into an
// index-addressed slot of a caller-owned slice — never append in
// arrival order. On failure the error with the smallest index among the
// executed items is returned (what a serial loop stopping at the first
// error reports) and remaining items may be skipped. Cancellation is
// observed between work items on every worker, remaining items are
// skipped, and the context's error is returned (unless an earlier item
// already failed at a smaller index).
func ForEachCtx(ctx context.Context, workers, n int, fn func(i int) error) error {
	return ForEachWithCtx(ctx, workers, n,
		func() struct{} { return struct{}{} },
		func(_ struct{}, i int) error { return fn(i) })
}

// ForEachWithCtx is ForEachCtx with per-goroutine scratch: setup runs
// once on every worker goroutine (once total in the serial case) and
// its result is handed to each fn call that goroutine executes. It is
// the shape the trial-chunked simulator and Monte Carlo use — one
// reusable scratch state per goroutine, work items fanned by ascending
// index. The cancellation check sits between work items — a running fn
// is never interrupted, so index-addressed slots written before
// cancellation are still valid.
func ForEachWithCtx[S any](ctx context.Context, workers, n int, setup func() S, fn func(s S, i int) error) error {
	if n <= 0 {
		return ctx.Err()
	}
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	if workers > n {
		workers = n
	}
	if workers == 1 {
		s := setup()
		for i := 0; i < n; i++ {
			if err := ctx.Err(); err != nil {
				return err
			}
			if err := fn(s, i); err != nil {
				return err
			}
		}
		return nil
	}
	errs := make([]error, n)
	var next atomic.Int64
	var failed atomic.Bool
	var wg sync.WaitGroup
	for k := 0; k < workers; k++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			s := setup()
			for {
				i := int(next.Add(1)) - 1
				if i >= n || failed.Load() {
					return
				}
				if err := ctx.Err(); err != nil {
					errs[i] = err
					failed.Store(true)
					return
				}
				if err := fn(s, i); err != nil {
					errs[i] = err
					failed.Store(true)
				}
			}
		}()
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return err
		}
	}
	return nil
}

// MapCtx runs fn(0), …, fn(n-1) on a pool of the given size and
// collects the results by index: out[i] is fn(i)'s value, whatever the
// worker count or completion order. It is the collection shape
// Service.Batch and the warm-up replay use — ForEachCtx with the
// index-addressed result slice owned here instead of by the caller.
// On error the first-index failure is returned and the slice is nil.
func MapCtx[T any](ctx context.Context, workers, n int, fn func(i int) (T, error)) ([]T, error) {
	out := make([]T, n)
	err := ForEachCtx(ctx, workers, n, func(i int) error {
		v, err := fn(i)
		if err != nil {
			return err
		}
		out[i] = v
		return nil
	})
	if err != nil {
		return nil, err
	}
	return out, nil
}

// EmitOrdered runs fn(0), …, fn(n-1) on a pool of the given size and
// hands every result to emit in ascending index order — the streaming
// shape of expt.StreamSweep. Unlike MapCtx it never materializes all n
// results: a completed result parks in a reorder buffer only until
// every smaller index has been emitted, and a worker may not claim a
// new index while `window` results are in flight or parked, so peak
// memory is O(window) whatever n is. A window below the worker count
// is raised to it (the pool needs one slot per goroutine to run at
// all). emit is called from a single goroutine, never concurrently
// with itself.
//
// Errors keep the ForEachCtx contract: an fn failure (or a cancellation
// observed between work items) with the smallest index wins, remaining
// items are skipped, and rows already handed to emit stay emitted — the
// stream is simply cut short. An emit failure aborts the run and is
// returned as-is: it is necessarily the smallest-index failure, since
// an index whose fn failed never reached the sink, so the emit cursor
// cannot have passed it.
func EmitOrdered[T any](ctx context.Context, workers, n, window int, fn func(i int) (T, error), emit func(i int, v T) error) error {
	if n <= 0 {
		return ctx.Err()
	}
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	if workers > n {
		workers = n
	}
	if window < workers {
		window = workers
	}
	if window > n {
		window = n
	}
	if workers == 1 {
		for i := 0; i < n; i++ {
			if err := ctx.Err(); err != nil {
				return err
			}
			v, err := fn(i)
			if err != nil {
				return err
			}
			if err := emit(i, v); err != nil {
				return err
			}
		}
		return nil
	}

	type slot struct {
		i int
		v T
	}
	var (
		next     atomic.Int64
		failed   atomic.Bool
		stop     = make(chan struct{})
		stopOnce sync.Once
		// Unlike ForEachCtx's index-addressed errs slice, only the
		// smallest-index failure is tracked — an O(n) slice here would
		// break the primitive's own O(window) memory promise.
		failMu  sync.Mutex
		failIdx = -1
		failErr error
		// sem holds one permit per claimed-but-not-yet-emitted index: a
		// worker acquires before claiming, the emitter releases after
		// emitting, so at most `window` results ever exist at once.
		sem     = make(chan struct{}, window)
		results = make(chan slot, window)
		emitErr error
		emitted = make(chan struct{})
	)
	abort := func() {
		failed.Store(true)
		stopOnce.Do(func() { close(stop) })
	}
	fail := func(i int, err error) {
		failMu.Lock()
		if failIdx < 0 || i < failIdx {
			failIdx, failErr = i, err
		}
		failMu.Unlock()
		abort()
	}
	go func() {
		defer close(emitted)
		pending := make(map[int]T, window)
		for expect := 0; expect < n; {
			v, ok := pending[expect]
			if !ok {
				select {
				case r := <-results:
					pending[r.i] = r.v
				case <-stop:
					return
				}
				continue
			}
			delete(pending, expect)
			if err := emit(expect, v); err != nil {
				emitErr = err
				abort()
				return
			}
			expect++
			// The emitted index's own permit is necessarily still in sem,
			// so this receive can never block.
			<-sem
		}
	}()
	var wg sync.WaitGroup
	for k := 0; k < workers; k++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				select {
				case sem <- struct{}{}:
				case <-stop:
					return
				}
				i := int(next.Add(1)) - 1
				if i >= n || failed.Load() {
					return
				}
				if err := ctx.Err(); err != nil {
					fail(i, err)
					return
				}
				v, err := fn(i)
				if err != nil {
					fail(i, err)
					return
				}
				select {
				case results <- slot{i, v}:
				case <-stop:
					return
				}
			}
		}()
	}
	wg.Wait()
	// On the failure path the emitter may still be blocked on results;
	// release it (a successful run lets it drain to expect == n).
	if failed.Load() {
		stopOnce.Do(func() { close(stop) })
	}
	<-emitted
	// An emit failure happened at the emit cursor, which can never pass
	// an index whose fn failed — so when both exist the emit error is
	// the smaller-index one and wins.
	if emitErr != nil {
		return emitErr
	}
	return failErr
}

// Chunk is the trial count of one chunked-sampling work unit (Monte
// Carlo, simulator trials). The chunking — and therefore every drawn
// sample — depends only on the trial count and seed, never on the worker
// count, which is what makes parallel estimates bit-identical to serial.
const Chunk = 4096

// Chunks returns how many Chunk-sized work units cover n trials.
func Chunks(n int) int { return (n + Chunk - 1) / Chunk }

// ChunkBounds returns the [lo, hi) trial range of chunk c out of n.
func ChunkBounds(c, n int) (lo, hi int) {
	lo = c * Chunk
	hi = lo + Chunk
	if hi > n {
		hi = n
	}
	return lo, hi
}

// SubSeed derives chunk c's generator seed from the caller's seed with a
// splitmix64 finalizer, decorrelating the per-chunk streams of
// math/rand's LCG-seeded sources.
func SubSeed(seed int64, chunk int) int64 {
	x := uint64(seed) + (uint64(chunk)+1)*0x9E3779B97F4A7C15
	x ^= x >> 30
	x *= 0xBF58476D1CE4E5B9
	x ^= x >> 27
	x *= 0x94D049BB133111EB
	x ^= x >> 31
	return int64(x)
}
