package par

import (
	"context"
	"errors"
	"sync/atomic"
	"testing"
	"time"
)

func TestForEachVisitsEachIndexOnce(t *testing.T) {
	for _, workers := range []int{0, 1, 5, 64} {
		const n = 200
		var hits [n]atomic.Int32
		if err := ForEachCtx(context.Background(), workers, n, func(i int) error {
			hits[i].Add(1)
			return nil
		}); err != nil {
			t.Fatal(err)
		}
		for i := range hits {
			if got := hits[i].Load(); got != 1 {
				t.Fatalf("workers=%d: index %d visited %d times", workers, i, got)
			}
		}
	}
}

func TestForEachSmallestIndexError(t *testing.T) {
	first := errors.New("first")
	later := errors.New("later")
	err := ForEachCtx(context.Background(), 8, 50, func(i int) error {
		switch i {
		case 2:
			return first
		case 40:
			return later
		}
		return nil
	})
	if !errors.Is(err, first) {
		t.Fatalf("err = %v", err)
	}
}

func TestForEachEmpty(t *testing.T) {
	if err := ForEachCtx(context.Background(), 4, 0, func(int) error { t.Fatal("no items"); return nil }); err != nil {
		t.Fatal(err)
	}
}

func TestForEachCtxCancellation(t *testing.T) {
	for _, workers := range []int{1, 4} {
		ctx, cancel := context.WithCancel(context.Background())
		var ran atomic.Int64
		err := ForEachCtx(ctx, workers, 1000, func(i int) error {
			if ran.Add(1) == 3 {
				cancel()
			}
			return nil
		})
		if !errors.Is(err, context.Canceled) {
			t.Fatalf("workers=%d: err = %v, want context.Canceled", workers, err)
		}
		if n := ran.Load(); n >= 1000 {
			t.Fatalf("workers=%d: cancellation did not stop the loop (%d ran)", workers, n)
		}
		cancel()
	}
	// A pre-cancelled context does no work at all.
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if err := ForEachCtx(ctx, 4, 10, func(int) error { t.Fatal("ran"); return nil }); !errors.Is(err, context.Canceled) {
		t.Fatalf("pre-cancelled: %v", err)
	}
}

func TestEmitOrderedDeliversInOrder(t *testing.T) {
	for _, workers := range []int{0, 1, 4, 16} {
		const n = 500
		var got []int
		err := EmitOrdered(context.Background(), workers, n, 8,
			func(i int) (int, error) { return i * i, nil },
			func(i, v int) error {
				if v != i*i {
					t.Fatalf("workers=%d: emit(%d) = %d, want %d", workers, i, v, i*i)
				}
				got = append(got, i)
				return nil
			})
		if err != nil {
			t.Fatal(err)
		}
		if len(got) != n {
			t.Fatalf("workers=%d: emitted %d of %d", workers, len(got), n)
		}
		for i, v := range got {
			if v != i {
				t.Fatalf("workers=%d: emission %d was index %d (out of order)", workers, i, v)
			}
		}
	}
}

// TestEmitOrderedBoundedWindow streams 100k items through a small
// reorder window and asserts the buffering invariant directly: the
// number of completed-but-not-yet-emitted results never exceeds the
// window. completed and emitted are monotonic counters, and the permit
// scheme guarantees completed <= emitted+window at EVERY instant, so
// even a racy read of the gap cannot legitimately exceed the window.
func TestEmitOrderedBoundedWindow(t *testing.T) {
	const n = 100_000
	const window = 16
	var completed, emittedN atomic.Int64
	var maxParked int64
	err := EmitOrdered(context.Background(), 8, n, window,
		func(i int) (int, error) {
			completed.Add(1)
			return i, nil
		},
		func(i, v int) error {
			parked := completed.Load() - emittedN.Load()
			if parked > maxParked {
				maxParked = parked
			}
			emittedN.Add(1)
			return nil
		})
	if err != nil {
		t.Fatal(err)
	}
	if emittedN.Load() != n {
		t.Fatalf("emitted %d of %d", emittedN.Load(), n)
	}
	if maxParked > window {
		t.Fatalf("reorder buffer held %d completed rows, window is %d", maxParked, window)
	}
	if maxParked < 2 {
		t.Logf("maxParked = %d (no reordering pressure observed; bound still holds)", maxParked)
	}
}

// TestEmitOrderedWindowStallsWorkers pins the other half of the memory
// bound: while index 0 is stuck in flight nothing can be emitted, so the
// pool must stop claiming new indices once `window` are outstanding —
// items beyond the window may not even start.
func TestEmitOrderedWindowStallsWorkers(t *testing.T) {
	const n, window = 100, 8
	release := make(chan struct{})
	claimed := make(chan int, n)
	var maxClaimed atomic.Int64
	done := make(chan error, 1)
	go func() {
		done <- EmitOrdered(context.Background(), 4, n, window,
			func(i int) (int, error) {
				if v := int64(i); v > maxClaimed.Load() {
					maxClaimed.Store(v)
				}
				claimed <- i
				if i == 0 {
					<-release
				}
				return i, nil
			},
			func(int, int) error { return nil })
	}()
	// Wait until the pool has claimed everything the window allows:
	// exactly `window` items (indices 0..window-1) can be outstanding
	// while index 0 blocks the emit cursor.
	for i := 0; i < window; i++ {
		<-claimed
	}
	select {
	case i := <-claimed:
		t.Fatalf("index %d claimed beyond the %d-slot window while index 0 was in flight", i, window)
	case <-time.After(50 * time.Millisecond):
	}
	if got := maxClaimed.Load(); got > window-1 {
		t.Fatalf("max claimed index %d, want <= %d", got, window-1)
	}
	close(release)
	if err := <-done; err != nil {
		t.Fatal(err)
	}
}

func TestEmitOrderedSmallestIndexError(t *testing.T) {
	bad2 := errors.New("bad 2")
	bad40 := errors.New("bad 40")
	var last atomic.Int64
	last.Store(-1)
	err := EmitOrdered(context.Background(), 8, 50, 8,
		func(i int) (int, error) {
			switch i {
			case 2:
				return 0, bad2
			case 40:
				return 0, bad40
			}
			return i, nil
		},
		func(i, v int) error {
			last.Store(int64(i))
			return nil
		})
	if !errors.Is(err, bad2) {
		t.Fatalf("err = %v, want the smallest failing index", err)
	}
	if last.Load() >= 2 {
		t.Fatalf("emitted index %d at or past the failing index 2", last.Load())
	}
}

func TestEmitOrderedEmitErrorAborts(t *testing.T) {
	sink := errors.New("sink full")
	var ran atomic.Int64
	err := EmitOrdered(context.Background(), 4, 10_000, 8,
		func(i int) (int, error) { ran.Add(1); return i, nil },
		func(i, v int) error {
			if i == 3 {
				return sink
			}
			return nil
		})
	if !errors.Is(err, sink) {
		t.Fatalf("err = %v, want the emit error", err)
	}
	if ran.Load() == 10_000 {
		t.Fatal("every item ran despite the sink failing at index 3")
	}
}

func TestEmitOrderedCancellation(t *testing.T) {
	for _, workers := range []int{1, 4} {
		ctx, cancel := context.WithCancel(context.Background())
		var emittedN atomic.Int64
		err := EmitOrdered(ctx, workers, 10_000, 8,
			func(i int) (int, error) {
				if i == 20 {
					cancel()
				}
				return i, nil
			},
			func(i, v int) error { emittedN.Add(1); return nil })
		if !errors.Is(err, context.Canceled) {
			t.Fatalf("workers=%d: err = %v", workers, err)
		}
		if emittedN.Load() == 10_000 {
			t.Fatalf("workers=%d: full emission despite cancellation", workers)
		}
		cancel()
	}
}

func TestEmitOrderedEmpty(t *testing.T) {
	if err := EmitOrdered(context.Background(), 4, 0, 8,
		func(i int) (int, error) { t.Fatal("no items"); return 0, nil },
		func(int, int) error { t.Fatal("no emissions"); return nil }); err != nil {
		t.Fatal(err)
	}
}

// TestEmitOrderedEmitErrorBeatsLaterFnError pins the error-priority
// contract: an emit failure happens at the emit cursor, which can
// never pass a failed fn index, so it must win over a concurrent fn
// failure at a larger index. The channels order the race so both
// errors are definitely recorded: the sink blocks inside emit(1)
// until fn(7) — claimable concurrently, the window is wide enough —
// has failed.
func TestEmitOrderedEmitErrorBeatsLaterFnError(t *testing.T) {
	sink := errors.New("sink")
	cell := errors.New("cell")
	emitStarted := make(chan struct{})
	fnFailed := make(chan struct{})
	err := EmitOrdered(context.Background(), 2, 50, 16,
		func(i int) (int, error) {
			if i == 7 {
				<-emitStarted
				defer close(fnFailed)
				return 0, cell
			}
			return i, nil
		},
		func(i, v int) error {
			if i == 1 {
				close(emitStarted)
				<-fnFailed
				return sink
			}
			return nil
		})
	if !errors.Is(err, sink) {
		t.Fatalf("err = %v, want the emit (smaller-index) error", err)
	}
}
