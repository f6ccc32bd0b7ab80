package expt

import (
	"context"

	"repro/internal/par"
)

// Engine is the worker-pool grid executor behind RunSweep, RunAccuracy
// and RunSimCheck: every experiment enumerates its full parameter grid
// up front, then fans the independent cells out over a fixed pool
// (par.ForEachCtx) and collects results by cell index, so the emitted rows
// are byte-for-byte identical whatever the worker count or completion
// order. Workers <= 0 selects GOMAXPROCS.
type Engine struct {
	Workers int
}

// ForEach runs fn(0), …, fn(n-1) across the pool. fn must write its
// result into an index-addressed slot of a caller-owned slice — never
// append in arrival order — which is what makes parallel runs
// deterministic. On failure the error with the smallest index is
// returned (matching what a serial loop that stops at the first error
// would report) and remaining cells may be skipped.
func (e Engine) ForEach(ctx context.Context, n int, fn func(i int) error) error {
	return par.ForEachCtx(ctx, e.Workers, n, fn)
}
