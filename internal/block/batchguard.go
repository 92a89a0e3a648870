package block

import (
	"context"
	"fmt"
)

// The guarded batched solve path: SolveBatchContext runs the same plan
// walk as SolveBatch under the guard of SolveContext. It exists for
// live-traffic consumers (the solver daemon) that coalesce concurrent
// single-RHS requests into one multi-RHS solve but still need
// per-request robustness: a cancelled or deadlined batch stops instead
// of running to completion, and the stall watchdog aborts a schedule
// whose progress counter stops moving. The guard reaches inside the
// level-set, sync-free and cuSPARSE-like kernels at every k, so a batch
// that hangs inside one block is aborted with the same stall diagnostics
// as a single-RHS solve.

// SolveBatchContext solves L·X = B for k right-hand sides like SolveBatch
// (row-major n×k blocks, B and X may alias), with ctx cancellation and the
// solver's Options.StallTimeout armed as in SolveContext. Length
// mismatches return an error instead of panicking. For k > 1, unlike
// SolveContext, the residual-verification ladder (Options.VerifyResidual)
// is not run — batched callers verify or degrade per right-hand side; k = 1
// is exactly SolveContext. Not safe for concurrent use; use sessions.
func (s *Solver[T]) SolveBatchContext(ctx context.Context, b, x []T, k int) error {
	return s.ses.SolveBatchContext(ctx, b, x, k)
}

// SolveBatchContext is the session counterpart of Solver.SolveBatchContext:
// the same guarantees, private scratch, concurrency-safe across sessions.
func (ses *Session[T]) SolveBatchContext(ctx context.Context, b, x []T, k int) error {
	if n := ses.s.n; k <= 0 || len(b) != n*k || len(x) != n*k {
		return fmt.Errorf("block: SolveBatchContext got len(b)=%d len(x)=%d k=%d want %d", len(b), len(x), k, n*k)
	}
	return ses.solveContext(ctx, b, x, k)
}
