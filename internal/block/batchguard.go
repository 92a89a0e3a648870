package block

import (
	"context"
	"fmt"
)

// The guarded batched solve path: SolveBatchContext runs the same block
// schedule as SolveBatch with the cancellation machinery of SolveContext
// threaded between plan steps. It exists for live-traffic consumers (the
// solver daemon) that coalesce concurrent single-RHS requests into one
// multi-RHS solve but still need per-request robustness: a cancelled or
// deadlined batch stops at the next step boundary instead of running to
// completion, and the stall watchdog aborts a schedule whose progress
// counter stops moving.
//
// Granularity caveat: unlike the single-RHS kernels, the batch kernels
// do not poll the guard inside a block, so cancellation and the
// watchdog act *between* plan steps — a solve is abandoned at the next
// block boundary, and a hang inside one batch kernel is beyond the
// watchdog's reach. The fully-guarded single-RHS path (SolveContext)
// remains the recovery rung for callers that need in-block guarantees;
// the daemon degrades to it when a batch fails.

// SolveBatchContext solves L·X = B for k right-hand sides like SolveBatch
// (row-major n×k blocks, B and X may alias), with ctx cancellation and the
// solver's Options.StallTimeout checked between plan steps. Length
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
