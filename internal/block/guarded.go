package block

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"time"

	"github.com/sss-lab/blocksptrsv/internal/exec"
	"github.com/sss-lab/blocksptrsv/internal/kernels"
	"github.com/sss-lab/blocksptrsv/internal/sparse"
)

// StallError reports a solve the watchdog aborted because its progress
// counter stopped moving. When a sync-free worker was mid-busy-wait at
// abort time, Row/InDegree identify the head of the stalled dependency
// chain — the component whose dependencies never resolved, and how many
// were still outstanding.
type StallError struct {
	Timeout  time.Duration // the armed Options.StallTimeout
	Progress int64         // work items completed before the stall
	Row      int           // stalled component (block-local), valid when HasRow
	InDegree int32         // its unresolved dependency count, valid when HasRow
	HasRow   bool
}

func (e *StallError) Error() string {
	if e.HasRow {
		return fmt.Sprintf("block: solve stalled for %v after %d steps: component %d still waiting on %d dependencies",
			e.Timeout, e.Progress, e.Row, e.InDegree)
	}
	return fmt.Sprintf("block: solve stalled for %v after %d steps", e.Timeout, e.Progress)
}

// ResidualError reports a solution that missed Options.VerifyResidual even
// after every recovery rung (refinement, serial fallback) had its turn.
type ResidualError struct {
	Residual float64 // scaled infinity-norm residual of the final solution
	Tol      float64 // the tolerance it missed
}

func (e *ResidualError) Error() string {
	return fmt.Sprintf("block: residual %.3e exceeds tolerance %.3e after fallback", e.Residual, e.Tol)
}

// errStalled is the watchdog's internal trip cause; guardCause swaps it
// for a StallError enriched with the guard's diagnostics.
var errStalled = errors.New("block: watchdog: progress counter stalled")

// SolveContext computes x with L·x = b like Solve, with the guarded
// extras selected by ctx and the solver's Options:
//
//   - ctx cancellation propagates into the kernels' spin loops and level
//     barriers; the error is ctx.Err().
//   - Options.StallTimeout arms a watchdog that aborts a solve whose
//     progress counter stops moving and returns a *StallError with the
//     stalled component.
//   - Options.VerifyResidual > 0 checks the solution and degrades
//     gracefully: one refinement step (Options.Refine), then the serial
//     reference; a *ResidualError is returned only if even the fallback
//     misses the tolerance.
//
// A panicking kernel body still panics out of SolveContext (after the
// pool has restored itself — the pool stays usable); panics are
// programming errors, not solve outcomes. Like Solve, SolveContext is not
// safe for concurrent use on the same Solver; use sessions.
func (s *Solver[T]) SolveContext(ctx context.Context, b, x []T) error {
	return s.ses.SolveContext(ctx, b, x)
}

// SolveContext is the session counterpart of Solver.SolveContext:
// the same guarantees, private scratch, concurrency-safe across sessions.
func (ses *Session[T]) SolveContext(ctx context.Context, b, x []T) error {
	if n := ses.s.n; len(b) != n || len(x) != n {
		return fmt.Errorf("block: SolveContext got len(b)=%d len(x)=%d want %d", len(b), len(x), n)
	}
	return ses.solveContext(ctx, b, x, 1)
}

// solveContext is the guarded solve over k right-hand sides: it arms a
// guard for ctx and Options.StallTimeout, runs the plan under it, and for
// a single right-hand side runs the verification ladder when
// Options.VerifyResidual is set.
func (ses *Session[T]) solveContext(ctx context.Context, b, x []T, k int) error {
	if ctx == nil {
		ctx = context.Background()
	}
	if err := ctx.Err(); err != nil {
		return err
	}
	s := ses.s
	g, stopWatchers := s.startGuard(ctx)
	// Stop the watchers before returning — and before a kernel panic
	// unwinds further, so no watchdog outlives its solve.
	defer stopWatchers()
	if !ses.run(b, x, k, g) {
		return s.guardCause(g)
	}
	if k == 1 && s.opts.VerifyResidual > 0 {
		return ses.verifyAndRecover(b, x)
	}
	return nil
}

// startGuard arms the cancellation machinery of a guarded solve: a fresh
// guard, a context watcher that trips it on cancellation, and (when
// Options.StallTimeout is set) the stall watchdog. The returned
// stop function tears both watchers down and must run before the solve
// returns — including while a kernel panic unwinds — so no watchdog ever
// outlives its solve.
func (s *Solver[T]) startGuard(ctx context.Context) (*exec.Guard, func()) {
	g := exec.NewGuard()
	stop := make(chan struct{})
	var watchers sync.WaitGroup
	if ctx.Done() != nil {
		watchers.Add(1)
		go func() {
			defer watchers.Done()
			select {
			case <-ctx.Done():
				g.Trip(ctx.Err())
			case <-stop:
			}
		}()
	}
	if s.opts.StallTimeout > 0 {
		watchers.Add(1)
		go func() {
			defer watchers.Done()
			watchdog(g, s.opts.StallTimeout, stop)
		}()
	}
	return g, func() {
		close(stop)
		watchers.Wait()
	}
}

// guardCause converts the guard's trip cause into the caller-facing
// error, enriching the watchdog's sentinel with the stall diagnostics the
// workers recorded on their way out.
func (s *Solver[T]) guardCause(g *exec.Guard) error {
	err := g.Cause()
	if !errors.Is(err, errStalled) {
		return err
	}
	se := &StallError{Timeout: s.opts.StallTimeout, Progress: g.Progress()}
	if row, indeg, ok := g.Stall(); ok {
		se.Row, se.InDegree, se.HasRow = row, indeg, true
	}
	return se
}

// watchdog trips the guard when the progress counter stops moving for
// timeout. It polls at timeout/8 so a stall is detected within at most
// 9/8·timeout of its onset.
func watchdog(g *exec.Guard, timeout time.Duration, stop <-chan struct{}) {
	tick := timeout / 8
	if tick <= 0 {
		tick = time.Millisecond
	}
	t := time.NewTicker(tick)
	defer t.Stop()
	last := g.Progress()
	lastMove := time.Now()
	for {
		select {
		case <-stop:
			return
		case <-t.C:
			if cur := g.Progress(); cur != last {
				last = cur
				lastMove = time.Now()
				continue
			}
			if time.Since(lastMove) >= timeout {
				g.Trip(errStalled)
				return
			}
		}
	}
}

// verifyAndRecover is the graceful-degradation ladder: check the scaled
// residual, take one refinement step if allowed, fall back to the serial
// reference, and only then give up with a ResidualError. The recovery
// counters land in the session's stats.
func (ses *Session[T]) verifyAndRecover(b, x []T) error {
	s := ses.s
	if s.orig == nil {
		return errors.New("block: VerifyResidual needs the original matrix, which a deserialised solver does not retain")
	}
	tol := s.opts.VerifyResidual
	if sparse.ScaledResidual(s.orig, x, b) <= tol {
		return nil
	}
	if s.opts.Refine {
		// One iterative-refinement step: r = b − L·x, solve L·δ = r,
		// x += δ. The parallel path may have produced garbage (it just
		// failed verification), but the correction reuses it anyway —
		// when the failure was mild rounding, one step recovers it.
		if len(ses.r) < s.n {
			ses.r, ses.d = make([]T, s.n), make([]T, s.n)
		}
		s.residualInto(ses.r, b, x)
		ses.run(ses.r, ses.d, 1, nil)
		for i := range x {
			x[i] += ses.d[i]
		}
		ses.stats.Refinements++
		mRefinements.Inc()
		if sparse.ScaledResidual(s.orig, x, b) <= tol {
			return nil
		}
	}
	// Last rung: the serial reference on the untouched original matrix.
	kernels.SerialSolveCSR(s.orig, b, x)
	ses.stats.Fallbacks++
	mFallbacks.Inc()
	if res := sparse.ScaledResidual(s.orig, x, b); res > tol {
		return &ResidualError{Residual: res, Tol: tol}
	}
	return nil
}

// residualInto computes r = b − L·x on the original (unpermuted) matrix.
func (s *Solver[T]) residualInto(r, b, x []T) {
	l := s.orig
	for i := 0; i < l.Rows; i++ {
		sum := b[i]
		for k := l.RowPtr[i]; k < l.RowPtr[i+1]; k++ {
			sum -= l.Val[k] * x[l.ColIdx[k]]
		}
		r[i] = sum
	}
}
