package kernels

import (
	"sync/atomic"

	"github.com/sss-lab/blocksptrsv/internal/exec"
	"github.com/sss-lab/blocksptrsv/internal/sparse"
)

// SyncFreeCSRSolver is the CSR (gather-form) synchronisation-free SpTRSV
// of Dufrechou & Ezzatti, which the paper cites as the row-wise
// counterpart of Liu et al.'s CSC algorithm (§2.1.3). Instead of counting
// in-degrees and scattering updates, each row busy-waits on per-component
// ready flags for exactly the dependencies it touches, accumulates the
// gather sum, solves, and publishes its own flag.
//
// Its selling point is the near-free preprocessing: no transpose to CSC
// and no in-degree pass — only a flag array — which makes it the
// lowest-analysis-cost entry in the whole registry.
// Ready flags are cache-line-padded: every worker publishes and polls
// flags of neighbouring rows, and unpadded flags share lines, turning
// each publish into an invalidation of fifteen unrelated spin targets.
type SyncFreeCSRSolver[T sparse.Float] struct {
	pool      exec.Launcher
	strictCSR *sparse.CSR[T]
	diag      []T
	ready     []exec.PaddedInt32
}

// NewSyncFreeCSRSolver validates L and splits the strictly-lower CSR part.
func NewSyncFreeCSRSolver[T sparse.Float](p exec.Launcher, l *sparse.CSR[T]) (*SyncFreeCSRSolver[T], error) {
	strictCSR, diag, err := splitLowerCSR(l)
	if err != nil {
		return nil, err
	}
	return &SyncFreeCSRSolver[T]{
		pool:      p,
		strictCSR: strictCSR,
		diag:      diag,
		ready:     make([]exec.PaddedInt32, l.Rows),
	}, nil
}

func (s *SyncFreeCSRSolver[T]) Name() string { return "sync-free-csr" }
func (s *SyncFreeCSRSolver[T]) Rows() int    { return len(s.diag) }

// Solve runs the persistent gather kernel. Workers claim rows in
// ascending order, which keeps the busy-wait deadlock-free on any pool
// size: the smallest unsolved row's dependencies are all solved.
//
//sptrsv:hotpath
func (s *SyncFreeCSRSolver[T]) Solve(b, x []T) {
	n := len(s.diag)
	if n == 0 {
		return
	}
	// Re-arm the flags. A parallel pass keeps this O(n/workers).
	s.pool.ParallelFor(n, 0, func(lo, hi int) {
		for i := lo; i < hi; i++ {
			s.ready[i].V.Store(0)
		}
	})
	var next atomic.Int64
	a := s.strictCSR
	rowPtr, colIdx, vals := a.RowPtr, a.ColIdx, a.Val
	ready, diag := s.ready, s.diag
	s.pool.Run(func(worker int) {
		for {
			i := int(next.Add(1)) - 1
			if i >= n {
				return
			}
			lo, hi := rowPtr[i], rowPtr[i+1]
			cols := colIdx[lo:hi]
			vs := vals[lo:hi][:len(cols)]
			// The spin stays interleaved with the gather on purpose: while
			// this row waits on dependency k+1, dependency k's load and
			// multiply-sub have already issued, so gather work hides under
			// the wait instead of stacking after it. (A spin-all-then-
			// gather split measures several percent slower on dependency-
			// heavy matrices.) The re-tied vs window keeps vs[k] checkless;
			// only the data-dependent ready[c] and x[c] stay checked.
			// Acquire: the flag store in the producing worker
			// happens-before the flag load here, which orders the x[c]
			// read behind it.
			sum := b[i]
			for k := range cols {
				c := cols[k]
				exec.SpinUntilNonZero(&ready[c].V)
				sum -= vs[k] * x[c]
			}
			x[i] = sum / diag[i]
			ready[i].V.Store(1)
		}
	})
}
