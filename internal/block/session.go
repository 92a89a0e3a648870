package block

import (
	"fmt"

	"github.com/sss-lab/blocksptrsv/internal/kernels"
	"github.com/sss-lab/blocksptrsv/internal/sparse"
)

// Session is a per-goroutine solving context over a shared preprocessed
// Solver. The expensive analysis (permutation, blocks, kernel choices) is
// immutable and shared; each session owns the mutable pieces — the working
// vectors and, for sync-free blocks, private dependency counters — so any
// number of sessions may Solve concurrently.
//
// Typical server usage: Analyze once, hand one Session to each request
// goroutine.
type Session[T sparse.Float] struct {
	s *Solver[T]
	// wp and xp are the working and permuted-solution vectors, grown on
	// first use to n·k for the widest batch seen; xp stays nil without a
	// permutation. r and d are the verification ladder's residual and
	// correction, grown on the first refinement.
	wp, xp []T
	r, d   []T
	// states[i] is the private sync-free state of triangular block i, or
	// nil when block i's kernel needs no mutable state.
	states []*kernels.SyncFreeState
	stats  SolveStats
}

// NewSession returns a fresh concurrent solving context. Sessions are
// cheap relative to preprocessing: two n-vectors (allocated on the first
// solve) plus one int32 counter array per sync-free block.
func (s *Solver[T]) NewSession() *Session[T] {
	ses := &Session[T]{s: s}
	ses.states = make([]*kernels.SyncFreeState, len(s.tris))
	for i := range s.tris {
		if s.tris[i].kernel == kernels.TriSyncFree {
			// The base in-degree array is immutable and shared; only the
			// live counters are private.
			ses.states[i] = kernels.NewSyncFreeStateFromCounts(s.tris[i].state.BaseCounts())
		}
	}
	return ses
}

// grow sizes the working vectors for m = n·k entries.
//
//sptrsv:hotpath
func (ses *Session[T]) grow(m int) {
	//lint:ignore hotpathalloc scratch grows once per session, to the widest batch it solves
	ses.wp = make([]T, m)
	if ses.s.perm != nil {
		//lint:ignore hotpathalloc scratch grows once per session, to the widest batch it solves
		ses.xp = make([]T, m)
	}
}

// Rows reports the system size.
func (ses *Session[T]) Rows() int { return ses.s.n }

// Name identifies the underlying solver configuration.
func (ses *Session[T]) Name() string { return ses.s.Name() }

// Stats returns this session's accumulated instrumentation counters.
func (ses *Session[T]) Stats() SolveStats { return ses.stats }

// ResetStats clears this session's instrumentation counters. Sessions
// accumulate stats privately, so resetting one session touches neither
// the shared Solver's counters nor any sibling session's.
func (ses *Session[T]) ResetStats() { ses.stats = SolveStats{} }

// Solve computes x with L·x = b using this session's private scratch.
// Sessions of the same Solver may call Solve concurrently; a single
// Session must not.
//
//sptrsv:hotpath
func (ses *Session[T]) Solve(b, x []T) {
	if n := ses.s.n; len(b) != n || len(x) != n {
		panic(fmt.Sprintf("block: Solve got len(b)=%d len(x)=%d want %d", len(b), len(x), n))
	}
	ses.run(b, x, 1, nil)
}

// SolveBatch is the batched counterpart of Solve (see Solver.SolveBatch).
func (ses *Session[T]) SolveBatch(b, x []T, k int) {
	if n := ses.s.n; k <= 0 || len(b) != n*k || len(x) != n*k {
		panic(fmt.Sprintf("block: SolveBatch got len(b)=%d len(x)=%d k=%d want %d", len(b), len(x), k, n*k))
	}
	ses.run(b, x, k, nil)
}
