package kernels

import (
	"fmt"

	"github.com/sss-lab/blocksptrsv/internal/exec"
	"github.com/sss-lab/blocksptrsv/internal/levelset"
	"github.com/sss-lab/blocksptrsv/internal/sparse"
)

// Solver is a preprocessed whole-matrix SpTRSV ready to solve Lx=b
// repeatedly. The concrete baselines mirror the algorithms the paper
// compares against (Table 3): the serial reference, the plain level-set
// method, the Sync-free method of Liu et al., and the cuSPARSE-v2-like
// merged level-set method.
type Solver[T sparse.Float] interface {
	// Solve computes x from b; b is not modified. len(b)==len(x)==n.
	Solve(b, x []T)
	// Name identifies the algorithm for reports.
	Name() string
	// Rows reports the system size.
	Rows() int
}

// splitLowerCSR validates L and splits it into a strictly-lower CSR part
// plus a dense diagonal, directly from the solvable layout (diagonal last
// in each row) — the shared preprocessing of the gather-form baselines.
func splitLowerCSR[T sparse.Float](l *sparse.CSR[T]) (*sparse.CSR[T], []T, error) {
	if err := sparse.CheckLowerSolvable(l); err != nil {
		return nil, nil, err
	}
	n := l.Rows
	rowPtr := make([]int, n+1)
	colIdx := make([]int, 0, l.NNZ()-n)
	val := make([]T, 0, l.NNZ()-n)
	diag := make([]T, n)
	for i := 0; i < n; i++ {
		hi := l.RowPtr[i+1] - 1
		diag[i] = l.Val[hi]
		for k := l.RowPtr[i]; k < hi; k++ {
			colIdx = append(colIdx, l.ColIdx[k])
			val = append(val, l.Val[k])
		}
		rowPtr[i+1] = len(val)
	}
	return &sparse.CSR[T]{Rows: n, Cols: n, RowPtr: rowPtr, ColIdx: colIdx, Val: val}, diag, nil
}

// SerialSolver is the single-threaded reference (Algorithm 1).
type SerialSolver[T sparse.Float] struct {
	l *sparse.CSR[T]
}

// NewSerialSolver validates L and returns the serial baseline.
func NewSerialSolver[T sparse.Float](l *sparse.CSR[T]) (*SerialSolver[T], error) {
	if err := sparse.CheckLowerSolvable(l); err != nil {
		return nil, err
	}
	return &SerialSolver[T]{l: l}, nil
}

func (s *SerialSolver[T]) Name() string { return "serial" }
func (s *SerialSolver[T]) Rows() int    { return s.l.Rows }

func (s *SerialSolver[T]) Solve(b, x []T) {
	SerialSolveCSR(s.l, b, x)
}

// SerialSolveCSR is the serial forward substitution on a solvable lower CSR
// (diagonal last in each row), shared by SerialSolver and by the guarded
// path's last-resort fallback. The gather loop runs in the repo's BCE
// shape with a dual-accumulator 4-way unroll (DESIGN.md §6.9); the
// reassociated sum stays within the documented ULP tolerance.
//
//sptrsv:hotpath
func SerialSolveCSR[T sparse.Float](l *sparse.CSR[T], b, x []T) {
	rowPtr, colIdx, vals := l.RowPtr, l.ColIdx, l.Val
	for i := 0; i < l.Rows; i++ {
		lo, hi := rowPtr[i], rowPtr[i+1]-1 // diagonal is the last entry of a solvable row
		sum := b[i]
		if hi-lo < 4 { // short row: direct indexing, see internal/kernels/spmv.go
			for k := lo; k < hi; k++ {
				sum -= vals[k] * x[colIdx[k]]
			}
			x[i] = sum / vals[hi]
			continue
		}
		cols := colIdx[lo:hi]
		vs := vals[lo:hi][:len(cols)]
		s0, s1 := sum, T(0)
		for len(cols) >= 4 && len(vs) >= 4 {
			c0, c1, c2, c3 := cols[0], cols[1], cols[2], cols[3]
			s0 -= vs[0]*x[c0] + vs[2]*x[c2]
			s1 += vs[1]*x[c1] + vs[3]*x[c3]
			cols = cols[4:]
			vs = vs[4:]
		}
		vs = vs[:len(cols)]
		for k := range cols {
			s0 -= vs[k] * x[cols[k]]
		}
		x[i] = (s0 - s1) / vals[hi]
	}
}

// LevelSetSolver is the plain level-set baseline (Algorithm 2): one
// parallel launch and one barrier per level.
type LevelSetSolver[T sparse.Float] struct {
	pool      exec.Launcher
	strictCSR *sparse.CSR[T]
	diag      []T
	info      *levelset.Info
}

// NewLevelSetSolver preprocesses L (level-set analysis) for the pool.
func NewLevelSetSolver[T sparse.Float](p exec.Launcher, l *sparse.CSR[T]) (*LevelSetSolver[T], error) {
	strictCSR, diag, err := splitLowerCSR(l)
	if err != nil {
		return nil, err
	}
	return &LevelSetSolver[T]{
		pool:      p,
		strictCSR: strictCSR,
		diag:      diag,
		info:      levelset.FromLowerCSR(l),
	}, nil
}

func (s *LevelSetSolver[T]) Name() string         { return "level-set" }
func (s *LevelSetSolver[T]) Rows() int            { return len(s.diag) }
func (s *LevelSetSolver[T]) Info() *levelset.Info { return s.info }

// Solve passes b as the kernel's w: the gather-form kernels only read it.
func (s *LevelSetSolver[T]) Solve(b, x []T) {
	TriLevelSetSolve(s.pool, s.strictCSR, s.diag, s.info, b, x, 1, nil)
}

// SyncFreeSolver is the Sync-free baseline of Liu et al. (Algorithm 3).
type SyncFreeSolver[T sparse.Float] struct {
	pool      exec.Launcher
	strict    *sparse.CSC[T]
	strictCSR *sparse.CSR[T]
	diag      []T
	state     *SyncFreeState
}

// NewSyncFreeSolver preprocesses L (in-degree counting) for the pool.
func NewSyncFreeSolver[T sparse.Float](p exec.Launcher, l *sparse.CSR[T]) (*SyncFreeSolver[T], error) {
	strictCSR, diag, err := splitLowerCSR(l)
	if err != nil {
		return nil, err
	}
	strict := strictCSR.ToCSC()
	return &SyncFreeSolver[T]{
		pool:      p,
		strict:    strict,
		strictCSR: strictCSR,
		diag:      diag,
		state:     NewSyncFreeState(strict),
	}, nil
}

func (s *SyncFreeSolver[T]) Name() string { return "sync-free" }
func (s *SyncFreeSolver[T]) Rows() int    { return len(s.diag) }

func (s *SyncFreeSolver[T]) Solve(b, x []T) {
	TriSyncFreeSolve(s.pool, s.state, s.strict, s.strictCSR, s.diag, b, x, 1, nil)
}

// CuSparseLikeSolver is the cuSPARSE-v2 stand-in: level-set analysis plus
// Naumov's merging of narrow consecutive levels into serial chunks.
type CuSparseLikeSolver[T sparse.Float] struct {
	pool      exec.Launcher
	strictCSR *sparse.CSR[T]
	diag      []T
	sched     *MergedSchedule
	info      *levelset.Info
}

// NewCuSparseLikeSolver runs the analysis phase (the expensive
// csrsv2_analysis analogue) for the pool.
func NewCuSparseLikeSolver[T sparse.Float](p exec.Launcher, l *sparse.CSR[T]) (*CuSparseLikeSolver[T], error) {
	strictCSR, diag, err := splitLowerCSR(l)
	if err != nil {
		return nil, err
	}
	info := levelset.FromLowerCSR(l)
	return &CuSparseLikeSolver[T]{
		pool:      p,
		strictCSR: strictCSR,
		diag:      diag,
		sched:     NewMergedSchedule(info, 0, p.Workers()),
		info:      info,
	}, nil
}

func (s *CuSparseLikeSolver[T]) Name() string { return "cusparse-like" }
func (s *CuSparseLikeSolver[T]) Rows() int    { return len(s.diag) }

// Schedule exposes the merged schedule for tests and reports.
func (s *CuSparseLikeSolver[T]) Schedule() *MergedSchedule { return s.sched }

func (s *CuSparseLikeSolver[T]) Solve(b, x []T) {
	TriCuSparseLikeSolve(s.pool, s.sched, s.strictCSR, s.diag, b, x, 1, nil)
}

// NewBaseline constructs a named whole-matrix baseline; the benchmark
// harness uses it to iterate algorithms by name.
func NewBaseline[T sparse.Float](name string, p exec.Launcher, l *sparse.CSR[T]) (Solver[T], error) {
	switch name {
	case "serial":
		return NewSerialSolver(l)
	case "level-set":
		return NewLevelSetSolver(p, l)
	case "sync-free":
		return NewSyncFreeSolver(p, l)
	case "sync-free-csr":
		return NewSyncFreeCSRSolver(p, l)
	case "cusparse-like":
		return NewCuSparseLikeSolver(p, l)
	}
	return nil, fmt.Errorf("kernels: unknown baseline %q", name)
}
