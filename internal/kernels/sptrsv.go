// Package kernels implements the SpTRSV and SpMV computational kernels the
// block algorithms select between (§3.4 of the paper):
//
// SpTRSV kernels for triangular (sub-)matrices:
//   - completely-parallel (diagonal-only blocks),
//   - level-set (one launch per level),
//   - sync-free (persistent kernel, busy-wait on in-degrees),
//   - cuSPARSE-like (level-set with merged small levels) — the stand-in
//     for NVIDIA's closed-source csrsv2.
//
// The three parallel kernels solve each component in gather form on CSR,
// so their results are reproducible bit for bit (see gatherRow).
//
// SpMV kernels for rectangular/square (sub-)matrices, all computing the
// block update w -= A·x:
//   - scalar-CSR  (a worker item per row; best for short rows),
//   - vector-CSR  (nnz-balanced split; best for long/power-law rows),
//   - scalar-DCSR and vector-DCSR (the same over non-empty rows only).
//
// Triangular sub-matrices arrive as a strictly-lower part plus a separate
// dense diagonal, the storage convention of the improved recursive
// structure (§3.3). Whole-matrix baselines that include the diagonal in
// their CSR/CSC storage live in baselines.go.
package kernels

import (
	"fmt"
	"sync/atomic"

	"github.com/sss-lab/blocksptrsv/internal/exec"
	"github.com/sss-lab/blocksptrsv/internal/faultinject"
	"github.com/sss-lab/blocksptrsv/internal/levelset"
	"github.com/sss-lab/blocksptrsv/internal/sparse"
)

// TriKernel identifies one of the four SpTRSV kernels.
type TriKernel uint8

const (
	TriAuto               TriKernel = iota // let the adaptive selector decide
	TriCompletelyParallel                  // diagonal-only block
	TriLevelSet                            // level-set, a launch per level
	TriSyncFree                            // sync-free, in-degree busy-waits
	TriCuSparseLike                        // level-set with merged narrow levels
	TriSerial                              // serial reference (not selected adaptively)
)

func (k TriKernel) String() string {
	switch k {
	case TriAuto:
		return "auto"
	case TriCompletelyParallel:
		return "completely-parallel"
	case TriLevelSet:
		return "level-set"
	case TriSyncFree:
		return "sync-free"
	case TriCuSparseLike:
		return "cusparse-like"
	case TriSerial:
		return "serial"
	}
	return "unknown"
}

// SpMVKernel identifies one of the four SpMV kernels.
type SpMVKernel uint8

const (
	SpMVAuto       SpMVKernel = iota // let the adaptive selector decide
	SpMVScalarCSR                    // row per item
	SpMVVectorCSR                    // nnz-balanced
	SpMVScalarDCSR                   // row per stored row
	SpMVVectorDCSR                   // nnz-balanced over stored rows
	SpMVSerial                       // serial reference (not selected adaptively)
)

func (k SpMVKernel) String() string {
	switch k {
	case SpMVAuto:
		return "auto"
	case SpMVScalarCSR:
		return "scalar-csr"
	case SpMVVectorCSR:
		return "vector-csr"
	case SpMVScalarDCSR:
		return "scalar-dcsr"
	case SpMVVectorDCSR:
		return "vector-dcsr"
	case SpMVSerial:
		return "serial"
	}
	return "unknown"
}

// TriSerialSolve solves the triangular block serially: x[i] =
// w[i]/diag[i], scattering -val·x[i] into w for the remaining rows. On
// return x holds the solution; w is consumed (its tail holds fully-updated
// partial sums). This is Algorithm 1 restated for the split storage.
//
// The loop is written in the repo's BCE shape (DESIGN.md §6.9): length
// hints up front and per-column window re-slices let the compiler prove
// index safety once per column instead of once per nonzero; only the
// data-dependent scatter target w[RowIdx[k]] keeps its check. Scatter
// targets within a column are distinct rows, so the 4-way unroll keeps
// the update order — and therefore the rounding — of the rolled loop.
//
//sptrsv:hotpath
func TriSerialSolve[T sparse.Float](strict *sparse.CSC[T], diag []T, w, x []T) {
	n := len(diag)
	if n == 0 {
		return
	}
	colPtr := strict.ColPtr
	_ = colPtr[n]
	_ = w[n-1]
	_ = x[n-1]
	for j := 0; j < n; j++ {
		xj := w[j] / diag[j]
		x[j] = xj
		lo, hi := colPtr[j], colPtr[j+1]
		if hi-lo < 4 { // short column: direct indexing, see internal/kernels/spmv.go
			for k := lo; k < hi; k++ {
				w[strict.RowIdx[k]] -= strict.Val[k] * xj
			}
			continue
		}
		rows := strict.RowIdx[lo:hi]
		vals := strict.Val[lo:hi][:len(rows)]
		// Advance both windows by 4 under a dual length guard: prove keeps
		// both `len >= 4` facts across the constant indices, so only the
		// data-dependent scatter target w[r] is checked (DESIGN.md §6.9).
		for len(rows) >= 4 && len(vals) >= 4 {
			r0, r1, r2, r3 := rows[0], rows[1], rows[2], rows[3]
			w[r0] -= vals[0] * xj
			w[r1] -= vals[1] * xj
			w[r2] -= vals[2] * xj
			w[r3] -= vals[3] * xj
			rows = rows[4:]
			vals = vals[4:]
		}
		vals = vals[:len(rows)]
		for k := range rows {
			w[rows[k]] -= vals[k] * xj
		}
	}
}

// TriDiagOnlySolve handles the completely-parallel case: the block is a
// pure diagonal, so every component solves independently in one launch.
//
//sptrsv:hotpath
func TriDiagOnlySolve[T sparse.Float](p exec.Launcher, diag []T, w, x []T) {
	p.ParallelFor(len(diag), 0, func(lo, hi int) {
		// Re-slice the chunk windows so the divide loop runs with no
		// per-element bounds checks (DESIGN.md §6.9).
		d := diag[lo:hi]
		wv := w[lo:hi][:len(d)]
		xv := x[lo:hi][:len(d)]
		for i := range d {
			xv[i] = wv[i] / d[i]
		}
	})
}

// The level-set, sync-free and cuSPARSE-like kernels solve k right-hand
// sides at once (k = 1 is a single vector; for k > 1, w and x are the
// row-major n×k blocks of batch.go). They take an exec.Guard and report
// whether they ran to completion. A non-nil guard is checked at every
// level or chunk barrier and inside every sync-free busy-wait, so a
// cancelled, stalled or panicking solve unwinds instead of hanging; each
// finished level, chunk or component is one progress step. A nil guard
// never trips, and then the guard costs one nil check per level, chunk or
// component. When a kernel returns false the contents of x are
// unspecified.
//
// All three solve a component in gather form on the strictly-lower CSR
// block (gatherRow): one worker reads the finished x entries the row
// depends on and writes x[i] once (gatherRowBatch accumulates in x's row
// i, which no other worker reads before it is finished). No float is ever accumulated with an
// atomic add, so every x[i] is a fixed function of the block and w — the
// result does not depend on the schedule, the launcher or the worker
// count, and the three kernels agree bit for bit (DESIGN.md §6.5). The
// kernels differ only in how they order components: a barrier per level,
// per merged chunk, or a per-component in-degree wait. w is only read.
// The number of right-hand sides changes only the row solve (rowSolve),
// never the schedule.

// gatherRow returns the gather solve of one component, shared by every
// launch of a level-set, sync-free or cuSPARSE-like solve. The sum runs
// 4-way unrolled over two accumulators: the serial sub-per-nonzero
// dependency chain is split in two, and the window re-slices keep the
// body free of bounds checks on the CSR arrays (DESIGN.md §6.9). Pairing
// products before subtracting reassociates the sum relative to
// TriSerialSolve's column order, bounded by the documented ULP tolerance;
// the pairing is fixed per row (and is SerialSolveCSR's), so the result is
// the same on every run.
//
//sptrsv:hotpath
func gatherRow[T sparse.Float](strictCSR *sparse.CSR[T], diag, w, x []T) func(i int) {
	rowPtr, colIdx, vals := strictCSR.RowPtr, strictCSR.ColIdx, strictCSR.Val
	//lint:ignore hotpathalloc,escapecheck one row closure per solve, shared by every launch of the solve
	return func(i int) {
		lo, hi := rowPtr[i], rowPtr[i+1]
		sum := w[i]
		if hi-lo < 4 { // short row: direct indexing, see internal/kernels/spmv.go
			for k := lo; k < hi; k++ {
				sum -= vals[k] * x[colIdx[k]]
			}
			x[i] = sum / diag[i]
			return
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
		x[i] = (s0 - s1) / diag[i]
	}
}

// rowSolve picks the row solve for k right-hand sides, once per solve:
// gatherRow for a single vector, gatherRowBatch for an n×k block.
//
//sptrsv:hotpath
func rowSolve[T sparse.Float](strictCSR *sparse.CSR[T], diag, w, x []T, k int) func(i int) {
	if k == 1 {
		//lint:ignore escapecheck the inlined gatherRow closure, one per solve
		return gatherRow(strictCSR, diag, w, x)
	}
	//lint:ignore escapecheck the inlined gatherRowBatch closure, one per solve
	return gatherRowBatch(strictCSR, diag, w, x, k)
}

// gatherLaunches runs row over a launch schedule: launch c covers
// items[chunkPtr[c]:chunkPtr[c+1]]. A serial launch runs its rows in order
// on one worker (executing fused levels in level order is dependency-safe
// because every dependency lives in an earlier level); any other launch
// spreads its rows over the pool, and its barrier orders it before the
// next. A nil serial makes every launch parallel.
//
//sptrsv:hotpath
func gatherLaunches(p exec.Launcher, chunkPtr []int, serial []bool, items []int, row func(int), g *exec.Guard) bool {
	for c := 0; c+1 < len(chunkPtr); c++ {
		if g.Tripped() {
			return false
		}
		its := items[chunkPtr[c]:chunkPtr[c+1]]
		if c < len(serial) && serial[c] {
			p.ParallelFor(1, 1, func(_, _ int) {
				for t := range its {
					row(its[t])
				}
			})
		} else {
			p.ParallelFor(len(its), 0, func(a, b int) {
				chunk := its[a:b]
				for t := range chunk {
					row(chunk[t])
				}
			})
		}
		g.Step()
	}
	return !g.Tripped()
}

// TriLevelSetSolve runs the level-set kernel: one launch (and thus one
// barrier) per level. The components of a level depend only on earlier
// levels, so they solve independently once the previous barrier passed.
//
//sptrsv:hotpath
func TriLevelSetSolve[T sparse.Float](p exec.Launcher, strictCSR *sparse.CSR[T], diag []T, info *levelset.Info, w, x []T, k int, g *exec.Guard) bool {
	return gatherLaunches(p, info.LevelPtr[:info.NLevels+1], nil, info.LevelItem, rowSolve(strictCSR, diag, w, x, k), g)
}

// SyncFreeState holds the reusable scratch of the sync-free kernel: the
// per-component dependency counters and their initial values. Allocate once
// per matrix with NewSyncFreeState and reuse across solves. The live
// counters are cache-line-padded — every worker decrements the in-degrees
// of the rows it updates, and with bare Int32s sixteen counters share a
// line, so the decrements of unrelated components ping-pong lines between
// workers. Only base (read-only during solves) stays compact.
type SyncFreeState struct {
	indeg []exec.PaddedInt32
	base  []int32
}

// NewSyncFreeState precomputes in-degrees (the strict row counts) for a
// strictly-lower CSC block. This is the sync-free algorithm's entire
// preprocessing (Algorithm 3, lines 1–5).
func NewSyncFreeState[T sparse.Float](strict *sparse.CSC[T]) *SyncFreeState {
	n := strict.Cols
	s := &SyncFreeState{indeg: make([]exec.PaddedInt32, n), base: make([]int32, n)}
	for _, r := range strict.RowIdx {
		s.base[r]++
	}
	return s
}

// reset rearms the counters for a fresh solve.
//
//sptrsv:hotpath
func (s *SyncFreeState) reset() {
	ind := s.indeg[:len(s.base)]
	for i := range s.base {
		ind[i].V.Store(s.base[i])
	}
	if faultinject.Enabled {
		if row, delta, ok := faultinject.CorruptInDegree("sync-free"); ok && row < len(s.indeg) {
			s.indeg[row].V.Add(delta)
		}
	}
}

// TriSyncFreeSolve runs the sync-free kernel (Algorithm 3): a single
// persistent launch in which workers claim components in ascending order
// from an atomic counter, busy-wait until the component's in-degree drops
// to zero, solve it by gathering its row of the CSR block, and then
// decrement the in-degrees of the components in its column of the CSC
// block. A dependency's x store (all k values of its row) precedes its
// decrement, and the wait observes every decrement, so the gather reads
// finished values only.
//
// Claiming components in ascending order makes the busy-wait deadlock-free
// on any pool size: the smallest unfinished component's dependencies are
// all finished (they have smaller indices), so some worker always
// progresses.
//
// Under a guard the busy-waits are cancellable: a worker whose dependency
// never arrives exits the moment the guard trips, recording the stalled
// component and its remaining in-degree as the abort diagnostic, and a
// panicking worker trips the guard itself before re-raising, so the
// surviving workers cannot spin forever on updates the dead worker will
// never publish.
//
//sptrsv:hotpath
func TriSyncFreeSolve[T sparse.Float](p exec.Launcher, state *SyncFreeState, strict *sparse.CSC[T], strictCSR *sparse.CSR[T], diag []T, w, x []T, k int, g *exec.Guard) bool {
	n := len(diag)
	if n == 0 {
		return true
	}
	state.reset()
	row := rowSolve(strictCSR, diag, w, x, k)
	colPtr, rowIdx := strict.ColPtr, strict.RowIdx
	indeg := state.indeg
	var next atomic.Int64
	p.Run(func(worker int) {
		defer func() {
			if r := recover(); r != nil {
				g.Trip(fmt.Errorf("kernels: sync-free worker %d panicked: %v", worker, r))
				panic(r)
			}
		}()
		if faultinject.Enabled && g != nil {
			faultinject.Delay("sync-free", worker)
		}
		for {
			if g.Tripped() {
				return
			}
			j := int(next.Add(1)) - 1
			if j >= n {
				return
			}
			if !exec.SpinUntilZeroGuarded(&indeg[j].V, g) {
				g.ReportStall(j, indeg[j].V.Load())
				return
			}
			row(j)
			rows := rowIdx[colPtr[j]:colPtr[j+1]]
			for k := range rows {
				indeg[rows[k]].V.Add(-1)
			}
			g.Step()
		}
	})
	return !g.Tripped()
}

// MergedSchedule is the cuSPARSE-like kernel's analysis result: the level
// sequence partitioned into launches. Narrow consecutive levels are fused
// into a single serial chunk executed by one worker (Naumov's optimisation
// of merging small levels into one kernel to save launches); wide levels
// get their own parallel launch.
type MergedSchedule struct {
	// chunks are [start,end) ranges into the level-order item list; a
	// serial chunk may span several levels.
	chunkPtr []int
	serial   []bool
	items    []int // level-order copy of the component ids
}

// NewMergedSchedule builds the schedule. Levels narrower than
// serialWidth are fused; a non-positive serialWidth defaults to 2× the
// worker count of the pool the schedule will run on, below which a
// parallel launch cannot pay for its barrier (callers pass
// p.Workers(); a non-positive workers falls back to width 2, the
// narrowest level that could parallelise at all).
func NewMergedSchedule(info *levelset.Info, serialWidth, workers int) *MergedSchedule {
	if serialWidth <= 0 {
		if workers > 0 {
			serialWidth = 2 * workers
		} else {
			serialWidth = 2
		}
	}
	s := &MergedSchedule{items: append([]int(nil), info.LevelItem...)}
	s.chunkPtr = append(s.chunkPtr, 0)
	l := 0
	for l < info.NLevels {
		if info.LevelSize(l) >= serialWidth {
			s.chunkPtr = append(s.chunkPtr, info.LevelPtr[l+1])
			s.serial = append(s.serial, false)
			l++
			continue
		}
		// Fuse a run of narrow levels into one serial chunk.
		for l < info.NLevels && info.LevelSize(l) < serialWidth {
			l++
		}
		s.chunkPtr = append(s.chunkPtr, info.LevelPtr[l])
		s.serial = append(s.serial, true)
	}
	return s
}

// Chunks reports the number of launches in the schedule.
func (s *MergedSchedule) Chunks() int { return len(s.serial) }

// Data exposes the schedule's arrays for serialisation.
func (s *MergedSchedule) Data() (chunkPtr []int, serial []bool, items []int) {
	return s.chunkPtr, s.serial, s.items
}

// NewMergedScheduleFromData rebuilds a schedule from serialised arrays.
func NewMergedScheduleFromData(chunkPtr []int, serial []bool, items []int) *MergedSchedule {
	return &MergedSchedule{chunkPtr: chunkPtr, serial: serial, items: items}
}

// BaseCounts exposes the initial in-degrees for serialisation.
func (s *SyncFreeState) BaseCounts() []int32 { return s.base }

// NewSyncFreeStateFromCounts rebuilds sync-free state from serialised
// in-degrees.
func NewSyncFreeStateFromCounts(base []int32) *SyncFreeState {
	return &SyncFreeState{indeg: make([]exec.PaddedInt32, len(base)), base: base}
}

// SerialChunks reports how many launches are fused serial chunks.
func (s *MergedSchedule) SerialChunks() int {
	n := 0
	for _, b := range s.serial {
		if b {
			n++
		}
	}
	return n
}

// TriCuSparseLikeSolve runs the cuSPARSE-like kernel: gather-form row
// solves on the strictly-lower CSR block, one launch per schedule chunk —
// the level-set kernel with Naumov's narrow-level merging.
//
//sptrsv:hotpath
func TriCuSparseLikeSolve[T sparse.Float](p exec.Launcher, sched *MergedSchedule, strictCSR *sparse.CSR[T], diag []T, w, x []T, k int, g *exec.Guard) bool {
	return gatherLaunches(p, sched.chunkPtr, sched.serial, sched.items, rowSolve(strictCSR, diag, w, x, k), g)
}
