package kernels

import (
	"sort"
	"sync/atomic"

	"github.com/sss-lab/blocksptrsv/internal/exec"
	"github.com/sss-lab/blocksptrsv/internal/levelset"
	"github.com/sss-lab/blocksptrsv/internal/sparse"
)

// Batched (multiple right-hand side) kernel variants. SpTRSV with many
// right-hand sides is the dominant cost of the solve phase of sparse
// direct solvers (§1 of the paper); the follow-up work by Liu et al.
// ("Fast Synchronization-Free Algorithms for Parallel Sparse Triangular
// Solves with Multiple Right-Hand Sides") processes all right-hand sides
// of a component together so the sparsity machinery (dependency tracking,
// level schedule, row traversal) is paid once per component instead of
// once per solve.
//
// Layout: right-hand-side blocks are dense row-major n×k slices — the k
// values of component i occupy W[i*k : (i+1)*k]. Per-component work is
// then contiguous and the inner k-loops vectorise naturally.
//
// The inner k-loops follow the repo's BCE shape (DESIGN.md §6.9): both
// operand windows are re-sliced to the same length expression (w[i*k:]
// re-sliced to len(xj)), so the compiler proves the whole k-loop
// in-bounds from one IsSliceInBounds per nonzero. The k-loops stay
// rolled and written inline at each per-nonzero site: the compiler does
// not inline functions containing loops, and a call per nonzero costs
// more than the loop it wraps, while the k iterations are independent
// element-wise updates the CPU already overlaps without manual
// unrolling. Update order per RHS column is exactly the rolled serial
// order, so batched results carry no reassociation slack.

// TriSerialSolveBatch is TriSerialSolve over an n×k right-hand-side block.
//
//sptrsv:hotpath
func TriSerialSolveBatch[T sparse.Float](strict *sparse.CSC[T], diag []T, w, x []T, k int) {
	n := len(diag)
	colPtr, rowIdx, vals := strict.ColPtr, strict.RowIdx, strict.Val
	for j := 0; j < n; j++ {
		inv := 1 / diag[j]
		xj := x[j*k:][:k]
		wj := w[j*k:][:k]
		scaleInto(xj, wj, inv)
		lo, hi := colPtr[j], colPtr[j+1]
		rows := rowIdx[lo:hi]
		vs := vals[lo:hi][:len(rows)]
		for p := range rows {
			v := vs[p]
			wr := w[rows[p]*k:][:len(xj)]
			for r := range wr {
				wr[r] -= v * xj[r]
			}
		}
	}
}

// scaleInto computes dst[r] = src[r]·inv over one RHS window with the
// source re-tied to the destination length, so the body carries no
// bounds checks. Called once per component, not per nonzero, so the
// call overhead is off the per-nnz path.
//
//sptrsv:hotpath
func scaleInto[T sparse.Float](dst, src []T, inv T) {
	src = src[:len(dst)]
	for r := range dst {
		dst[r] = src[r] * inv
	}
}

// TriDiagOnlySolveBatch is the completely-parallel kernel over an n×k
// right-hand-side block.
//
//sptrsv:hotpath
func TriDiagOnlySolveBatch[T sparse.Float](p exec.Launcher, diag []T, w, x []T, k int) {
	p.ParallelFor(len(diag), 0, func(lo, hi int) {
		for i := lo; i < hi; i++ {
			inv := 1 / diag[i]
			scaleInto(x[i*k:][:k], w[i*k:][:k], inv)
		}
	})
}

// gatherRowBatch is gatherRow over an n×k block: row(i, sum) solves the
// k right-hand sides of component i, using sum (length k) as the
// accumulator. Each column's sum is taken in ascending column order, the
// update order of TriSerialSolveBatch, so the gather-form batch kernels
// agree with it bit for bit.
//
//sptrsv:hotpath
func gatherRowBatch[T sparse.Float](strictCSR *sparse.CSR[T], diag, w, x []T, k int) func(i int, sum []T) {
	rowPtr, colIdx, vals := strictCSR.RowPtr, strictCSR.ColIdx, strictCSR.Val
	//lint:ignore hotpathalloc,escapecheck one row closure per solve, shared by every launch of the solve
	return func(i int, sum []T) {
		copy(sum, w[i*k:][:k])
		klo, khi := rowPtr[i], rowPtr[i+1]
		cols := colIdx[klo:khi]
		vs := vals[klo:khi][:len(cols)]
		for kk := range cols {
			v := vs[kk]
			xc := x[cols[kk]*k:][:len(sum)]
			for r := range xc {
				sum[r] -= v * xc[r]
			}
		}
		inv := 1 / diag[i]
		scaleInto(x[i*k:][:k], sum, inv)
	}
}

// gatherLaunchesBatch is gatherLaunches over an n×k block; every launch
// chunk owns one k-length accumulator.
//
//sptrsv:hotpath
func gatherLaunchesBatch[T sparse.Float](p exec.Launcher, chunkPtr []int, serial []bool, items []int, row func(int, []T), k int) {
	for c := 0; c+1 < len(chunkPtr); c++ {
		its := items[chunkPtr[c]:chunkPtr[c+1]]
		if c < len(serial) && serial[c] {
			p.ParallelFor(1, 1, func(_, _ int) {
				//lint:ignore hotpathalloc,escapecheck per-launch RHS accumulator scratch
				sum := make([]T, k)
				for t := range its {
					row(its[t], sum)
				}
			})
			continue
		}
		p.ParallelFor(len(its), 0, func(a, b int) {
			//lint:ignore hotpathalloc,escapecheck per-launch RHS accumulator scratch
			sum := make([]T, k)
			chunk := its[a:b]
			for t := range chunk {
				row(chunk[t], sum)
			}
		})
	}
}

// TriLevelSetSolveBatch runs the level-set kernel over an n×k block: one
// launch per level.
//
//sptrsv:hotpath
func TriLevelSetSolveBatch[T sparse.Float](p exec.Launcher, strictCSR *sparse.CSR[T], diag []T, info *levelset.Info, w, x []T, k int) {
	//lint:ignore escapecheck the inlined gatherRowBatch closure, one per solve
	gatherLaunchesBatch(p, info.LevelPtr[:info.NLevels+1], nil, info.LevelItem, gatherRowBatch(strictCSR, diag, w, x, k), k)
}

// TriSyncFreeSolveBatch runs the sync-free kernel over an n×k block. A
// component's k solutions are all written before it decrements the
// in-degrees of its dependents, preserving the release/acquire pairing of
// the single-vector kernel.
//
//sptrsv:hotpath
func TriSyncFreeSolveBatch[T sparse.Float](p exec.Launcher, state *SyncFreeState, strict *sparse.CSC[T], strictCSR *sparse.CSR[T], diag []T, w, x []T, k int) {
	n := len(diag)
	if n == 0 {
		return
	}
	state.reset()
	//lint:ignore escapecheck the inlined gatherRowBatch closure, one per solve
	row := gatherRowBatch(strictCSR, diag, w, x, k)
	colPtr, rowIdx := strict.ColPtr, strict.RowIdx
	indeg := state.indeg
	var next atomic.Int64
	p.Run(func(worker int) {
		//lint:ignore hotpathalloc,escapecheck per-worker RHS accumulator scratch
		sum := make([]T, k)
		for {
			j := int(next.Add(1)) - 1
			if j >= n {
				return
			}
			exec.SpinUntilZero(&indeg[j].V)
			row(j, sum)
			rows := rowIdx[colPtr[j]:colPtr[j+1]]
			for kk := range rows {
				indeg[rows[kk]].V.Add(-1)
			}
		}
	})
}

// TriCuSparseLikeSolveBatch runs the merged level-set kernel over an n×k
// block.
//
//sptrsv:hotpath
func TriCuSparseLikeSolveBatch[T sparse.Float](p exec.Launcher, sched *MergedSchedule, strictCSR *sparse.CSR[T], diag []T, w, x []T, k int) {
	//lint:ignore escapecheck the inlined gatherRowBatch closure, one per solve
	gatherLaunchesBatch(p, sched.chunkPtr, sched.serial, sched.items, gatherRowBatch(strictCSR, diag, w, x, k), k)
}

// SpMVScalarCSRSubBatch computes W -= A·X over n×k blocks, one worker
// item per row.
//
//sptrsv:hotpath
func SpMVScalarCSRSubBatch[T sparse.Float](p exec.Launcher, a *sparse.CSR[T], x, w []T, k int) {
	rowPtr, colIdx, vals := a.RowPtr, a.ColIdx, a.Val
	p.ParallelFor(a.Rows, 0, func(lo, hi int) {
		for i := lo; i < hi; i++ {
			rlo, rhi := rowPtr[i], rowPtr[i+1]
			if rlo == rhi {
				continue
			}
			wi := w[i*k:][:k]
			cols := colIdx[rlo:rhi]
			vs := vals[rlo:rhi][:len(cols)]
			for kk := range cols {
				v := vs[kk]
				xc := x[cols[kk]*k:][:len(wi)]
				for r := range xc {
					wi[r] -= v * xc[r]
				}
			}
		}
	})
}

// SpMVVectorCSRSubBatch computes W -= A·X with nnz-balanced segments;
// cut rows are finished by foldCarries, as in SpMVVectorCSRSub.
//
//sptrsv:hotpath
func SpMVVectorCSRSubBatch[T sparse.Float](p exec.Launcher, a *sparse.CSR[T], x, w []T, k int) {
	nnz := a.NNZ()
	if nnz == 0 {
		return
	}
	grain, nseg := vectorSegments(nnz, p.Workers())
	rowPtr, colIdx, vals := a.RowPtr, a.ColIdx, a.Val
	rows := a.Rows
	//lint:ignore hotpathalloc,escapecheck per-launch carry slots, k per segment
	carry := make([]T, nseg*k)
	p.ParallelFor(nseg, 1, func(slo, shi int) {
		//lint:ignore hotpathalloc,escapecheck per-launch RHS accumulator scratch
		sum := make([]T, k)
		for seg := slo; seg < shi; seg++ {
			lo, hi := seg*grain, seg*grain+grain
			if hi > nnz {
				hi = nnz
			}
			i := sort.SearchInts(rowPtr, lo+1) - 1
			for i < rows && rowPtr[i] < hi {
				klo, khi := rowPtr[i], rowPtr[i+1]
				head := klo < lo
				if klo < lo {
					klo = lo
				}
				if khi > hi {
					khi = hi
				}
				for r := range sum {
					sum[r] = 0
				}
				cols := colIdx[klo:khi]
				vs := vals[klo:khi][:len(cols)]
				for kk := range cols {
					v := vs[kk]
					xc := x[cols[kk]*k:][:len(sum)]
					for r := range xc {
						sum[r] += v * xc[r]
					}
				}
				if head {
					copy(carry[seg*k:][:k], sum)
				} else {
					wi := w[i*k:][:len(sum)]
					for r := range wi {
						wi[r] -= sum[r]
					}
				}
				i++
			}
		}
	})
	foldCarries(rowPtr, nil, grain, k, carry, w)
}

// SpMVScalarDCSRSubBatch is SpMVScalarCSRSubBatch over stored rows only.
//
//sptrsv:hotpath
func SpMVScalarDCSRSubBatch[T sparse.Float](p exec.Launcher, a *sparse.DCSR[T], x, w []T, k int) {
	rowPtr, rowIdx, colIdx, vals := a.RowPtr, a.RowIdx, a.ColIdx, a.Val
	p.ParallelFor(a.StoredRows(), 0, func(lo, hi int) {
		for s := lo; s < hi; s++ {
			wi := w[rowIdx[s]*k:][:k]
			rlo, rhi := rowPtr[s], rowPtr[s+1]
			cols := colIdx[rlo:rhi]
			vs := vals[rlo:rhi][:len(cols)]
			for kk := range cols {
				v := vs[kk]
				xc := x[cols[kk]*k:][:len(wi)]
				for r := range xc {
					wi[r] -= v * xc[r]
				}
			}
		}
	})
}

// SpMVVectorDCSRSubBatch is SpMVVectorCSRSubBatch over stored rows only.
//
//sptrsv:hotpath
func SpMVVectorDCSRSubBatch[T sparse.Float](p exec.Launcher, a *sparse.DCSR[T], x, w []T, k int) {
	nnz := a.NNZ()
	if nnz == 0 {
		return
	}
	grain, nseg := vectorSegments(nnz, p.Workers())
	rowPtr, rowIdx, colIdx, vals := a.RowPtr, a.RowIdx, a.ColIdx, a.Val
	stored := a.StoredRows()
	//lint:ignore hotpathalloc,escapecheck per-launch carry slots, k per segment
	carry := make([]T, nseg*k)
	p.ParallelFor(nseg, 1, func(slo, shi int) {
		//lint:ignore hotpathalloc,escapecheck per-launch RHS accumulator scratch
		sum := make([]T, k)
		for seg := slo; seg < shi; seg++ {
			lo, hi := seg*grain, seg*grain+grain
			if hi > nnz {
				hi = nnz
			}
			s := sort.SearchInts(rowPtr, lo+1) - 1
			for s < stored && rowPtr[s] < hi {
				klo, khi := rowPtr[s], rowPtr[s+1]
				head := klo < lo
				if klo < lo {
					klo = lo
				}
				if khi > hi {
					khi = hi
				}
				for r := range sum {
					sum[r] = 0
				}
				cols := colIdx[klo:khi]
				vs := vals[klo:khi][:len(cols)]
				for kk := range cols {
					v := vs[kk]
					xc := x[cols[kk]*k:][:len(sum)]
					for r := range xc {
						sum[r] += v * xc[r]
					}
				}
				if head {
					copy(carry[seg*k:][:k], sum)
				} else {
					wi := w[rowIdx[s]*k:][:len(sum)]
					for r := range wi {
						wi[r] -= sum[r]
					}
				}
				s++
			}
		}
	})
	foldCarries(rowPtr, rowIdx, grain, k, carry, w)
}

// SpMVSerialSubBatch is the serial reference for the batched SpMV update.
//
//sptrsv:hotpath
func SpMVSerialSubBatch[T sparse.Float](a *sparse.CSR[T], x, w []T, k int) {
	rowPtr, colIdx, vals := a.RowPtr, a.ColIdx, a.Val
	for i := 0; i < a.Rows; i++ {
		wi := w[i*k:][:k]
		rlo, rhi := rowPtr[i], rowPtr[i+1]
		cols := colIdx[rlo:rhi]
		vs := vals[rlo:rhi][:len(cols)]
		for kk := range cols {
			v := vs[kk]
			xc := x[cols[kk]*k:][:len(wi)]
			for r := range xc {
				wi[r] -= v * xc[r]
			}
		}
	}
}

// RunSpMVBatch dispatches the batched block update W -= A·X to the named
// kernel (the batch counterpart of RunSpMV).
//
//sptrsv:hotpath
func RunSpMVBatch[T sparse.Float](p exec.Launcher, kn SpMVKernel, csr *sparse.CSR[T], dcsr *sparse.DCSR[T], x, w []T, k int) {
	switch kn {
	case SpMVScalarCSR:
		SpMVScalarCSRSubBatch(p, csr, x, w, k)
	case SpMVVectorCSR:
		SpMVVectorCSRSubBatch(p, csr, x, w, k)
	case SpMVScalarDCSR:
		SpMVScalarDCSRSubBatch(p, dcsr, x, w, k)
	case SpMVVectorDCSR:
		SpMVVectorDCSRSubBatch(p, dcsr, x, w, k)
	case SpMVSerial:
		SpMVSerialSubBatch(csr, x, w, k)
	default:
		panic("kernels: RunSpMVBatch got unresolved kernel")
	}
}
