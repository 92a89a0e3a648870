package kernels

import (
	"sort"

	"github.com/sss-lab/blocksptrsv/internal/exec"
	"github.com/sss-lab/blocksptrsv/internal/sparse"
)

// Multiple right-hand-side (batch) kernels and helpers. SpTRSV with many
// right-hand sides is the dominant cost of the solve phase of sparse
// direct solvers (§1 of the paper); the follow-up work by Liu et al.
// ("Fast Synchronization-Free Algorithms for Parallel Sparse Triangular
// Solves with Multiple Right-Hand Sides") processes all right-hand sides
// of a component together so the sparsity machinery (dependency tracking,
// level schedule, row traversal) is paid once per component instead of
// once per solve.
//
// Grouping right-hand sides changes only the per-component row, never the
// schedule, so the level-set, sync-free and cuSPARSE-like kernels in
// sptrsv.go serve every k and take only their batch row solve,
// gatherRowBatch, from here. What else lives here has no schedule to
// share or would lose bits or speed as the k = 1 case of a k-loop: the
// serial and diagonal-only references, TriSerialSolveBatch and
// TriDiagOnlySolveBatch (which round as ·(1/d), not /d), and the SpMV
// block updates, whose single-vector kernels sum in dual accumulators.
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

// gatherRowBatch is gatherRow over an n×k block: the returned row solve
// solves the k right-hand sides of component i in place in x's row i —
// copy w's row, subtract each dependency's contribution in ascending
// column order, scale by 1/diag[i]. That is the update order of
// TriSerialSolveBatch, so the level-set, sync-free and cuSPARSE-like
// kernels agree with it bit for bit at every k > 1. The row of x is only
// read by dependents after it is finished, so it needs no scratch.
//
//sptrsv:hotpath
func gatherRowBatch[T sparse.Float](strictCSR *sparse.CSR[T], diag, w, x []T, k int) func(i int) {
	rowPtr, colIdx, vals := strictCSR.RowPtr, strictCSR.ColIdx, strictCSR.Val
	//lint:ignore hotpathalloc,escapecheck one row closure per solve, shared by every launch of the solve
	return func(i int) {
		xi := x[i*k:][:k]
		copy(xi, w[i*k:][:k])
		klo, khi := rowPtr[i], rowPtr[i+1]
		cols := colIdx[klo:khi]
		vs := vals[klo:khi][:len(cols)]
		for kk := range cols {
			v := vs[kk]
			xc := x[cols[kk]*k:][:len(xi)]
			for r := range xc {
				xi[r] -= v * xc[r]
			}
		}
		scaleInto(xi, xi, 1/diag[i])
	}
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
