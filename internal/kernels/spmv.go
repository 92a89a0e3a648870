package kernels

import (
	"sort"

	"github.com/sss-lab/blocksptrsv/internal/exec"
	"github.com/sss-lab/blocksptrsv/internal/sparse"
)

// The SpMV gather loops below all share one shape (DESIGN.md §6.9): the
// row window [lo,hi) is re-sliced out of ColIdx and Val once, so the
// compiler proves every index in the body once per row instead of once
// per nonzero, and the dot product runs 4-way unrolled over two
// accumulators to split the serial add-per-nonzero FP dependency chain.
// Only the data-dependent gather x[ColIdx[k]] keeps its bounds check.
// The two accumulators reassociate the sum; the difference from the
// serial left-to-right order is covered by the documented ULP tolerance
// (FuzzKernelEquivalence). Rows under 4 nonzeros skip the window shape
// entirely and gather with direct bounds-checked indexing: building the
// two re-sliced windows costs more instructions than the checks they
// remove when the row holds 1–3 nonzeros, and power-law tails, R-MAT
// rows, grid stencils and serial chains are made of such rows. The
// long-row branch keeps its own tail loop so its re-tied length facts
// never merge with the short path's in SSA.

// SpMVSerialSub computes w -= A·x serially; the reference for the parallel
// kernels and the fallback for tiny blocks.
//
//sptrsv:hotpath
func SpMVSerialSub[T sparse.Float](a *sparse.CSR[T], x, w []T) {
	rowPtr, colIdx, vals := a.RowPtr, a.ColIdx, a.Val
	for i := 0; i < a.Rows; i++ {
		lo, hi := rowPtr[i], rowPtr[i+1]
		if lo == hi {
			continue
		}
		var s0, s1 T
		if hi-lo < 4 { // short row: direct indexing, see file comment
			for k := lo; k < hi; k++ {
				s0 += vals[k] * x[colIdx[k]]
			}
		} else {
			cols := colIdx[lo:hi]
			vs := vals[lo:hi][:len(cols)]
			for len(cols) >= 4 && len(vs) >= 4 {
				c0, c1, c2, c3 := cols[0], cols[1], cols[2], cols[3]
				s0 += vs[0]*x[c0] + vs[2]*x[c2]
				s1 += vs[1]*x[c1] + vs[3]*x[c3]
				cols = cols[4:]
				vs = vs[4:]
			}
			vs = vs[:len(cols)]
			for k := range cols {
				s0 += vs[k] * x[cols[k]]
			}
		}
		w[i] -= s0 + s1
	}
}

// SpMVScalarCSRSub computes w -= A·x with one worker item per row — the
// paper's scalar-CSR kernel, best when rows are short and uniform. Each row
// is owned by exactly one chunk, so no atomics are needed.
//
//sptrsv:hotpath
func SpMVScalarCSRSub[T sparse.Float](p exec.Launcher, a *sparse.CSR[T], x, w []T) {
	rowPtr, colIdx, vals := a.RowPtr, a.ColIdx, a.Val
	p.ParallelFor(a.Rows, 0, func(lo, hi int) {
		for i := lo; i < hi; i++ {
			klo, khi := rowPtr[i], rowPtr[i+1]
			var s0, s1 T
			if khi-klo < 4 { // short row: direct indexing, see file comment
				for k := klo; k < khi; k++ {
					s0 += vals[k] * x[colIdx[k]]
				}
			} else {
				cols := colIdx[klo:khi]
				vs := vals[klo:khi][:len(cols)]
				for len(cols) >= 4 && len(vs) >= 4 {
					c0, c1, c2, c3 := cols[0], cols[1], cols[2], cols[3]
					s0 += vs[0]*x[c0] + vs[2]*x[c2]
					s1 += vs[1]*x[c1] + vs[3]*x[c3]
					cols = cols[4:]
					vs = vs[4:]
				}
				vs = vs[:len(cols)]
				for k := range cols {
					s0 += vs[k] * x[cols[k]]
				}
			}
			if sum := s0 + s1; sum != 0 {
				w[i] -= sum
			}
		}
	})
}

// SpMVVectorCSRSub computes w -= A·x splitting the nonzeros (not the rows)
// evenly across workers — the paper's vector-CSR kernel, which keeps
// power-law matrices load-balanced by letting several workers cooperate on
// one long row the way a warp does on a GPU. A row cut by a segment
// boundary is written by the segment it begins in; the later segments
// carry their parts to foldCarries.
//
//sptrsv:hotpath
func SpMVVectorCSRSub[T sparse.Float](p exec.Launcher, a *sparse.CSR[T], x, w []T) {
	nnz := a.NNZ()
	if nnz == 0 {
		return
	}
	grain, nseg := vectorSegments(nnz, p.Workers())
	rowPtr, colIdx, vals := a.RowPtr, a.ColIdx, a.Val
	rows := a.Rows
	//lint:ignore hotpathalloc,escapecheck per-launch carry slots, one per segment
	carry := make([]T, nseg)
	p.ParallelFor(nseg, 1, func(slo, shi int) {
		for seg := slo; seg < shi; seg++ {
			lo, hi := seg*grain, seg*grain+grain
			if hi > nnz {
				hi = nnz
			}
			// First row whose range intersects [lo,hi).
			i := sort.SearchInts(rowPtr, lo+1) - 1
			for i < rows && rowPtr[i] < hi {
				klo, khi := rowPtr[i], rowPtr[i+1]
				head := klo < lo // row begun in an earlier segment
				if klo < lo {
					klo = lo
				}
				if khi > hi {
					khi = hi
				}
				var s0, s1 T
				if khi-klo < 4 { // short row: direct indexing, see file comment
					for k := klo; k < khi; k++ {
						s0 += vals[k] * x[colIdx[k]]
					}
				} else {
					cols := colIdx[klo:khi]
					vs := vals[klo:khi][:len(cols)]
					for len(cols) >= 4 && len(vs) >= 4 {
						c0, c1, c2, c3 := cols[0], cols[1], cols[2], cols[3]
						s0 += vs[0]*x[c0] + vs[2]*x[c2]
						s1 += vs[1]*x[c1] + vs[3]*x[c3]
						cols = cols[4:]
						vs = vs[4:]
					}
					vs = vs[:len(cols)]
					for k := range cols {
						s0 += vs[k] * x[cols[k]]
					}
				}
				if sum := s0 + s1; head {
					carry[seg] = sum
				} else if sum != 0 {
					w[i] -= sum
				}
				i++
			}
		}
	})
	foldCarries(rowPtr, nil, grain, 1, carry, w)
}

// vectorSegments fixes the nonzero split of the vector kernels: nseg
// segments of grain nonzeros, about eight per worker. The split depends on
// nnz and the pool's worker count only — not on how a launcher chunks the
// launch — and no float is added atomically, so the vector kernels give
// the same bits on every run.
//
//sptrsv:hotpath
func vectorSegments(nnz, workers int) (grain, nseg int) {
	grain = nnz / (workers * 8)
	if grain < 1 {
		grain = 1
	}
	return grain, (nnz + grain - 1) / grain
}

// foldCarries finishes the rows the vector kernels' segments cut: after
// the launch, the part of a row that segment seg carried (carry[seg*k:],
// k values) is subtracted from the row, in segment order, after the part
// the row's first segment wrote directly. rowIdx maps stored rows to rows
// for DCSR and is nil for CSR.
//
//sptrsv:hotpath
func foldCarries[T sparse.Float](rowPtr, rowIdx []int, grain, k int, carry, w []T) {
	nseg := len(carry) / k
	for seg := 1; seg < nseg; seg++ {
		lo := seg * grain
		s := sort.SearchInts(rowPtr, lo+1) - 1
		if rowPtr[s] == lo {
			continue // the segment begins on a row boundary and carries nothing
		}
		i := s
		if rowIdx != nil {
			i = rowIdx[s]
		}
		c := carry[seg*k:][:k]
		wi := w[i*k:][:len(c)]
		for r := range wi {
			if c[r] != 0 {
				wi[r] -= c[r]
			}
		}
	}
}

// SpMVScalarDCSRSub is scalar-CSR over a doubly-compressed block: one
// worker item per stored (non-empty) row, skipping the empty ones entirely.
// The paper selects it when the empty-row ratio is high.
//
//sptrsv:hotpath
func SpMVScalarDCSRSub[T sparse.Float](p exec.Launcher, a *sparse.DCSR[T], x, w []T) {
	rowPtr, rowIdx, colIdx, vals := a.RowPtr, a.RowIdx, a.ColIdx, a.Val
	p.ParallelFor(a.StoredRows(), 0, func(lo, hi int) {
		for s := lo; s < hi; s++ {
			klo, khi := rowPtr[s], rowPtr[s+1]
			var s0, s1 T
			if khi-klo < 4 { // short row: direct indexing, see file comment
				for k := klo; k < khi; k++ {
					s0 += vals[k] * x[colIdx[k]]
				}
			} else {
				cols := colIdx[klo:khi]
				vs := vals[klo:khi][:len(cols)]
				for len(cols) >= 4 && len(vs) >= 4 {
					c0, c1, c2, c3 := cols[0], cols[1], cols[2], cols[3]
					s0 += vs[0]*x[c0] + vs[2]*x[c2]
					s1 += vs[1]*x[c1] + vs[3]*x[c3]
					cols = cols[4:]
					vs = vs[4:]
				}
				vs = vs[:len(cols)]
				for k := range cols {
					s0 += vs[k] * x[cols[k]]
				}
			}
			if sum := s0 + s1; sum != 0 {
				w[rowIdx[s]] -= sum
			}
		}
	})
}

// SpMVVectorDCSRSub is vector-CSR over a doubly-compressed block:
// nnz-balanced segments over the stored rows, cut rows finished by
// foldCarries.
//
//sptrsv:hotpath
func SpMVVectorDCSRSub[T sparse.Float](p exec.Launcher, a *sparse.DCSR[T], x, w []T) {
	nnz := a.NNZ()
	if nnz == 0 {
		return
	}
	grain, nseg := vectorSegments(nnz, p.Workers())
	rowPtr, rowIdx, colIdx, vals := a.RowPtr, a.RowIdx, a.ColIdx, a.Val
	stored := a.StoredRows()
	//lint:ignore hotpathalloc,escapecheck per-launch carry slots, one per segment
	carry := make([]T, nseg)
	p.ParallelFor(nseg, 1, func(slo, shi int) {
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
				var s0, s1 T
				if khi-klo < 4 { // short row: direct indexing, see file comment
					for k := klo; k < khi; k++ {
						s0 += vals[k] * x[colIdx[k]]
					}
				} else {
					cols := colIdx[klo:khi]
					vs := vals[klo:khi][:len(cols)]
					for len(cols) >= 4 && len(vs) >= 4 {
						c0, c1, c2, c3 := cols[0], cols[1], cols[2], cols[3]
						s0 += vs[0]*x[c0] + vs[2]*x[c2]
						s1 += vs[1]*x[c1] + vs[3]*x[c3]
						cols = cols[4:]
						vs = vs[4:]
					}
					vs = vs[:len(cols)]
					for k := range cols {
						s0 += vs[k] * x[cols[k]]
					}
				}
				if sum := s0 + s1; head {
					carry[seg] = sum
				} else if sum != 0 {
					w[rowIdx[s]] -= sum
				}
				s++
			}
		}
	})
	foldCarries(rowPtr, rowIdx, grain, 1, carry, w)
}

// Multiply computes y = A·x in parallel (scalar-CSR schedule). It is the
// general-purpose SpMV used by the iterative-solver examples; the block
// update kernels above use the w -= A·x form instead.
//
//sptrsv:hotpath
func Multiply[T sparse.Float](p exec.Launcher, a *sparse.CSR[T], x, y []T) {
	rowPtr, colIdx, vals := a.RowPtr, a.ColIdx, a.Val
	p.ParallelFor(a.Rows, 0, func(lo, hi int) {
		for i := lo; i < hi; i++ {
			klo, khi := rowPtr[i], rowPtr[i+1]
			var s0, s1 T
			if khi-klo < 4 { // short row: direct indexing, see file comment
				for k := klo; k < khi; k++ {
					s0 += vals[k] * x[colIdx[k]]
				}
			} else {
				cols := colIdx[klo:khi]
				vs := vals[klo:khi][:len(cols)]
				for len(cols) >= 4 && len(vs) >= 4 {
					c0, c1, c2, c3 := cols[0], cols[1], cols[2], cols[3]
					s0 += vs[0]*x[c0] + vs[2]*x[c2]
					s1 += vs[1]*x[c1] + vs[3]*x[c3]
					cols = cols[4:]
					vs = vs[4:]
				}
				vs = vs[:len(cols)]
				for k := range cols {
					s0 += vs[k] * x[cols[k]]
				}
			}
			y[i] = s0 + s1
		}
	})
}
