package block

import (
	"fmt"

	"github.com/sss-lab/blocksptrsv/internal/sparse"
)

// SolveBatch solves L·X = B for k right-hand sides at once. B and X are
// dense row-major n×k blocks: the k values of component i occupy
// B[i*k:(i+1)*k]. Processing all right-hand sides per component pays the
// sparsity machinery (dependency schedule, row traversal, permutation)
// once instead of k times — the multi-rhs optimisation of Liu et al.'s
// follow-up work that the paper cites as its motivating scenario.
//
// B is not modified; B and X may alias. Not safe for concurrent use.
func (s *Solver[T]) SolveBatch(b, x []T, k int) { s.ses.SolveBatch(b, x, k) }

// permuteRowsInto gathers row blocks under newIdx: dst[newIdx[i]] row =
// src[i] row.
//
//sptrsv:hotpath
func permuteRowsInto[T sparse.Float](dst, src []T, newIdx []int, k int) {
	if k == 1 {
		sparse.PermuteVecInto(dst, src, newIdx)
		return
	}
	for i, p := range newIdx {
		copy(dst[p*k:(p+1)*k], src[i*k:(i+1)*k])
	}
}

// unpermuteRowsInto undoes permuteRowsInto: dst[i] row = src[newIdx[i]].
//
//sptrsv:hotpath
func unpermuteRowsInto[T sparse.Float](dst, src []T, newIdx []int, k int) {
	if k == 1 {
		sparse.UnpermuteVecInto(dst, src, newIdx)
		return
	}
	for i, p := range newIdx {
		copy(dst[i*k:(i+1)*k], src[p*k:(p+1)*k])
	}
}

// InterleaveRHS packs separate right-hand-side vectors into the row-major
// n×k block layout SolveBatch expects.
func InterleaveRHS[T sparse.Float](rhs [][]T) []T {
	if len(rhs) == 0 {
		return nil
	}
	k, n := len(rhs), len(rhs[0])
	out := make([]T, n*k)
	for r, v := range rhs {
		if len(v) != n {
			panic(fmt.Sprintf("block: InterleaveRHS got ragged input (%d vs %d)", len(v), n))
		}
		for i := 0; i < n; i++ {
			out[i*k+r] = v[i]
		}
	}
	return out
}

// DeinterleaveRHS unpacks a row-major n×k block into k separate vectors.
func DeinterleaveRHS[T sparse.Float](packed []T, k int) [][]T {
	if k <= 0 || len(packed)%k != 0 {
		panic(fmt.Sprintf("block: DeinterleaveRHS got len=%d k=%d", len(packed), k))
	}
	n := len(packed) / k
	out := make([][]T, k)
	for r := range out {
		out[r] = make([]T, n)
		for i := 0; i < n; i++ {
			out[r][i] = packed[i*k+r]
		}
	}
	return out
}
