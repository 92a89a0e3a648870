//go:build bcecheck

package kernels

import (
	"github.com/sss-lab/blocksptrsv/internal/levelset"
	"github.com/sss-lab/blocksptrsv/internal/sparse"
)

// This file is compiled only under the bcecheck build tag (the Makefile
// `bcecheck` target). Referencing every generic hot-path kernel at both
// element types forces the compiler to instantiate — and therefore
// bounds-check-analyze — their bodies when
// `go build -tags bcecheck -gcflags=-d=ssa/check_bce` runs over this
// package. Without these references the generic bodies are never compiled
// here and the BCE invariant would silently check nothing.
var bceForceInstantiations = [...]any{
	TriSerialSolve[float64], TriSerialSolve[float32],
	TriDiagOnlySolve[float64], TriDiagOnlySolve[float32],
	TriLevelSetSolve[float64], TriLevelSetSolve[float32],
	TriSyncFreeSolve[float64], TriSyncFreeSolve[float32],
	TriCuSparseLikeSolve[float64], TriCuSparseLikeSolve[float32],
	gatherRow[float64], gatherRow[float32],
	rowSolve[float64], rowSolve[float32],
	(*SyncFreeCSRSolver[float64]).Solve, (*SyncFreeCSRSolver[float32]).Solve,
	NewSyncFreeState[float64], NewSyncFreeState[float32],

	SpMVSerialSub[float64], SpMVSerialSub[float32],
	SpMVScalarCSRSub[float64], SpMVScalarCSRSub[float32],
	SpMVVectorCSRSub[float64], SpMVVectorCSRSub[float32],
	SpMVScalarDCSRSub[float64], SpMVScalarDCSRSub[float32],
	SpMVVectorDCSRSub[float64], SpMVVectorDCSRSub[float32],
	foldCarries[float64], foldCarries[float32],
	Multiply[float64], Multiply[float32],
	RunSpMV[float64], RunSpMV[float32],

	TriSerialSolveBatch[float64], TriSerialSolveBatch[float32],
	TriDiagOnlySolveBatch[float64], TriDiagOnlySolveBatch[float32],
	gatherRowBatch[float64], gatherRowBatch[float32],
	SpMVScalarCSRSubBatch[float64], SpMVScalarCSRSubBatch[float32],
	SpMVVectorCSRSubBatch[float64], SpMVVectorCSRSubBatch[float32],
	SpMVScalarDCSRSubBatch[float64], SpMVScalarDCSRSubBatch[float32],
	SpMVVectorDCSRSubBatch[float64], SpMVVectorDCSRSubBatch[float32],
	SpMVSerialSubBatch[float64], SpMVSerialSubBatch[float32],
	RunSpMVBatch[float64], RunSpMVBatch[float32],
	scaleInto[float64], scaleInto[float32],

	SerialSolveCSR[float64], SerialSolveCSR[float32],
	(*SerialSolver[float64]).Solve, (*SerialSolver[float32]).Solve,
	(*LevelSetSolver[float64]).Solve, (*LevelSetSolver[float32]).Solve,
	(*SyncFreeSolver[float64]).Solve, (*SyncFreeSolver[float32]).Solve,
	(*CuSparseLikeSolver[float64]).Solve, (*CuSparseLikeSolver[float32]).Solve,

	sparse.PermuteVecInto[float64], sparse.PermuteVecInto[float32],
	levelset.FromLowerCSR[float64], levelset.FromLowerCSR[float32],
}
