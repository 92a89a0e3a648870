// Package blocksptrsv is a parallel sparse triangular solver (SpTRSV)
// library implementing the block algorithms of Lu, Niu and Liu, "Efficient
// Block Algorithms for Parallel Sparse Triangular Solve" (ICPP 2020), on a
// portable goroutine execution substrate.
//
// The headline solver partitions a sparse lower-triangular matrix
// recursively into triangular and square sub-blocks, reorders each
// triangular range by its level-set order, stores the blocks in execution
// order (CSC triangles with separated diagonals, CSR/DCSR squares), and
// solves each block with the best of four SpTRSV kernels and four SpMV
// kernels chosen adaptively from the block's sparsity features.
//
// # Quick start
//
//	L := ... // *blocksptrsv.Matrix[float64], lower triangular
//	solver, err := blocksptrsv.Analyze(L, blocksptrsv.DefaultOptions(0))
//	if err != nil { ... }
//	x := make([]float64, n)
//	solver.Solve(b, x) // repeat for as many right-hand sides as needed
//
// Analyze is the expensive step (the paper's preprocessing, ~10 solve
// times); Solve amortises it across repeated right-hand sides, the
// dominant usage in direct solvers and preconditioned iterative methods.
//
// Baseline algorithms (serial, level-set, sync-free, cuSPARSE-like) are
// available through NewSolver for comparison and ablation.
package blocksptrsv

import (
	"io"
	"os"

	"github.com/sss-lab/blocksptrsv/internal/adapt"
	"github.com/sss-lab/blocksptrsv/internal/block"
	"github.com/sss-lab/blocksptrsv/internal/core"
	"github.com/sss-lab/blocksptrsv/internal/exec"
	"github.com/sss-lab/blocksptrsv/internal/gen"
	"github.com/sss-lab/blocksptrsv/internal/metrics"
	"github.com/sss-lab/blocksptrsv/internal/plancache"
	"github.com/sss-lab/blocksptrsv/internal/sparse"
)

// Float constrains the supported element types.
type Float = sparse.Float

// Matrix is a sparse matrix in compressed sparse row form. Construct one
// with a Builder, FromDense, or ReadMatrixMarket.
type Matrix[T Float] = sparse.CSR[T]

// Builder accumulates coordinate triplets; duplicates are summed on build.
type Builder[T Float] = sparse.Builder[T]

// Solver is the preprocessed recursive block SpTRSV of the paper.
type Solver[T Float] = block.Solver[T]

// Session is a per-goroutine solving context over a shared Solver —
// create one per goroutine with Solver.NewSession for concurrent solving.
type Session[T Float] = block.Session[T]

// Options configure Analyze. Start from DefaultOptions.
type Options = block.Options

// Kind selects the block partition shape in Options.
type Kind = block.Kind

// Partition kinds: the paper's recursive partition is the default and the
// fastest; column and row partitions exist for comparison (§3.1).
const (
	Recursive   = block.Recursive
	ColumnBlock = block.ColumnBlock
	RowBlock    = block.RowBlock
)

// Thresholds are the adaptive decision-tree cut points (§3.4).
type Thresholds = adapt.Thresholds

// PlanCache is a two-tier (in-process LRU + on-disk directory) cache of
// serialized analyses, content-addressed by matrix structure: set
// Options.PlanCache and a restarted process loads each plan instead of
// re-analyzing. Values are excluded from the key, so numeric updates on
// a fixed sparsity pattern hit and pay only an O(nnz) value refresh.
// Construct with OpenPlanCache.
type PlanCache = plancache.Cache

// PlanCacheConfig sizes a PlanCache: the on-disk directory (empty =
// in-process only) and the in-memory byte budget.
type PlanCacheConfig = plancache.Config

// PlanCacheStats snapshots a PlanCache's counters.
type PlanCacheStats = plancache.Stats

// Typed plan-cache verification failures. Both are misses — the entry
// is rebuilt and repaired — the error only explains why a disk entry
// was not trusted.
var (
	ErrPlanVersion  = plancache.ErrPlanVersion
	ErrPlanChecksum = plancache.ErrPlanChecksum
)

// OpenPlanCache opens a plan cache, creating the on-disk directory when
// one is configured. Safe for concurrent use; the directory may be
// shared between processes.
func OpenPlanCache(cfg PlanCacheConfig) (*PlanCache, error) {
	return plancache.Open(cfg)
}

// Device is a named execution profile (worker count and block-size policy).
type Device = exec.Device

// Launcher is the execution-pool interface all kernels run on. Plug one
// into Options.Pool to control worker count and dispatch style.
type Launcher = exec.Launcher

// SpinPool is the lowest-latency Launcher: resident workers driven by an
// atomic epoch broadcast and a spin barrier, costing two atomic operations
// per worker per launch. It is the default for solvers that don't supply
// their own pool. See NewSpinPool.
type SpinPool = exec.SpinPool

// LaunchStyle selects the launch mechanism a Device constructs: LaunchSpin
// (default) or LaunchSpawn. Set Device.Style, or pick a pool directly with
// NewSpinPool / NewPool.
type LaunchStyle = exec.LaunchStyle

// Launch styles for Device.Style.
const (
	LaunchSpin  = exec.LaunchSpin
	LaunchSpawn = exec.LaunchSpawn
)

// Traffic is the dense-equivalent b-update/x-load accounting of a
// partition (the paper's Tables 1 and 2).
type Traffic = block.Traffic

// SolveStats are a solver's (or session's) instrumentation counters,
// including the guarded path's recovery counts: Refinements tallies
// solves that needed an iterative-refinement step, Fallbacks solves that
// fell back to the serial reference (see Options.VerifyResidual).
type SolveStats = block.SolveStats

// TraceRecorder is a bounded ring buffer of per-step solve traces. Attach
// one via Options.Trace (or Solver.SetTrace) and export with WriteTable,
// WriteChromeTrace, Steps or Summarize.
type TraceRecorder = block.TraceRecorder

// TraceStep is one recorded plan step of a traced solve.
type TraceStep = block.TraceStep

// TraceSummary aggregates recorded steps per segment kind and per kernel.
type TraceSummary = block.TraceSummary

// NewTraceRecorder returns a recorder retaining the most recent capacity
// steps (non-positive selects 65536). Recording never allocates.
func NewTraceRecorder(capacity int) *TraceRecorder { return block.NewTraceRecorder(capacity) }

// Metrics returns the process-wide metrics registry as a JSON string:
// cumulative solve counts, per-kernel call counts, solve-latency and
// launch-cost histograms, guard trips, refinements and fallbacks. The
// same object is published via expvar under the key "blocksptrsv".
func Metrics() string { return metrics.Default.String() }

// ResetMetrics zeroes every process-wide counter and histogram.
func ResetMetrics() { metrics.Default.Reset() }

// Typed errors of the guarded solve path. Validation failures surface at
// Analyze time when Options.Validate is set; StallError and ResidualError
// come out of SolveContext.
var (
	// ErrSingular matches any zero-or-missing-diagonal failure:
	// errors.Is(err, ErrSingular) is true for ErrZeroDiagonal too.
	ErrSingular = sparse.ErrSingular
	// ErrNotTriangular reports an entry on the wrong side of the diagonal.
	ErrNotTriangular = sparse.ErrNotTriangular
)

// ErrZeroDiagonal pinpoints the row whose diagonal is missing or exactly
// zero. It satisfies errors.Is(err, ErrSingular).
type ErrZeroDiagonal = sparse.ErrZeroDiagonal

// ErrNonFinite pinpoints a stored NaN or Inf value by (row, column).
type ErrNonFinite = sparse.ErrNonFinite

// StallError reports a SolveContext aborted by the stall watchdog
// (Options.StallTimeout), carrying the stalled component and its
// unresolved dependency count when known.
type StallError = block.StallError

// ResidualError reports a SolveContext whose solution missed
// Options.VerifyResidual even after refinement and the serial fallback.
type ResidualError = block.ResidualError

// Validate runs the defensive input sweep of the guarded path on any
// matrix: structural invariants (sorted, in-bounds indices) plus a
// numerical sweep rejecting NaN/Inf. Triangular systems get the same
// checks plus diagonal/shape validation automatically at Analyze /
// AnalyzeUpper time when Options.Validate is set.
func Validate[T Float](m *Matrix[T]) error { return sparse.Validate(m) }

// BaselineSolver is the interface satisfied by every solver in the
// library, including the baselines returned by NewSolver.
type BaselineSolver[T Float] = core.Solver[T]

// NewBuilder returns a Builder for a rows×cols matrix.
func NewBuilder[T Float](rows, cols int) *Builder[T] { return sparse.NewBuilder[T](rows, cols) }

// FromDense builds a Matrix from a dense row-major slice, dropping zeros.
func FromDense[T Float](rows, cols int, dense []T) *Matrix[T] {
	return sparse.FromDense(rows, cols, dense)
}

// ReadMatrixMarket parses a Matrix Market coordinate stream
// (real/integer/pattern, general/symmetric/skew-symmetric).
func ReadMatrixMarket[T Float](r io.Reader) (*Matrix[T], error) {
	return sparse.ReadMatrixMarket[T](r)
}

// ReadMatrixMarketFile reads a Matrix Market file from disk.
func ReadMatrixMarketFile[T Float](path string) (*Matrix[T], error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	return sparse.ReadMatrixMarket[T](f)
}

// WriteMatrixMarket writes m as "coordinate real general".
func WriteMatrixMarket[T Float](w io.Writer, m *Matrix[T]) error {
	return sparse.WriteMatrixMarket(w, m)
}

// LowerTriangle extracts the lower-triangular part of a square matrix,
// optionally inserting unit diagonals where missing — the paper's recipe
// for turning an arbitrary test matrix into a solvable system.
func LowerTriangle[T Float](m *Matrix[T], insertUnitDiag bool) (*Matrix[T], error) {
	return sparse.LowerTriangle(m, insertUnitDiag)
}

// UpperTriangle is the upper-triangular counterpart of LowerTriangle.
func UpperTriangle[T Float](m *Matrix[T], insertUnitDiag bool) (*Matrix[T], error) {
	return sparse.UpperTriangle(m, insertUnitDiag)
}

// Transpose returns the transpose of m (handy for solving Uᵀ-systems with
// the lower-triangular solver).
func Transpose[T Float](m *Matrix[T]) *Matrix[T] { return m.Transpose() }

// DefaultDevice returns the whole-machine execution profile.
func DefaultDevice() Device { return exec.DefaultDevices()[1] }

// NewPool returns a goroutine-per-launch execution pool. workers <= 0
// selects GOMAXPROCS.
func NewPool(workers int) Launcher { return exec.NewPool(workers) }

// NewSpinPool returns the spin-barrier pool: resident workers woken by an
// atomic epoch broadcast, parking only after a spin budget, with static
// per-worker ranges plus bounded work-stealing inside each launch. It has
// the lower per-launch latency of the two pools when its workers fit the
// available Ps, runs launches inline on a single P, and is the library
// default. The pool must be Closed when done; idle workers park, so an
// open pool burns no CPU between launches.
func NewSpinPool(workers int) *SpinPool { return exec.NewSpinPool(workers) }

// DefaultOptions returns the paper-recommended configuration: recursive
// partition, level-set reordering, adaptive kernel selection, recursion
// cut-off derived from the worker count. workers <= 0 uses GOMAXPROCS.
func DefaultOptions(workers int) Options {
	dev := DefaultDevice()
	if workers > 0 {
		dev = Device{Name: "custom", Workers: workers, BlockFactor: dev.BlockFactor}
	}
	return block.Defaults(dev)
}

// Analyze preprocesses the lower-triangular system L for repeated solves
// (the paper's recursive block preprocessing, §3.3). L must be square,
// lower triangular, with a full nonzero diagonal — see LowerTriangle.
func Analyze[T Float](l *Matrix[T], opts Options) (*Solver[T], error) {
	return block.Preprocess(l, opts)
}

// Algorithms lists the algorithm names accepted by NewSolver.
func Algorithms() []string { return core.AlgorithmNames() }

// NewSolver constructs any named algorithm from the registry — the block
// solvers ("block-recursive", "block-column", "block-row") or the
// baselines ("serial", "level-set", "sync-free", "cusparse-like") — on a
// pool of the given size (<=0 = GOMAXPROCS). Useful for comparisons.
func NewSolver[T Float](algorithm string, l *Matrix[T], workers int) (BaselineSolver[T], error) {
	dev := DefaultDevice()
	if workers > 0 {
		dev = Device{Name: "custom", Workers: workers, BlockFactor: dev.BlockFactor}
	}
	return core.New(algorithm, l, core.Config{Device: dev})
}

// ILU0 computes the zero-fill incomplete LU factorisation of a square
// matrix with a full structural diagonal, returning unit-lower L and upper
// U. Together with Analyze and Transpose it builds the classic
// ILU-preconditioned iterative pipeline.
func ILU0(a *Matrix[float64]) (l, u *Matrix[float64], err error) {
	return gen.ILU0(a)
}

// GridSPD returns the symmetric positive-definite 5-point Laplacian on an
// nx×ny grid — the model problem used by the examples.
func GridSPD(nx, ny int) *Matrix[float64] { return gen.SPDGridMatrix(nx, ny) }
