// Package block implements the paper's contribution: the column, row and
// recursive block algorithms for parallel SpTRSV (§3.1), the improved
// recursive data structure with level-set reordering and alternating
// triangular/square storage (§3.3), and adaptive per-block kernel selection
// (§3.4, Algorithm 7).
package block

import (
	"time"

	"github.com/sss-lab/blocksptrsv/internal/adapt"
	"github.com/sss-lab/blocksptrsv/internal/exec"
	"github.com/sss-lab/blocksptrsv/internal/kernels"
	"github.com/sss-lab/blocksptrsv/internal/plancache"
)

// Kind selects which of the three block partitions a solver uses.
type Kind uint8

const (
	// Recursive splits the triangle into two half-size triangles plus a
	// square block, recursively (Algorithm 6 / Figure 2c).
	Recursive Kind = iota
	// ColumnBlock splits into vertical panels, each a triangle on top of a
	// tall rectangle (Algorithm 4 / Figure 2a).
	ColumnBlock
	// RowBlock splits into horizontal panels, each a wide rectangle left
	// of a triangle (Algorithm 5 / Figure 2b).
	RowBlock
)

func (k Kind) String() string {
	switch k {
	case Recursive:
		return "recursive"
	case ColumnBlock:
		return "column"
	case RowBlock:
		return "row"
	}
	return "unknown"
}

// Options configure preprocessing and execution of a block solver.
// The zero value plus Defaults() gives the paper's recommended
// configuration: recursive partition, level-set reordering, adaptive
// kernel selection, recursion cut-off tied to the device size.
type Options struct {
	// Pool is the execution pool; nil creates one with Workers workers
	// in the Style launch style.
	Pool exec.Launcher
	// Workers sizes the pool when Pool is nil; <=0 means GOMAXPROCS.
	Workers int
	// Style selects the launcher implementation when Pool is nil. The
	// zero value is exec.LaunchSpin, the lowest-latency launcher.
	Style exec.LaunchStyle

	// Kind selects the partition shape.
	Kind Kind
	// NSeg is the number of panels for ColumnBlock/RowBlock partitions
	// (ignored by Recursive). <=1 degenerates to a single triangle.
	NSeg int
	// MinBlockRows stops recursive splitting: blocks at or below this many
	// rows become leaves. <=0 derives the paper's "20 × core count"
	// analogue from the device (exec.Device.MinBlockRows).
	MinBlockRows int
	// MaxDepth caps recursive split depth; 0 means limited only by
	// MinBlockRows. Depth d yields up to 2^d triangular leaves.
	MaxDepth int

	// Reorder applies the improved structure's level-set reordering (§3.3)
	// to every triangular range in the partition tree.
	Reorder bool
	// Adaptive selects per-block kernels (§3.4): triangular blocks by the
	// launch-and-sync cost model (adapt.Thresholds.PickTri), square
	// blocks by Algorithm 7's SpMV cut points. When false,
	// ForceTri/ForceSpMV are used for every block.
	Adaptive bool
	// Thresholds override the SpMV cut points and, through LaunchCost,
	// the cost model's per-launch price; the zero value selects
	// adapt.DefaultThresholds.
	Thresholds adapt.Thresholds
	// ForceTri / ForceSpMV pin the kernels when Adaptive is false.
	// kernels.TriAuto / kernels.SpMVAuto fall back to adaptive selection.
	ForceTri  kernels.TriKernel
	ForceSpMV kernels.SpMVKernel

	// Instrument accumulates per-solve timing of the triangular and SpMV
	// phases (Figure 4's measurement). It adds two clock reads per
	// segment per solve.
	Instrument bool
	// Trace attaches a per-step execution recorder: every plan step of
	// every solve records kind, kernel, geometry and wall time into the
	// recorder's bounded ring, exportable as a text table or Chrome
	// trace_event JSON. nil (the default) costs one pointer check per
	// solve. See NewTraceRecorder and Solver.SetTrace.
	Trace *TraceRecorder

	// Validate runs sparse.ValidateLower on the input at preprocessing
	// time: sorted in-bounds indices, finite values, a present nonzero
	// diagonal. Defects surface as typed errors (sparse.ErrZeroDiagonal,
	// sparse.ErrNonFinite, sparse.ErrNotTriangular) instead of NaN
	// solutions or hangs later. One O(nnz) sweep, preprocessing only.
	Validate bool
	// VerifyResidual, when > 0, makes SolveContext check the solution's
	// scaled infinity-norm residual max_i |(L·x-b)_i|/(1+|b_i|) against
	// this tolerance. On failure the solve degrades gracefully: one
	// iterative-refinement step if Refine is set, then the serial
	// reference fallback; if even that misses the tolerance, a
	// ResidualError is returned. Plain Solve never verifies.
	VerifyResidual float64
	// Refine enables the single iterative-refinement step of the
	// verification ladder (solve L·δ = b−L·x, add δ) before falling back
	// to the serial reference. Only consulted when VerifyResidual > 0.
	Refine bool
	// StallTimeout arms SolveContext's watchdog: a solve whose progress
	// counter stops moving for this long is aborted with a StallError
	// carrying the stalled component and its remaining dependency count.
	// Zero disables the watchdog. Plain Solve is never watched.
	StallTimeout time.Duration

	// Calibrate replaces threshold-based kernel selection with per-block
	// measurements after preprocessing: every applicable kernel is timed
	// on every block and the fastest wins (see Solver.CalibrateKernels).
	// Costs CalibrateRepeats × kernels solves per block at preprocessing.
	Calibrate bool
	// CalibrateRepeats is the best-of-N repeat count; <=0 means 2.
	CalibrateRepeats int
	// Auto routes Preprocess through PreprocessAuto: a few candidate
	// configurations (as-given, no-reorder, single-triangle) are timed and
	// the fastest kept. Guarantees the solver is never slower than the
	// best single whole-matrix kernel.
	Auto bool

	// PlanCache, when non-nil, makes Preprocess content-addressed: the
	// matrix structure plus a fingerprint of the plan-shaping options key
	// a serialized plan in the cache, and a hit loads the stored analysis
	// instead of recomputing it. Values are excluded from the key — a
	// numeric update on a fixed sparsity pattern hits and has its value
	// arrays refreshed from the caller's matrix. Misses analyze cold and
	// populate the cache; corrupted or version-mismatched entries degrade
	// to a cold analysis and are rewritten.
	PlanCache *plancache.Cache
}

// Defaults returns the paper-recommended configuration for a device. The
// pool itself is created lazily (normalised), so overriding Options.Pool
// before Preprocess never strands a resident-worker pool.
func Defaults(dev exec.Device) Options {
	return Options{
		Workers:      dev.Workers,
		Style:        dev.Style,
		Kind:         Recursive,
		MinBlockRows: dev.MinBlockRows(),
		Reorder:      true,
		Adaptive:     true,
		Thresholds:   adapt.DefaultThresholds(),
	}
}

// normalised fills derived fields: pool, thresholds, cut-off. The default
// pool is a SpinPool — the lowest-latency launcher — whose idle workers
// park, so solvers that never Close their implicit pool hold parked
// goroutines but burn no CPU.
func (o Options) normalised() Options {
	if o.Pool == nil {
		o.Pool = exec.NewLauncher(o.Style, o.Workers)
	}
	if o.Thresholds == (adapt.Thresholds{}) {
		o.Thresholds = adapt.DefaultThresholds()
	}
	if o.MinBlockRows <= 0 {
		o.MinBlockRows = exec.Device{Workers: o.Pool.Workers()}.MinBlockRows()
	}
	if o.NSeg < 1 {
		o.NSeg = 1
	}
	return o
}
