package block

import (
	"context"
	"fmt"
	"runtime"
	"runtime/pprof"
	"strconv"
	"strings"
	"time"

	"github.com/sss-lab/blocksptrsv/internal/adapt"
	"github.com/sss-lab/blocksptrsv/internal/exec"
	"github.com/sss-lab/blocksptrsv/internal/faultinject"
	"github.com/sss-lab/blocksptrsv/internal/kernels"
	"github.com/sss-lab/blocksptrsv/internal/levelset"
	"github.com/sss-lab/blocksptrsv/internal/sparse"
)

// Traffic is the dense-equivalent data movement of one solve, the metric
// of the paper's Tables 1 and 2: BUpdates counts items written to the
// evolving right-hand side (each triangular row once, plus each square
// block's row extent), XLoads counts items of the solution vector read by
// square blocks (each square's column extent). Both are static properties
// of the partition, computed at preprocessing time.
type Traffic struct {
	BUpdates int64
	XLoads   int64
}

// SolveStats accumulates instrumented per-phase timings (Options.
// Instrument), the measurement behind Figure 4.
type SolveStats struct {
	TriTime   time.Duration
	SpMVTime  time.Duration
	TriCalls  int64
	SpMVCalls int64
	Solves    int64
	// Refinements and Fallbacks count SolveContext recoveries: solves
	// that needed an iterative-refinement step, and solves that fell all
	// the way back to the serial reference (see Options.VerifyResidual).
	Refinements int64
	Fallbacks   int64
	// LastTraceID is the TraceRecorder solve id assigned to the most
	// recent solve on this stats stream (0 when no recorder is attached).
	// Request-scoped observability (the daemon's span tracing) reads it
	// after a solve to link a request span to the per-step trace records.
	LastTraceID int64
}

// triBlock is a preprocessed triangular diagonal block: strictly-lower
// storage plus separate diagonal (§3.3), with the auxiliary structures of
// its selected kernel.
type triBlock[T sparse.Float] struct {
	lo, hi    int
	diag      []T
	strictCSC *sparse.CSC[T]
	strictCSR *sparse.CSR[T]          // the gather-form kernels: level-set, sync-free, cusparse-like
	info      *levelset.Info          // level-set only
	sched     *kernels.MergedSchedule // cusparse-like only
	state     *kernels.SyncFreeState  // sync-free only
	kernel    kernels.TriKernel
	feats     adapt.TriFeatures
}

// sqBlock is a preprocessed off-diagonal block: CSR or DCSR (exactly one
// is non-nil, per the selected kernel's needs).
type sqBlock[T sparse.Float] struct {
	spec   segSpec
	csr    *sparse.CSR[T]
	dcsr   *sparse.DCSR[T]
	kernel kernels.SpMVKernel
	feats  adapt.SpMVFeatures
}

type planStep struct {
	kind segKind
	idx  int
}

// Solver is a preprocessed block SpTRSV. Construct with Preprocess; Solve
// may be called any number of times but not concurrently (it owns scratch
// vectors). It implements the kernels.Solver interface.
type Solver[T sparse.Float] struct {
	n       int
	opts    Options
	pool    exec.Launcher
	perm    []int          // newIdx[original] = permuted position; nil without reorder
	orig    *sparse.CSR[T] // caller's matrix, for residual checks and fallback; nil when deserialised
	tris    []triBlock[T]
	sqs     []sqBlock[T]
	steps   []planStep
	traffic Traffic
	sqNNZ   int
	// machine is what the tri cost model saw at analysis (or load): the
	// pool's workers and GOMAXPROCS. Explain prices the plan against it.
	machine adapt.Machine

	// ses is the solver's own solving context: the scratch and stats
	// stream of the Solver's solve methods, which forward to it. Its
	// states are nil, so sync-free blocks use the solver-owned counters.
	ses Session[T]

	// Observability state. stepDepth holds each step's recursion depth
	// for Explain's tree rendering (nil on deserialised solvers); meta
	// and labels exist only while a TraceRecorder is attached (SetTrace)
	// — meta is the per-step geometry the recorder copies, labels the
	// prebuilt pprof label sets applied around each step so CPU profiles
	// attribute caller-side samples to block indices.
	stepDepth []int
	meta      []stepMeta
	labels    []context.Context
}

// Preprocess builds a block solver for the lower-triangular system L
// according to opts. It performs the full pipeline of §3.3: optional
// recursive level-set reordering, partition into triangular and square
// blocks stored in execution order, per-block format choice (CSC triangles
// with separated diagonals, CSR/DCSR squares) and kernel selection. With
// opts.Auto set it instead keeps the fastest of a few candidate
// configurations (PreprocessAuto).
func Preprocess[T sparse.Float](l *sparse.CSR[T], opts Options) (*Solver[T], error) {
	if opts.Auto {
		return PreprocessAuto(l, opts)
	}
	o := opts.normalised()
	if o.Validate {
		if err := sparse.ValidateLower(l); err != nil {
			return nil, err
		}
	}
	if err := sparse.CheckLowerSolvable(l); err != nil {
		return nil, err
	}
	if o.PlanCache != nil {
		return preprocessCached(l, o)
	}
	return preprocessCold(l, o)
}

// preprocessCold runs the full analysis pipeline on already-validated,
// already-normalised inputs. It is the body of Preprocess when no plan
// cache is configured, and the miss path when one is.
func preprocessCold[T sparse.Float](l *sparse.CSR[T], o Options) (*Solver[T], error) {
	mAnalyzes.Inc()
	n := l.Rows
	s := &Solver[T]{n: n, opts: o, pool: o.Pool, orig: l, machine: machineOf(o.Pool)}
	s.ses.s = s

	plan := buildPlan(n, o)
	if err := planChecks(n, plan); err != nil {
		return nil, err
	}

	// Improved structure (§3.3): reorder every triangular range of the
	// partition tree by its own level-set order, coarsest range first.
	cur := l
	if o.Reorder {
		var total []int
		for _, pass := range reorderRanges(n, o) {
			passPerm := make([]int, n)
			for i := range passPerm {
				passPerm[i] = i
			}
			changed := false
			for _, r := range pass {
				lo, hi := r[0], r[1]
				sub := sparse.SubCSR(cur, lo, hi, lo, hi)
				order := levelset.FromLowerCSR(sub).Order()
				for i, p := range order {
					passPerm[lo+i] = lo + p
					if p != i {
						changed = true
					}
				}
			}
			if !changed {
				continue
			}
			var err error
			cur, err = sparse.PermuteSym(cur, passPerm)
			if err != nil {
				return nil, fmt.Errorf("block: reorder pass failed: %w", err)
			}
			if total == nil {
				total = passPerm
			} else {
				total = sparse.ComposePerm(total, passPerm)
			}
		}
		s.perm = total
	}

	cscAll := cur.ToCSC()
	s.traffic.BUpdates = int64(n)
	s.stepDepth = make([]int, 0, len(plan))
	for _, spec := range plan {
		s.stepDepth = append(s.stepDepth, spec.depth)
		switch spec.kind {
		case triSeg:
			tb, err := buildTriBlock[T](cscAll, spec, o, s.machine)
			if err != nil {
				return nil, err
			}
			s.steps = append(s.steps, planStep{triSeg, len(s.tris)})
			s.tris = append(s.tris, tb)
		case sqSeg:
			sb := buildSqBlock[T](cur, spec, o)
			s.traffic.BUpdates += int64(spec.rowHi - spec.rowLo)
			s.traffic.XLoads += int64(spec.colHi - spec.colLo)
			s.sqNNZ += sb.feats.NNZ
			s.steps = append(s.steps, planStep{sqSeg, len(s.sqs)})
			s.sqs = append(s.sqs, sb)
		}
	}
	if o.Calibrate {
		reps := o.CalibrateRepeats
		if reps <= 0 {
			reps = 2
		}
		s.CalibrateKernels(reps)
	}
	if o.Trace != nil {
		s.SetTrace(o.Trace)
	}
	return s, nil
}

// SetTrace attaches (or, with nil, detaches) a step recorder after
// construction — the post-hoc equivalent of Options.Trace, usable on
// deserialised solvers too. It precomputes the per-step geometry the
// recorder copies on the hot path and the pprof label set applied around
// each step. Not safe to call concurrently with solves.
func (s *Solver[T]) SetTrace(r *TraceRecorder) {
	s.opts.Trace = r
	if r == nil {
		s.meta, s.labels = nil, nil
		return
	}
	s.meta = make([]stepMeta, len(s.steps))
	s.labels = make([]context.Context, len(s.steps))
	for si, st := range s.steps {
		var m stepMeta
		kind := "tri"
		if st.kind == triSeg {
			tb := &s.tris[st.idx]
			rows := tb.hi - tb.lo
			m = stepMeta{
				kind: triSeg, block: int32(st.idx),
				rows: int32(rows), cols: int32(rows),
				nnz:    int32(tb.strictCSC.NNZ() + len(tb.diag)),
				levels: int32(tb.feats.NLevels),
			}
		} else {
			sb := &s.sqs[st.idx]
			kind = "spmv"
			nnz := sb.feats.NNZ
			m = stepMeta{
				kind: sqSeg, block: int32(st.idx),
				rows: int32(sb.spec.rowHi - sb.spec.rowLo),
				cols: int32(sb.spec.colHi - sb.spec.colLo),
				nnz:  int32(nnz),
			}
		}
		s.meta[si] = m
		s.labels[si] = pprof.WithLabels(context.Background(), pprof.Labels(
			"sptrsv_step", strconv.Itoa(si),
			"sptrsv_kind", kind,
			"sptrsv_block", strconv.Itoa(st.idx)))
	}
}

// Trace returns the attached step recorder, or nil.
func (s *Solver[T]) Trace() *TraceRecorder { return s.opts.Trace }

// machineOf describes where a plan on pool runs, for the tri cost model.
func machineOf(pool exec.Launcher) adapt.Machine {
	return adapt.Machine{Workers: pool.Workers(), Procs: runtime.GOMAXPROCS(0)}
}

func buildTriBlock[T sparse.Float](cscAll *sparse.CSC[T], spec segSpec, o Options, m adapt.Machine) (triBlock[T], error) {
	sub := sparse.SubCSC(cscAll, spec.rowLo, spec.rowHi, spec.colLo, spec.colHi)
	strict, diag, err := sparse.SplitDiagCSC(sub)
	if err != nil {
		return triBlock[T]{}, fmt.Errorf("block: triangular block %v: %w", spec, err)
	}
	info := levelset.FromLowerCSC(strict)
	tb := triBlock[T]{
		lo: spec.rowLo, hi: spec.rowHi,
		diag:      diag,
		strictCSC: strict,
		info:      info,
		feats:     adapt.TriFeaturesOf(strict, info),
	}
	switch {
	case tb.feats.NLevels <= 1:
		// A diagonal-only block is completely parallel no matter what the
		// caller forced; the kernels are semantically identical here and
		// this one never loses.
		tb.kernel = kernels.TriCompletelyParallel
	case o.Adaptive || o.ForceTri == kernels.TriAuto:
		tb.kernel = o.Thresholds.PickTri(tb.feats, info, m)
	case o.ForceTri == kernels.TriCompletelyParallel:
		return triBlock[T]{}, fmt.Errorf("block: cannot force completely-parallel kernel on block %v with %d levels", spec, tb.feats.NLevels)
	default:
		tb.kernel = o.ForceTri
	}
	if gatherKernel(tb.kernel) {
		tb.strictCSR = strict.ToCSR()
	}
	switch tb.kernel {
	case kernels.TriSyncFree:
		tb.state = kernels.NewSyncFreeState(strict)
	case kernels.TriCuSparseLike:
		tb.sched = kernels.NewMergedSchedule(info, 0, o.Pool.Workers())
	}
	// level-set keeps info; completely-parallel and serial need nothing.
	return tb, nil
}

// gatherKernel reports whether a triangular kernel solves in gather form
// and so needs the block's strictly-lower CSR.
func gatherKernel(k kernels.TriKernel) bool {
	return k == kernels.TriLevelSet || k == kernels.TriSyncFree || k == kernels.TriCuSparseLike
}

func buildSqBlock[T sparse.Float](cur *sparse.CSR[T], spec segSpec, o Options) sqBlock[T] {
	csr := sparse.SubCSR(cur, spec.rowLo, spec.rowHi, spec.colLo, spec.colHi)
	sb := sqBlock[T]{spec: spec, csr: csr, feats: adapt.SpMVFeaturesOf(csr)}
	if o.Adaptive || o.ForceSpMV == kernels.SpMVAuto {
		sb.kernel = o.Thresholds.SelectSpMV(sb.feats)
	} else {
		sb.kernel = o.ForceSpMV
	}
	switch sb.kernel {
	case kernels.SpMVScalarDCSR, kernels.SpMVVectorDCSR:
		// DCSR kernels keep only the doubly-compressed form — dropping the
		// empty-row pointer storage is the format's point.
		sb.dcsr = csr.ToDCSR()
		sb.csr = nil
	}
	return sb
}

// Rows reports the system size.
func (s *Solver[T]) Rows() int { return s.n }

// Name identifies the solver configuration for reports.
func (s *Solver[T]) Name() string {
	suffix := ""
	if !s.opts.Reorder {
		suffix = "-noreorder"
	}
	return "block-" + s.opts.Kind.String() + suffix
}

// Traffic reports the partition's dense-equivalent traffic (Tables 1–2).
func (s *Solver[T]) Traffic() Traffic { return s.traffic }

// NumTriBlocks reports how many triangular leaves the partition produced.
func (s *Solver[T]) NumTriBlocks() int { return len(s.tris) }

// NumSquareBlocks reports how many off-diagonal blocks the partition
// produced.
func (s *Solver[T]) NumSquareBlocks() int { return len(s.sqs) }

// SquareNNZ reports how many nonzeros landed in off-diagonal blocks — the
// quantity the level-set reordering of §3.3 increases ("more nonzeros are
// concentrated in square parts").
func (s *Solver[T]) SquareNNZ() int { return s.sqNNZ }

// Perm returns a copy of the applied symmetric permutation
// (newIdx[original] = position), or nil when no reordering was applied.
func (s *Solver[T]) Perm() []int {
	if s.perm == nil {
		return nil
	}
	return append([]int(nil), s.perm...)
}

// TriKernels lists the selected SpTRSV kernel of every triangular block,
// in block order.
func (s *Solver[T]) TriKernels() []kernels.TriKernel {
	ks := make([]kernels.TriKernel, len(s.tris))
	for i := range s.tris {
		ks[i] = s.tris[i].kernel
	}
	return ks
}

// TriKernelCounts tallies the selected SpTRSV kernel per triangular block.
func (s *Solver[T]) TriKernelCounts() map[kernels.TriKernel]int {
	m := make(map[kernels.TriKernel]int)
	for i := range s.tris {
		m[s.tris[i].kernel]++
	}
	return m
}

// SpMVKernelCounts tallies the selected SpMV kernel per square block.
func (s *Solver[T]) SpMVKernelCounts() map[kernels.SpMVKernel]int {
	m := make(map[kernels.SpMVKernel]int)
	for i := range s.sqs {
		m[s.sqs[i].kernel]++
	}
	return m
}

// Describe returns a multi-line report of the preprocessed structure:
// partition shape, per-kernel block counts, square-nnz share and traffic —
// the introspection used by examples and tools.
func (s *Solver[T]) Describe() string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "%s: n=%d, %d triangular + %d square blocks\n",
		s.Name(), s.n, len(s.tris), len(s.sqs))
	totalNNZ := s.sqNNZ
	for i := range s.tris {
		totalNNZ += s.tris[i].strictCSC.NNZ() + len(s.tris[i].diag)
	}
	share := 0.0
	if totalNNZ > 0 {
		share = 100 * float64(s.sqNNZ) / float64(totalNNZ)
	}
	fmt.Fprintf(&sb, "square blocks hold %.1f%% of nonzeros; reordered=%v\n", share, s.perm != nil)
	fmt.Fprintf(&sb, "traffic per solve: %d b-updates, %d x-loads (dense-equivalent)\n",
		s.traffic.BUpdates, s.traffic.XLoads)
	fmt.Fprintf(&sb, "tri kernels: %v\n", formatTriCounts(s.TriKernelCounts()))
	fmt.Fprintf(&sb, "spmv kernels: %v", formatSpMVCounts(s.SpMVKernelCounts()))
	return sb.String()
}

func formatTriCounts(m map[kernels.TriKernel]int) string {
	order := []kernels.TriKernel{
		kernels.TriCompletelyParallel, kernels.TriLevelSet,
		kernels.TriSyncFree, kernels.TriCuSparseLike, kernels.TriSerial,
	}
	return formatCounts(order, func(k kernels.TriKernel) (string, int) { return k.String(), m[k] })
}

func formatSpMVCounts(m map[kernels.SpMVKernel]int) string {
	order := []kernels.SpMVKernel{
		kernels.SpMVScalarCSR, kernels.SpMVVectorCSR,
		kernels.SpMVScalarDCSR, kernels.SpMVVectorDCSR, kernels.SpMVSerial,
	}
	return formatCounts(order, func(k kernels.SpMVKernel) (string, int) { return k.String(), m[k] })
}

// formatCounts renders kernel tallies in a stable order (map iteration
// order would make Describe non-deterministic).
func formatCounts[K comparable](order []K, get func(K) (string, int)) string {
	var sb strings.Builder
	first := true
	for _, k := range order {
		name, n := get(k)
		if n == 0 {
			continue
		}
		if !first {
			sb.WriteString(", ")
		}
		first = false
		fmt.Fprintf(&sb, "%s\u00d7%d", name, n)
	}
	if first {
		return "none"
	}
	return sb.String()
}

// Stats returns the accumulated instrumentation counters.
func (s *Solver[T]) Stats() SolveStats { return s.ses.Stats() }

// ResetStats clears the instrumentation counters.
func (s *Solver[T]) ResetStats() { s.ses.ResetStats() }

// Solve computes x with L·x = b. b is not modified; b and x may be the
// same slice. Not safe for concurrent use — the solver owns scratch state;
// use NewSession for concurrent solving over the same analysis.
//
//sptrsv:hotpath
func (s *Solver[T]) Solve(b, x []T) { s.ses.Solve(b, x) }

// run is the one walk over the execution plan: it runs the steps over k
// right-hand sides (row-major n×k blocks; k = 1 is a single vector) in
// this session's scratch. A non-nil guard is checked between steps and
// handed to the level-set, sync-free and cuSPARSE-like kernels, which
// also poll it inside; a nil guard never trips. Instrumentation, the trace recorder, the pprof step
// labels and the solve metrics are fed here for every solve method. run
// reports whether the plan completed; on false the guard holds the cause
// and x is unspecified. The per-step clock reads make the whole function
// a measurement site.
//
//sptrsv:hotpath
//sptrsv:wallclock
func (ses *Session[T]) run(b, x []T, k int, g *exec.Guard) bool {
	s := ses.s
	m := s.n * k
	if len(ses.wp) < m {
		ses.grow(m)
	}
	rec, instrument := s.opts.Trace, s.opts.Instrument
	timed := instrument || rec != nil
	var solveT0 time.Time
	if timed {
		solveT0 = time.Now()
	}
	w, xp := ses.wp[:m], x
	if s.perm != nil {
		xp = ses.xp[:m]
		permuteRowsInto(w, b, s.perm, k)
	} else {
		copy(w, b)
	}
	stats := &ses.stats
	var sid int64
	if rec != nil {
		sid = rec.beginSolve()
	}
	stats.LastTraceID = sid
	done := true
	for si, st := range s.steps {
		if g.Tripped() {
			done = false
			break
		}
		var t0 time.Time
		if timed {
			t0 = time.Now()
		}
		if s.labels != nil {
			pprof.SetGoroutineLabels(s.labels[si])
		}
		var kern uint8
		if st.kind == triSeg {
			if faultinject.Enabled && g != nil {
				faultinject.PanicAt("tri-block", st.idx)
			}
			tb := &s.tris[st.idx]
			if !s.solveTri(tb, w[tb.lo*k:tb.hi*k], xp[tb.lo*k:tb.hi*k], k, stateFor(ses.states, st.idx, tb), g) {
				done = false
				break
			}
			mTriCalls[tb.kernel].Inc()
			kern = uint8(tb.kernel)
		} else {
			sb := &s.sqs[st.idx]
			xs, ws := xp[sb.spec.colLo*k:sb.spec.colHi*k], w[sb.spec.rowLo*k:sb.spec.rowHi*k]
			if k == 1 {
				kernels.RunSpMV(s.pool, sb.kernel, sb.csr, sb.dcsr, xs, ws)
			} else {
				kernels.RunSpMVBatch(s.pool, sb.kernel, sb.csr, sb.dcsr, xs, ws, k)
			}
			g.Step()
			mSpMVCalls[sb.kernel].Inc()
			kern = uint8(sb.kernel)
		}
		if timed {
			d := time.Since(t0)
			if instrument {
				if st.kind == triSeg {
					stats.TriTime += d
					stats.TriCalls++
				} else {
					stats.SpMVTime += d
					stats.SpMVCalls++
				}
			}
			if rec != nil {
				rec.record(sid, si, s.meta[si], kern, t0, d)
			}
		}
	}
	if s.labels != nil {
		pprof.SetGoroutineLabels(bgLabels)
	}
	if !done || g.Tripped() {
		return false
	}
	if faultinject.Enabled && g != nil {
		if row, v, ok := faultinject.Poison("solution"); ok && row*k < len(xp) {
			xp[row*k] = T(v)
		}
	}
	if s.perm != nil {
		unpermuteRowsInto(x, xp, s.perm, k)
	}
	stats.Solves++
	mSolves.Inc()
	if timed {
		mSolveTime.Observe(time.Since(solveT0))
	}
	return true
}

// bgLabels clears the per-step pprof labels after a traced solve.
var bgLabels = context.Background()

// stateFor picks the sync-free state: the session's private copy when one
// exists, the solver-owned one otherwise.
//
//sptrsv:hotpath
func stateFor[T sparse.Float](states []*kernels.SyncFreeState, idx int, tb *triBlock[T]) *kernels.SyncFreeState {
	if states != nil && states[idx] != nil {
		return states[idx]
	}
	return tb.state
}

// solveTri runs triangular block tb's kernel over k right-hand sides and
// reports whether it completed. The level-set, sync-free and cuSPARSE-like
// kernels poll the guard inside at every k; every other kernel counts as
// one progress step for the whole block.
//
//sptrsv:hotpath
func (s *Solver[T]) solveTri(tb *triBlock[T], w, x []T, k int, state *kernels.SyncFreeState, g *exec.Guard) bool {
	switch tb.kernel {
	case kernels.TriCompletelyParallel:
		if k == 1 {
			kernels.TriDiagOnlySolve(s.pool, tb.diag, w, x)
		} else {
			kernels.TriDiagOnlySolveBatch(s.pool, tb.diag, w, x, k)
		}
	case kernels.TriLevelSet:
		return kernels.TriLevelSetSolve(s.pool, tb.strictCSR, tb.diag, tb.info, w, x, k, g)
	case kernels.TriSyncFree:
		return kernels.TriSyncFreeSolve(s.pool, state, tb.strictCSC, tb.strictCSR, tb.diag, w, x, k, g)
	case kernels.TriCuSparseLike:
		return kernels.TriCuSparseLikeSolve(s.pool, tb.sched, tb.strictCSR, tb.diag, w, x, k, g)
	case kernels.TriSerial:
		if k == 1 {
			kernels.TriSerialSolve(tb.strictCSC, tb.diag, w, x)
		} else {
			kernels.TriSerialSolveBatch(tb.strictCSC, tb.diag, w, x, k)
		}
	default:
		panic(fmt.Sprintf("block: unresolved tri kernel %v", tb.kernel))
	}
	g.Step()
	return true
}

// SolveMulti solves L·X = B column by column: B and X are sets of
// right-hand sides / solutions of equal length. This is the
// multiple-right-hand-sides scenario the paper's preprocessing cost
// amortises over (§4.4).
func (s *Solver[T]) SolveMulti(b, x [][]T) {
	if len(b) != len(x) {
		panic(fmt.Sprintf("block: SolveMulti got %d rhs and %d solutions", len(b), len(x)))
	}
	for k := range b {
		s.Solve(b[k], x[k])
	}
}
