package block

import (
	"fmt"
	"io"
	"sync/atomic"
	"time"

	"github.com/sss-lab/blocksptrsv/internal/kernels"
	"github.com/sss-lab/blocksptrsv/internal/metrics"
)

// Per-step execution tracing: the measurement behind the paper's Figure 4
// made first-class. A TraceRecorder attached via Options.Trace receives
// one record per plan step per solve — segment kind, selected kernel,
// block geometry, wall time — into a preallocated metrics.Ring, so
// tracing a solve costs two clock reads, one short critical section and
// one struct copy per step, and never allocates. A nil recorder (the
// default) costs one pointer check per step.
//
// The ring is bounded: when full, the oldest steps are overwritten and
// Dropped counts what was lost. Export either as a text table (WriteTable)
// or as Chrome trace_event JSON (WriteChromeTrace) loadable in
// chrome://tracing and Perfetto, with one timeline row per solve.

// TraceStep is one recorded plan step in exported form.
type TraceStep struct {
	// Solve is the 1-based solve sequence number the step belongs to
	// (solves of concurrent sessions interleave in the ring but keep
	// distinct Solve ids).
	Solve int64
	// Step is the step's index in the execution plan.
	Step int
	// Kind is "tri" for triangular solves, "spmv" for square updates.
	Kind string
	// Block is the index of the triangular or square block.
	Block int
	// Kernel is the selected kernel's name.
	Kernel string
	// Rows and Cols are the block extents (Cols == Rows for triangles).
	Rows, Cols int
	// NNZ is the block's stored nonzeros (diagonal included for triangles).
	NNZ int
	// Levels is the triangle's level-set count (0 for squares).
	Levels int
	// Start is the step's start offset from the recorder's epoch.
	Start time.Duration
	// Duration is the step's wall time.
	Duration time.Duration
}

// traceRec is the compact in-ring form of a step; exported TraceStep
// values are materialised only on export, keeping record() copy-only.
type traceRec struct {
	solve      int64
	start      int64 // ns since epoch
	dur        int64 // ns
	step       int32
	block      int32
	rows, cols int32
	nnz        int32
	levels     int32
	kind       segKind
	kernel     uint8 // TriKernel or SpMVKernel value, per kind
}

// stepMeta is the static half of a trace record — block geometry,
// precomputed per plan step when tracing is armed so the hot path copies
// instead of recomputing. The kernel is passed at record time instead:
// per-block calibration may legitimately change it after preprocessing.
type stepMeta struct {
	block      int32
	rows, cols int32
	nnz        int32
	levels     int32
	kind       segKind
}

// TraceRecorder is a bounded, concurrency-safe ring buffer of solve
// steps. Construct with NewTraceRecorder and attach via Options.Trace
// before Preprocess; one recorder may serve a Solver and all its Sessions
// concurrently. The zero value is not usable.
type TraceRecorder struct {
	epoch  time.Time
	solves atomic.Int64
	ring   *metrics.Ring[traceRec]
}

// NewTraceRecorder returns a recorder holding the most recent capacity
// steps (non-positive selects 1<<16). All memory is allocated up front;
// recording never allocates.
func NewTraceRecorder(capacity int) *TraceRecorder {
	if capacity <= 0 {
		capacity = 1 << 16
	}
	return &TraceRecorder{epoch: time.Now(), ring: metrics.NewRing[traceRec](capacity)}
}

// beginSolve assigns the next solve sequence number.
//
//sptrsv:hotpath
func (r *TraceRecorder) beginSolve() int64 { return r.solves.Add(1) }

// record appends one step. Hot path: called once per plan step of a
// traced solve, under a short mutex so concurrent sessions interleave
// cleanly.
//
//sptrsv:hotpath
func (r *TraceRecorder) record(solve int64, step int, m stepMeta, kernel uint8, start time.Time, dur time.Duration) {
	rec := traceRec{
		solve:  solve,
		start:  start.Sub(r.epoch).Nanoseconds(),
		dur:    dur.Nanoseconds(),
		step:   int32(step),
		block:  m.block,
		rows:   m.rows,
		cols:   m.cols,
		nnz:    m.nnz,
		levels: m.levels,
		kind:   m.kind,
		kernel: kernel,
	}
	r.ring.Push(rec)
}

// Len reports how many steps the ring currently holds.
func (r *TraceRecorder) Len() int { return r.ring.Len() }

// Total reports how many steps have ever been recorded, including any
// overwritten by the bounded ring.
func (r *TraceRecorder) Total() int64 { return int64(r.ring.Total()) }

// Dropped reports how many recorded steps the ring has overwritten.
func (r *TraceRecorder) Dropped() int64 { return int64(r.ring.Dropped()) }

// Reset forgets all recorded steps (capacity and epoch are kept).
func (r *TraceRecorder) Reset() { r.ring.Reset() }

// snapshot copies the retained records oldest-first.
func (r *TraceRecorder) snapshot() []traceRec {
	recs, _ := r.ring.Last(r.ring.Cap())
	return recs
}

func (rec traceRec) export() TraceStep {
	st := TraceStep{
		Solve:    rec.solve,
		Step:     int(rec.step),
		Block:    int(rec.block),
		Rows:     int(rec.rows),
		Cols:     int(rec.cols),
		NNZ:      int(rec.nnz),
		Levels:   int(rec.levels),
		Start:    time.Duration(rec.start),
		Duration: time.Duration(rec.dur),
	}
	if rec.kind == triSeg {
		st.Kind = "tri"
		st.Kernel = kernels.TriKernel(rec.kernel).String()
	} else {
		st.Kind = "spmv"
		st.Kernel = kernels.SpMVKernel(rec.kernel).String()
	}
	return st
}

// Steps returns the retained steps oldest-first in exported form.
func (r *TraceRecorder) Steps() []TraceStep {
	recs := r.snapshot()
	out := make([]TraceStep, len(recs))
	for i, rec := range recs {
		out[i] = rec.export()
	}
	return out
}

// WriteChromeTrace writes the retained steps as Chrome trace_event JSON
// (the object form, {"traceEvents":[...]}), loadable in chrome://tracing
// and Perfetto. Each step is a complete ("X") event; the solve sequence
// number becomes the thread id so concurrent sessions land on separate
// timeline rows, and block geometry travels in args.
func (r *TraceRecorder) WriteChromeTrace(w io.Writer) error {
	ew := metrics.NewEventWriter(w)
	for _, rec := range r.snapshot() {
		st := rec.export()
		ew.Complete(st.Kernel, st.Kind, st.Solve, st.Start, st.Duration,
			fmt.Sprintf(`"step":%d,"block":%d,"rows":%d,"cols":%d,"nnz":%d,"levels":%d`,
				st.Step, st.Block, st.Rows, st.Cols, st.NNZ, st.Levels))
	}
	return ew.Close()
}

// WriteTable writes the retained steps as an aligned text table,
// oldest-first.
func (r *TraceRecorder) WriteTable(w io.Writer) error {
	steps := r.Steps()
	if _, err := fmt.Fprintf(w, "%6s %5s %-5s %6s %-19s %8s %8s %9s %7s %12s %12s\n",
		"solve", "step", "kind", "block", "kernel", "rows", "cols", "nnz", "levels", "start", "dur"); err != nil {
		return err
	}
	for _, st := range steps {
		if _, err := fmt.Fprintf(w, "%6d %5d %-5s %6d %-19s %8d %8d %9d %7d %12v %12v\n",
			st.Solve, st.Step, st.Kind, st.Block, st.Kernel,
			st.Rows, st.Cols, st.NNZ, st.Levels, st.Start, st.Duration); err != nil {
			return err
		}
	}
	if d := r.Dropped(); d > 0 {
		if _, err := fmt.Fprintf(w, "(%d older steps dropped by the bounded ring)\n", d); err != nil {
			return err
		}
	}
	return nil
}

// Summary aggregates the retained steps: wall time and call count per
// segment kind and per kernel. It is what the breakdown experiment and
// the CLI print.
type TraceSummary struct {
	Steps     int
	Solves    int
	TriTime   time.Duration
	SpMVTime  time.Duration
	TriCalls  int64
	SpMVCalls int64
	// StepP50/P90/P99 are upper-bound estimates of the step-duration
	// quantiles, extracted from a log₂ histogram of the retained steps
	// (metrics.Histogram.Quantile: within 2× of the true value).
	StepP50, StepP90, StepP99 time.Duration
	// ByKernel maps kernel name to total wall time and call count.
	KernelTime  map[string]time.Duration
	KernelCalls map[string]int64
}

// Summarize folds the retained steps into per-kind and per-kernel totals
// plus step-duration quantiles.
func (r *TraceRecorder) Summarize() TraceSummary {
	s := TraceSummary{
		KernelTime:  make(map[string]time.Duration),
		KernelCalls: make(map[string]int64),
	}
	solves := make(map[int64]struct{})
	var durs metrics.Histogram
	for _, rec := range r.snapshot() {
		st := rec.export()
		s.Steps++
		solves[st.Solve] = struct{}{}
		if st.Kind == "tri" {
			s.TriTime += st.Duration
			s.TriCalls++
		} else {
			s.SpMVTime += st.Duration
			s.SpMVCalls++
		}
		s.KernelTime[st.Kernel] += st.Duration
		s.KernelCalls[st.Kernel]++
		durs.Observe(st.Duration)
	}
	s.Solves = len(solves)
	if s.Steps > 0 {
		s.StepP50 = durs.Quantile(0.5)
		s.StepP90 = durs.Quantile(0.9)
		s.StepP99 = durs.Quantile(0.99)
	}
	return s
}
