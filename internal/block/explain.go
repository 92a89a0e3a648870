package block

import (
	"fmt"
	"strings"

	"github.com/sss-lab/blocksptrsv/internal/kernels"
)

// Explain renders the full preprocessed plan before any solve runs: the
// configuration (with GOMAXPROCS, flagged oversubscribed when the pool
// has more workers than Ps), the partition tree in execution order
// (indented by recursion depth), each block's adapt features and selected
// kernel (for triangles with the cost model's estimate for that kernel
// and for serial), and the traffic/kernel summaries. The output is
// deterministic — two identical Preprocess calls explain identically — so
// tests and tooling may diff it.
//
// Solvers reloaded with LoadSolver explain flat (the recursion depths are
// a preprocessing artefact and are not serialised).
func (s *Solver[T]) Explain() string {
	var b strings.Builder
	fmt.Fprintf(&b, "%s: n=%d, %d triangular + %d square blocks\n",
		s.Name(), s.n, len(s.tris), len(s.sqs))
	over := ""
	if s.machine.Oversubscribed() {
		over = " oversubscribed"
	}
	fmt.Fprintf(&b, "options: partition=%s workers=%d procs=%d%s minblockrows=%d maxdepth=%d nseg=%d reorder=%v adaptive=%v\n",
		s.opts.Kind, s.pool.Workers(), s.machine.Procs, over, s.opts.MinBlockRows, s.opts.MaxDepth, s.opts.NSeg,
		s.opts.Reorder, s.opts.Adaptive)
	fmt.Fprintf(&b, "reordered=%v traffic: %d b-updates, %d x-loads (dense-equivalent)\n",
		s.perm != nil, s.traffic.BUpdates, s.traffic.XLoads)
	th := s.opts.Thresholds
	b.WriteString("execution plan:\n")
	for si, st := range s.steps {
		depth := 0
		if si < len(s.stepDepth) {
			depth = s.stepDepth[si]
		}
		indent := strings.Repeat("  ", depth)
		if st.kind == triSeg {
			tb := &s.tris[st.idx]
			f := tb.feats
			fmt.Fprintf(&b, "%4d  %stri  #%d [%d:%d)  rows=%d strict-nnz=%d nnz/row=%.2f levels=%d  kernel=%s  est=%.1fus (serial %.1fus)\n",
				si, indent, st.idx, tb.lo, tb.hi, f.Rows, f.StrictNNZ, f.NNZPerRow, f.NLevels, tb.kernel,
				th.EstimateTri(tb.kernel, f, tb.info, s.machine)/1e3,
				th.EstimateTri(kernels.TriSerial, f, tb.info, s.machine)/1e3)
		} else {
			sb := &s.sqs[st.idx]
			f := sb.feats
			fmt.Fprintf(&b, "%4d  %ssq   #%d [%d:%d)x[%d:%d)  rows=%d nnz=%d nnz/row=%.2f empty=%.0f%%  kernel=%s\n",
				si, indent, st.idx, sb.spec.rowLo, sb.spec.rowHi, sb.spec.colLo, sb.spec.colHi,
				f.Rows, f.NNZ, f.NNZPerRow, 100*f.EmptyRatio, sb.kernel)
		}
	}
	fmt.Fprintf(&b, "tri kernels: %v\n", formatTriCounts(s.TriKernelCounts()))
	fmt.Fprintf(&b, "spmv kernels: %v\n", formatSpMVCounts(s.SpMVKernelCounts()))
	return b.String()
}

// Explain renders the shared solver's plan (see Solver.Explain).
func (ses *Session[T]) Explain() string { return ses.s.Explain() }
