package bench

import (
	"fmt"
	"io"
	"time"

	"github.com/sss-lab/blocksptrsv/internal/block"
	"github.com/sss-lab/blocksptrsv/internal/exec"
	"github.com/sss-lab/blocksptrsv/internal/gen"
	"github.com/sss-lab/blocksptrsv/internal/kernels"
	"github.com/sss-lab/blocksptrsv/internal/sparse"
)

// Ablation measures the design choices DESIGN.md calls out: level-set
// reordering, adaptive/calibrated kernel selection vs pinned kernels,
// DCSR vs CSR squares, vector vs scalar SpMV, recursion depth, and the
// batched multi-rhs path vs looped single solves.
func Ablation(w io.Writer, p Params) error {
	dev := p.Devices[len(p.Devices)-1]
	pool := dev.Pool()
	fmt.Fprintf(w, "Ablations on %s\n", dev)

	timeSolve := func(s *block.Solver[float64], l *sparse.CSR[float64]) time.Duration {
		b := gen.RandVec(l.Rows, 7)
		x := make([]float64, l.Rows)
		mean, _ := timeSolver[float64](s, b, x, p.Warmup, p.Repeats)
		return mean
	}

	// 1. Level-set reordering on/off (§3.3): solve time and the fraction
	// of nonzeros landing in square blocks.
	fmt.Fprintf(w, "\n(a) level-set reordering (improved structure, §3.3)\n\n")
	t := newTable("matrix", "reorder", "sq-nnz share", "solve ms")
	for _, e := range gen.Representative6(p.Scale) {
		l := e.Build()
		for _, reorder := range []bool{false, true} {
			o := block.Defaults(dev)
			o.Pool = pool
			o.Reorder = reorder
			o.Calibrate = p.Calibrate
			s, err := block.Preprocess(l, o)
			if err != nil {
				return err
			}
			t.add(e.Name, fmt.Sprint(reorder),
				fmt.Sprintf("%.1f%%", 100*float64(s.SquareNNZ())/float64(l.NNZ())),
				ms(timeSolve(s, l)))
		}
	}
	t.write(w)

	// 2. Kernel selection: the default cost model and calibration vs each
	// pinned kernel, then the model against the calibrator block by block.
	fmt.Fprintf(w, "\n(b) per-block kernel selection vs pinned kernels\n\n")
	l := gen.Representative6(p.Scale)[2].Build() // kkt_power-like
	t = newTable("tri kernel policy", "solve ms")
	for _, cal := range []bool{false, true} {
		o := block.Defaults(dev)
		o.Pool = pool
		o.Calibrate = cal
		s, err := block.Preprocess(l, o)
		if err != nil {
			return err
		}
		name := "analytic (default)"
		if cal {
			name = "calibrated"
		}
		t.add(name, ms(timeSolve(s, l)))
	}
	for _, tk := range []kernels.TriKernel{kernels.TriLevelSet, kernels.TriSyncFree, kernels.TriCuSparseLike, kernels.TriSerial} {
		o := block.Defaults(dev)
		o.Pool = pool
		o.Adaptive = false
		o.ForceTri = tk
		o.ForceSpMV = kernels.SpMVScalarCSR
		s, err := block.Preprocess(l, o)
		if err != nil {
			return err
		}
		t.add("pinned "+tk.String(), ms(timeSolve(s, l)))
	}
	t.write(w)
	fmt.Fprintf(w, "\nanalytic (default) vs calibrated selection, per triangular block\n\n")
	if _, err := selectionAgreement(w, dev, pool, gen.Representative6(p.Scale), p.Warmup, p.Repeats); err != nil {
		return err
	}

	// 3. DCSR vs CSR squares on a reordered power-law system (many empty
	// rows inside off-diagonal blocks).
	fmt.Fprintf(w, "\n(c) DCSR vs CSR squares\n\n")
	lpl := gen.Representative6(p.Scale)[3].Build() // fullchip-like
	t = newTable("square format", "solve ms")
	for _, sk := range []kernels.SpMVKernel{kernels.SpMVScalarCSR, kernels.SpMVScalarDCSR} {
		o := block.Defaults(dev)
		o.Pool = pool
		o.Adaptive = false
		o.ForceTri = kernels.TriSyncFree
		o.ForceSpMV = sk
		s, err := block.Preprocess(lpl, o)
		if err != nil {
			return err
		}
		t.add(sk.String(), ms(timeSolve(s, lpl)))
	}
	t.write(w)

	// 4. Vector vs scalar SpMV on power-law blocks (load balancing).
	fmt.Fprintf(w, "\n(d) vector vs scalar SpMV on power-law rows\n\n")
	t = newTable("spmv kernel", "update ms")
	rows := int(60000 * p.Scale)
	if rows < 4000 {
		rows = 4000
	}
	a := gen.RandomRect(rows, rows, 4, 0.02, 909)
	d := a.ToDCSR()
	xv := gen.RandVec(rows, 1)
	wv := make([]float64, rows)
	for _, sk := range []kernels.SpMVKernel{kernels.SpMVScalarCSR, kernels.SpMVVectorCSR} {
		sk := sk
		dur := bestTime(p.Repeats, func() {
			kernels.RunSpMV(pool, sk, a, d, xv, wv)
		})
		t.add(sk.String(), ms(dur))
	}
	t.write(w)

	// 5. Recursion depth sweep (the paper's "20 × core count" cut-off
	// choice, §3.4 last paragraph).
	fmt.Fprintf(w, "\n(e) recursion depth (per-solve ms; 0 = single triangle)\n\n")
	t = newTable("matrix", "d=0", "d=1", "d=2", "d=3", "d=4")
	for _, e := range gen.Representative6(p.Scale) {
		lm := e.Build()
		row := []string{e.Name}
		for depth := 0; depth <= 4; depth++ {
			o := block.Defaults(dev)
			o.Pool = pool
			o.Calibrate = p.Calibrate
			o.MinBlockRows = 1
			o.MaxDepth = depth
			if depth == 0 {
				o.MinBlockRows = lm.Rows + 1
			}
			s, err := block.Preprocess(lm, o)
			if err != nil {
				return err
			}
			row = append(row, ms(timeSolve(s, lm)))
		}
		t.add(row...)
	}
	t.write(w)

	// 6. Batched multi-rhs vs looped single solves.
	fmt.Fprintf(w, "\n(f) batched multi-rhs (k=8) vs looped single solves\n\n")
	t = newTable("matrix", "looped ms", "batched ms", "speedup")
	const k = 8
	for _, e := range gen.Representative6(p.Scale) {
		lm := e.Build()
		o := block.Defaults(dev)
		o.Pool = pool
		o.Calibrate = p.Calibrate
		s, err := block.Preprocess(lm, o)
		if err != nil {
			return err
		}
		n := lm.Rows
		rhs := make([][]float64, k)
		for r := range rhs {
			rhs[r] = gen.RandVec(n, int64(40+r))
		}
		packed := block.InterleaveRHS(rhs)
		out := make([]float64, n*k)
		xs := make([]float64, n)

		looped := bestTime(p.Repeats, func() {
			for r := 0; r < k; r++ {
				s.Solve(rhs[r], xs)
			}
		})
		batched := bestTime(p.Repeats, func() {
			s.SolveBatch(packed, out, k)
		})
		t.add(e.Name, ms(looped), ms(batched), fmt.Sprintf("%.2fx", looped.Seconds()/batched.Seconds()))
	}
	t.write(w)
	return nil
}

// agreement counts how often the default plan's cost-model kernel choice
// matches the calibrator's over a set of triangular blocks.
type agreement struct {
	Blocks int // triangular blocks with dependencies (NLevels > 1)
	Same   int // ... where both plans picked the same kernel
	Near   int // ... where they differ but the default's block measures within 1.25× of the calibrated one
}

// selectionAgreement preprocesses each entry twice on dev's defaults, as
// shipped and with Calibrate, and compares the two plans block by block on
// their common partition. A differing block counts as near when its
// default kernel measures within 1.25× of the calibrated kernel
// (Solver.TriBlockTime, best of max(repeats, 5)). It writes one row per
// entry plus a total, with both plans' preprocessing and mean solve times
// (warmup, repeats), and returns the total.
func selectionAgreement(w io.Writer, dev exec.Device, pool exec.Launcher, entries []gen.Entry, warmup, repeats int) (agreement, error) {
	reps := max(repeats, 5)
	timeSolve := func(s *block.Solver[float64], l *sparse.CSR[float64]) string {
		x := make([]float64, l.Rows)
		mean, _ := timeSolver[float64](s, gen.RandVec(l.Rows, 7), x, warmup, repeats)
		return ms(mean)
	}
	t := newTable("matrix", "tri blocks", "same kernel", "within 1.25x", "default prep ms", "calibrated prep ms", "default ms", "calibrated ms")
	var total agreement
	for _, e := range entries {
		l := e.Build()
		var plans [2]*block.Solver[float64]
		var prep [2]time.Duration
		for i := range plans {
			o := block.Defaults(dev)
			o.Pool = pool
			o.Calibrate = i == 1
			t0 := time.Now()
			s, err := block.Preprocess(l, o)
			if err != nil {
				return total, err
			}
			plans[i], prep[i] = s, time.Since(t0)
		}
		var a agreement
		def, cal := plans[0].TriKernels(), plans[1].TriKernels()
		for i := range def {
			if def[i] == kernels.TriCompletelyParallel {
				continue // no dependencies: both pick it without a choice
			}
			a.Blocks++
			switch {
			case def[i] == cal[i]:
				a.Same++
			case plans[0].TriBlockTime(i, reps) <= plans[1].TriBlockTime(i, reps)*5/4:
				a.Near++
			}
		}
		total.Blocks += a.Blocks
		total.Same += a.Same
		total.Near += a.Near
		t.add(e.Name, fmt.Sprint(a.Blocks), fmt.Sprint(a.Same), fmt.Sprint(a.Same+a.Near),
			ms(prep[0]), ms(prep[1]), timeSolve(plans[0], l), timeSolve(plans[1], l))
	}
	t.add("total", fmt.Sprint(total.Blocks), fmt.Sprint(total.Same), fmt.Sprint(total.Same+total.Near), "", "", "", "")
	t.write(w)
	return total, nil
}
