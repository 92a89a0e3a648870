package main

import (
	"fmt"
	"os"
	"time"

	"github.com/sss-lab/blocksptrsv"
	"github.com/sss-lab/blocksptrsv/internal/block"
)

// lib-repeat: analyze each suite class once with DefaultOptions(0), then
// run a single-threaded closed loop alternating Solve (k=1) and
// SolveBatch (k=8) — one triangular solve per preconditioner application.

// repeatInput is one class with its right-hand sides.
type repeatInput struct {
	class
	b  [][]float64 // single right-hand sides, used in turn
	bb []float64   // one row-major n×batchK block

	x, xb, col, rcol []float64 // scratch: solutions and checked columns
}

// repeatSamples are one class's timed operations.
type repeatSamples struct {
	solve, batch      []float64 // ns per call
	attempted, failed int64
	firstErr          error
}

func runLibRepeat(cfg config) (*result, error) {
	cs, err := suiteClasses(cfg.seed)
	if err != nil {
		return nil, err
	}
	in := make([]repeatInput, len(cs))
	for i, c := range cs {
		n := c.l.Rows
		in[i] = repeatInput{class: c, b: rhs(n, 4, cfg.seed+int64(i)), bb: block.InterleaveRHS(rhs(n, batchK, cfg.seed+100+int64(i))),
			x: make([]float64, n), xb: make([]float64, n*batchK), col: make([]float64, n), rcol: make([]float64, n)}
	}
	res := newResult()
	var tr *tracer
	if cfg.trace {
		tr = newTracer(400_000)
	}
	// The untimed first round grows the heap; its solvers serve the loop.
	solvers, err := coldRound(cs, nil, nil)
	if err != nil {
		return nil, err
	}
	phase := fromSeconds(cfg.seconds)
	if cfg.trace {
		phase /= 2
	}
	setup := make([][]float64, len(cs))
	acc := &memAcc{}
	untraced, err := repeatPhase(in, solvers, phase, func() error {
		_, err := coldRound(cs, tr, setup)
		return err
	}, nil, nil, acc)
	if err != nil {
		return nil, err
	}
	recordSetup(cs, setup, res)
	acc.report(res.layer)
	summarizeRepeat(untraced, res)
	printRepeatDiagnostics(cs, untraced, res)

	if cfg.trace {
		if err := traceRepeat(cfg, in, phase, tr, res); err != nil {
			return nil, err
		}
	}
	return res, nil
}

// repeatPhase runs the closed loop over the classes in rounds (see
// roundRobin), calling setup at the start of every round. With a tracer
// it records a span per call and links each call to the plan steps its
// class's recorder captures.
func repeatPhase(in []repeatInput, solvers []*blocksptrsv.Solver[float64], phase time.Duration, setup func() error, tr *tracer, links []*stepLinker, acc *memAcc) ([]repeatSamples, error) {
	out := make([]repeatSamples, len(in))
	for i := range out {
		out[i].solve = make([]float64, 0, 4096)
		out[i].batch = make([]float64, 0, 4096)
	}
	err := roundRobin(len(in), phase, setup, func(ci int, slice time.Duration) error {
		c, s, sm := &in[ci], solvers[ci], &out[ci]
		x, xb, col, rcol := c.x, c.xb, c.col, c.rcol
		// Wake the workers parked while other classes ran and refill
		// the caches, untimed.
		s.Solve(c.b[0], x)
		s.SolveBatch(c.bb, xb, batchK)
		fail := func(err error) {
			sm.failed++
			if sm.firstErr == nil {
				sm.firstErr = err
			}
		}
		var link *stepLinker
		if links != nil {
			link = links[ci]
		}
		acc.begin()
		var ops int64
		deadline := time.Now().Add(slice)
		for i := 0; i == 0 || time.Now().Before(deadline); i++ { // at least one sample per visit
			b := c.b[i%len(c.b)]
			poison(x)
			op := tr.id()
			t0 := time.Now()
			s.Solve(b, x)
			t1 := time.Now()
			sm.solve = append(sm.solve, float64(t1.Sub(t0)))
			if tr != nil {
				tr.add(op, 0, op, "block", "Solve", t0, t1)
				link.link(s.Stats().LastTraceID, op, true)
			}
			if err := checkSolution(c.l, x, b); err != nil {
				fail(fmt.Errorf("%s Solve: %w", c.name, err))
			}
			tr.add(0, 0, op, "sparse", "Residual", t1, time.Now())

			poison(xb)
			op = tr.id()
			t0 = time.Now()
			s.SolveBatch(c.bb, xb, batchK)
			t1 = time.Now()
			sm.batch = append(sm.batch, float64(t1.Sub(t0)))
			if tr != nil {
				tr.add(op, 0, op, "block", "SolveBatch", t0, t1)
				link.link(s.Stats().LastTraceID, op, false)
			}
			if err := checkBatch(c.l, xb, c.bb, batchK, col, rcol); err != nil {
				fail(fmt.Errorf("%s SolveBatch: %w", c.name, err))
			}
			tr.add(0, 0, op, "sparse", "Residual x8", t1, time.Now())
			ops += 2
		}
		sm.attempted += ops
		acc.end(ops)
		return nil
	})
	return out, err
}

// summarizeRepeat folds the per-class samples into the workload's
// metrics: each class's median, then the geometric mean over classes.
// rhs_per_s is the batched path's rate, right-hand sides per second of
// the median SolveBatch call.
func summarizeRepeat(sm []repeatSamples, res *result) {
	var solve, batch, rate []float64
	for _, s := range sm {
		res.attempted += s.attempted
		res.failed += s.failed
		if s.firstErr != nil {
			fmt.Fprintln(os.Stderr, "perfbench: verification failed:", s.firstErr)
		}
		solve = append(solve, median(s.solve)/1e3)
		batch = append(batch, median(s.batch)/1e3/batchK)
		rate = append(rate, batchK/(median(s.batch)/1e9))
	}
	res.named["solve_us"] = geomean(solve)
	res.named["batch_rhs_us"] = geomean(batch)
	res.named["fail_ratio"] = float64(res.failed) / float64(res.attempted)
	res.e2e["latency_ms"] = res.named["solve_us"] / 1e3
	res.e2e["rhs_per_s"] = geomean(rate)
	for _, k := range []string{"solve_us", "batch_rhs_us", "fail_ratio"} {
		res.layer["e2e."+k] = res.named[k]
	}
}

// printRepeatDiagnostics prints per-class percentiles and sample counts.
// The library workloads gate on medians only: their p99 does not repeat
// from run to run.
func printRepeatDiagnostics(cs []class, sm []repeatSamples, res *result) {
	d := map[string]map[string]float64{}
	for i, c := range cs {
		d[c.name] = map[string]float64{
			"solve_p50_us": quantile(sm[i].solve, 0.5) / 1e3, "solve_p99_us": quantile(sm[i].solve, 0.99) / 1e3,
			"batch_p50_us": quantile(sm[i].batch, 0.5) / 1e3, "batch_p99_us": quantile(sm[i].batch, 0.99) / 1e3,
			"samples": float64(len(sm[i].solve) + len(sm[i].batch)),
			"rows":    float64(c.l.Rows), "nnz": float64(c.l.NNZ()),
			"analyze_p50_ms": res.layer["block.analyze_ms."+c.name],
		}
	}
	printDiagnostics("per_class", d)
}

// traceRepeat is the traced half: the same loop on solvers analyzed with
// Options.Instrument and Options.Trace, plus the per-layer probes.
func traceRepeat(cfg config, in []repeatInput, phase time.Duration, tr *tracer, res *result) error {
	cs := make([]class, len(in))
	for i := range in {
		cs[i] = in[i].class
	}
	launchProbe(tr, res.layer)
	levelsetProbe(cs, tr, res.layer)

	solvers := make([]*blocksptrsv.Solver[float64], len(in))
	links := make([]*stepLinker, len(in))
	for i, c := range cs {
		links[i] = newStepLinker()
		opts := blocksptrsv.DefaultOptions(0)
		opts.Instrument = true
		opts.Trace = links[i].rec
		t0 := time.Now()
		s, err := blocksptrsv.Analyze(c.l, opts)
		if err != nil {
			return fmt.Errorf("analyze %s: %w", c.name, err)
		}
		tr.add(0, 0, 0, "block", "Analyze(traced) "+c.name, t0, time.Now())
		solvers[i] = s
	}
	traced, err := repeatPhase(in, solvers, phase, nil, tr, links, nil)
	if err != nil {
		return err
	}
	tres := newResult()
	summarizeRepeat(traced, tres)
	res.attempted += tres.attempted
	res.failed += tres.failed
	res.layer["trace.overhead"] = tres.named["solve_us"] / res.named["solve_us"]

	costs := map[string]*kernelCost{}
	for _, l := range links {
		l.emit(tr, costs)
	}
	for k, c := range costs {
		res.layer["kernels."+k+".ns_per_nnz"] = c.ns / c.nnz
	}
	var tri, spmv, bytes []float64
	kernelsByClass := map[string]map[string]int{}
	for i, c := range cs {
		s := solvers[i]
		kernelsByClass[c.name] = map[string]int{}
		for k, n := range s.TriKernelCounts() {
			res.layer["adapt.tri_blocks."+k.String()] += float64(n)
			kernelsByClass[c.name][k.String()] = n
		}
		// Exact per-solve counts and phase times from a Solve-only loop;
		// SolveBatch does not feed the instrumented phase counters.
		s.ResetStats()
		for r := 0; r < 20; r++ {
			b := in[i].b[r%len(in[i].b)]
			poison(in[i].x)
			s.Solve(b, in[i].x)
			if err := checkSolution(c.l, in[i].x, b); err != nil {
				return fmt.Errorf("instrumented solve %s: %w", c.name, err)
			}
		}
		st := s.Stats()
		res.layer["block.steps_per_solve."+c.name] = float64(st.TriCalls+st.SpMVCalls) / float64(st.Solves)
		tri = append(tri, ms(st.TriTime)/float64(st.Solves))
		spmv = append(spmv, ms(st.SpMVTime)/float64(st.Solves))
		bytes = append(bytes, bytesPerSolve(c.l))
	}
	printDiagnostics("tri_kernels", kernelsByClass)
	// Means, not geometric means: a class may have no square blocks.
	res.layer["block.tri_ms"] = mean(tri)
	res.layer["block.spmv_ms"] = mean(spmv)
	res.layer["kernels.bytes_per_solve"] = geomean(bytes)
	if err := tunedRatio(in, tr, res.layer); err != nil {
		return err
	}
	for l, v := range tr.selfShares() {
		res.layer["self_share."+l] = v
	}
	return tr.writeChrome(traceFile(cfg))
}

// tunedRatio is the geometric mean over classes of default-options Solve
// time over Calibrate Solve time: the solve time the default kernel
// choice gives away to per-block measurement.
func tunedRatio(in []repeatInput, tr *tracer, layer map[string]float64) error {
	var ratios []float64
	for _, c := range in {
		def, err := blocksptrsv.Analyze(c.l, blocksptrsv.DefaultOptions(0))
		if err != nil {
			return fmt.Errorf("analyze %s: %w", c.name, err)
		}
		opts := blocksptrsv.DefaultOptions(0)
		opts.Calibrate = true
		t0 := time.Now()
		cal, err := blocksptrsv.Analyze(c.l, opts)
		if err != nil {
			return fmt.Errorf("calibrated analyze %s: %w", c.name, err)
		}
		tr.add(0, 0, 0, "adapt", "Analyze(Calibrate) "+c.name, t0, time.Now())
		x := make([]float64, c.l.Rows)
		var td, tc []float64
		for r := 0; r < 31; r++ { // alternate, so drift hits both alike
			b := c.b[r%len(c.b)]
			poison(x)
			t0 := time.Now()
			def.Solve(b, x)
			td = append(td, float64(time.Since(t0)))
			if err := checkSolution(c.l, x, b); err != nil {
				return fmt.Errorf("default solve %s: %w", c.name, err)
			}
			poison(x)
			t0 = time.Now()
			cal.Solve(b, x)
			tc = append(tc, float64(time.Since(t0)))
			if err := checkSolution(c.l, x, b); err != nil {
				return fmt.Errorf("calibrated solve %s: %w", c.name, err)
			}
		}
		ratios = append(ratios, median(td)/median(tc))
	}
	layer["adapt.tuned_ratio"] = geomean(ratios)
	return nil
}
