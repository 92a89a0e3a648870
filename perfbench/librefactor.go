package main

import (
	"bytes"
	"fmt"
	"math/rand"
	"os"
	"time"

	"github.com/sss-lab/blocksptrsv"
	"github.com/sss-lab/blocksptrsv/internal/block"
	"github.com/sss-lab/blocksptrsv/internal/exec"
	"github.com/sss-lab/blocksptrsv/internal/plancache"
)

// lib-refactor: on each class's fixed sparsity pattern, every iteration
// scales the off-diagonal values by a seeded factor in [0.5, 1.5), calls
// Analyze with DefaultOptions(0) plus one shared in-memory PlanCache, and
// solves once — a Newton loop refactoring ILU on a fixed pattern.

// refactorInput is one class, its right-hand side and the buffer the
// iterations write new values into.
type refactorInput struct {
	class
	b    []float64
	work *blocksptrsv.Matrix[float64]
	x    []float64
	rng  *rand.Rand
}

type refactorSamples struct {
	iter              []float64     // ns from Analyze to solution
	busy              time.Duration // summed over iter
	attempted, failed int64
	firstErr          error
}

func runLibRefactor(cfg config) (*result, error) {
	cs, err := suiteClasses(cfg.seed)
	if err != nil {
		return nil, err
	}
	in := make([]refactorInput, len(cs))
	for i, c := range cs {
		in[i] = refactorInput{class: c, b: rhs(c.l.Rows, 1, cfg.seed+int64(i))[0],
			work: cloneCSR(c.l), x: make([]float64, c.l.Rows), rng: rand.New(rand.NewSource(cfg.seed*31 + int64(i)))}
	}
	res := newResult()
	var tr *tracer
	if cfg.trace {
		tr = newTracer(400_000)
	}
	if _, err := coldRound(cs, nil, nil); err != nil { // untimed: grows the heap
		return nil, err
	}
	cache, err := blocksptrsv.OpenPlanCache(blocksptrsv.PlanCacheConfig{})
	if err != nil {
		return nil, fmt.Errorf("opening plan cache: %w", err)
	}
	for _, c := range in { // fill the cache: one miss per pattern
		if _, err := blocksptrsv.Analyze(c.l, refactorOptions(cache)); err != nil {
			return nil, fmt.Errorf("analyze %s: %w", c.name, err)
		}
	}

	phase := fromSeconds(cfg.seconds)
	if cfg.trace {
		phase /= 2
	}
	before := cache.Stats()
	setup := make([][]float64, len(cs))
	acc := &memAcc{}
	untraced, err := refactorPhase(in, cache, phase, func() error {
		_, err := coldRound(cs, tr, setup)
		return err
	}, nil, acc)
	if err != nil {
		return nil, err
	}
	recordSetup(cs, setup, res)
	acc.report(res.layer)
	summarizeRefactor(untraced, res)
	after := cache.Stats()
	if n := (after.Hits - before.Hits) + (after.Misses - before.Misses); n > 0 {
		res.layer["plancache.hit_ratio"] = float64(after.Hits-before.Hits) / float64(n)
	}
	d := map[string]map[string]float64{}
	for i, c := range cs {
		d[c.name] = map[string]float64{
			"refresh_p50_ms": quantile(untraced[i].iter, 0.5) / 1e6, "refresh_p99_ms": quantile(untraced[i].iter, 0.99) / 1e6,
			"samples":        float64(len(untraced[i].iter)),
			"analyze_p50_ms": res.layer["block.analyze_ms."+c.name],
		}
	}
	printDiagnostics("per_class", d)

	if cfg.trace {
		traced, err := refactorPhase(in, cache, phase, nil, tr, nil)
		if err != nil {
			return nil, err
		}
		tres := newResult()
		summarizeRefactor(traced, tres)
		res.attempted += tres.attempted
		res.failed += tres.failed
		res.layer["trace.overhead"] = tres.named["refresh_ms"] / res.named["refresh_ms"]
		launchProbe(tr, res.layer)
		levelsetProbe(cs, tr, res.layer)
		if err := planProbes(in, tr, res.layer); err != nil {
			return nil, err
		}
		for l, v := range tr.selfShares() {
			res.layer["self_share."+l] = v
		}
		if err := tr.writeChrome(traceFile(cfg)); err != nil {
			return nil, err
		}
	}
	return res, nil
}

func refactorOptions(cache *blocksptrsv.PlanCache) blocksptrsv.Options {
	o := blocksptrsv.DefaultOptions(0)
	o.PlanCache = cache
	return o
}

// refactorPhase runs the refactor loop over the classes in rounds (see
// roundRobin), calling setup at the start of every round. New values are
// written before the clock starts; the timed window is Analyze plus the
// first Solve; verification follows it.
func refactorPhase(in []refactorInput, cache *blocksptrsv.PlanCache, phase time.Duration, setup func() error, tr *tracer, acc *memAcc) ([]refactorSamples, error) {
	out := make([]refactorSamples, len(in))
	for i := range out {
		out[i].iter = make([]float64, 0, 4096)
	}
	err := roundRobin(len(in), phase, setup, func(ci int, slice time.Duration) error {
		c, sm := &in[ci], &out[ci]
		x := c.x
		acc.begin()
		var ops int64
		start := time.Now()
		deadline := start.Add(slice)
		for n := 0; n == 0 || time.Now().Before(deadline); n++ { // at least one sample per visit
			scaleOffDiagonal(c.work, c.l, 0.5+c.rng.Float64())
			poison(x)
			op := tr.id()
			t0 := time.Now()
			s, err := blocksptrsv.Analyze(c.work, refactorOptions(cache))
			t1 := time.Now()
			if err == nil {
				s.Solve(c.b, x)
			}
			t2 := time.Now()
			ops++
			if err == nil {
				err = checkSolution(c.work, x, c.b)
				sm.iter = append(sm.iter, float64(t2.Sub(t0)))
				sm.busy += t2.Sub(t0)
			}
			if tr != nil {
				tr.add(op, 0, op, "block", "Analyze(PlanCache)+Solve", t0, t2)
				tr.add(0, op, op, "block", "Solve", t1, t2)
				tr.add(0, 0, op, "sparse", "Residual", t2, time.Now())
			}
			if err != nil {
				sm.failed++
				if sm.firstErr == nil {
					sm.firstErr = fmt.Errorf("%s refresh: %w", c.name, err)
				}
			}
		}
		sm.attempted += ops
		acc.end(ops)
		return nil
	})
	return out, err
}

// summarizeRefactor folds the per-class samples into the workload's
// metrics. latency_ms (refresh_ms) is each class's median iteration,
// then the geometric mean over classes. rhs_per_s (refresh_rate) is each
// class's throughput — successful iterations, one right-hand side each,
// over the summed time they took, so slow iterations count in full where
// the median passes over them — then the geometric mean.
func summarizeRefactor(sm []refactorSamples, res *result) {
	var iter, rate []float64
	for _, s := range sm {
		res.attempted += s.attempted
		res.failed += s.failed
		if s.firstErr != nil {
			fmt.Fprintln(os.Stderr, "perfbench: verification failed:", s.firstErr)
		}
		iter = append(iter, median(s.iter)/1e6)
		rate = append(rate, float64(len(s.iter))/s.busy.Seconds())
	}
	res.named["refresh_ms"] = geomean(iter)
	res.named["refresh_rate"] = geomean(rate)
	res.named["fail_ratio"] = float64(res.failed) / float64(res.attempted)
	res.e2e["latency_ms"] = res.named["refresh_ms"]
	res.e2e["rhs_per_s"] = res.named["refresh_rate"]
	for _, k := range []string{"refresh_ms", "refresh_rate", "fail_ratio"} {
		res.layer["e2e."+k] = res.named[k]
	}
}

// planProbes times the pieces of a cached refresh by calling each layer
// directly: the structure key, RefreshValues on a live solver, and a
// plan decode of the serialized solver.
func planProbes(in []refactorInput, tr *tracer, layer map[string]float64) error {
	var key, refresh, decode, size []float64
	for _, c := range in {
		var tk, tv, td []float64
		s, err := blocksptrsv.Analyze(c.l, blocksptrsv.DefaultOptions(0))
		if err != nil {
			return fmt.Errorf("analyze %s: %w", c.name, err)
		}
		var plan bytes.Buffer
		if _, err := s.WriteTo(&plan); err != nil {
			return fmt.Errorf("serializing %s: %w", c.name, err)
		}
		opts := blocksptrsv.DefaultOptions(0)
		pool := exec.NewLauncher(opts.Style, opts.Workers)
		var loaded *blocksptrsv.Solver[float64]
		for r := 0; r < 5; r++ {
			t0 := time.Now()
			plancache.StructureKey(c.l.Rows, c.l.RowPtr, c.l.ColIdx)
			t1 := time.Now()
			tr.add(0, 0, 0, "plancache", "StructureKey "+c.name, t0, t1)
			tk = append(tk, float64(t1.Sub(t0)))

			scaleOffDiagonal(c.work, c.l, 0.5+c.rng.Float64())
			t0 = time.Now()
			err := s.RefreshValues(c.work)
			t1 = time.Now()
			if err != nil {
				return fmt.Errorf("refresh %s: %w", c.name, err)
			}
			tr.add(0, 0, 0, "block", "RefreshValues "+c.name, t0, t1)
			tv = append(tv, float64(t1.Sub(t0)))

			t0 = time.Now()
			loaded, err = block.ReadSolver[float64](bytes.NewReader(plan.Bytes()), pool)
			t1 = time.Now()
			if err != nil {
				return fmt.Errorf("decoding plan %s: %w", c.name, err)
			}
			tr.add(0, 0, 0, "block", "ReadSolver "+c.name, t0, t1)
			td = append(td, float64(t1.Sub(t0)))
		}
		// The refreshed solver must solve the refreshed system, and the
		// decoded plan the system it was serialized from.
		x := c.x
		poison(x)
		s.Solve(c.b, x)
		if err := checkSolution(c.work, x, c.b); err != nil {
			return fmt.Errorf("solve after RefreshValues %s: %w", c.name, err)
		}
		poison(x)
		loaded.Solve(c.b, x)
		if err := checkSolution(c.l, x, c.b); err != nil {
			return fmt.Errorf("solve with decoded plan %s: %w", c.name, err)
		}
		if cl, ok := pool.(interface{ Close() }); ok {
			cl.Close()
		}
		key = append(key, median(tk)/1e6)
		refresh = append(refresh, median(tv)/1e6)
		decode = append(decode, median(td)/1e6)
		size = append(size, float64(plan.Len()))
	}
	layer["plancache.key_ms"] = geomean(key)
	layer["block.refresh_values_ms"] = geomean(refresh)
	layer["block.plan_decode_ms"] = geomean(decode)
	layer["block.plan_bytes"] = geomean(size)
	return nil
}
