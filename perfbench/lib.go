package main

import (
	"fmt"
	"math"
	"runtime"
	"time"

	"github.com/sss-lab/blocksptrsv"
	"github.com/sss-lab/blocksptrsv/internal/exec"
	"github.com/sss-lab/blocksptrsv/internal/levelset"
	"github.com/sss-lab/blocksptrsv/internal/sparse"
)

// rounds is how many rounds a lib workload's measuring time is cut
// into. Each round takes one cold set-up sample of every class and then
// visits every class for an equal slice of time, so a slow stretch of a
// shared host falls on every class and on set-up alike, and the medians
// pass over it instead of shifting one class.
const rounds = 40

// batchK is the number of right-hand sides of every SolveBatch call.
const batchK = 8

// roundRobin runs the rounds of a phase: setup (when non-nil) and then
// visit for every class, each for phase/(rounds·n) and starting one
// class later every round, so no class always follows the set-up.
func roundRobin(n int, phase time.Duration, setup func() error, visit func(ci int, slice time.Duration) error) error {
	slice := phase / time.Duration(rounds*n)
	for r := 0; r < rounds; r++ {
		if setup != nil {
			if err := setup(); err != nil {
				return err
			}
		}
		for j := 0; j < n; j++ {
			if err := visit((r+j)%n, slice); err != nil {
				return err
			}
		}
	}
	return nil
}

// coldRound runs one cold Analyze with DefaultOptions(0) per class on a
// collected heap, so no sample pays for garbage an earlier one left. When
// times is non-nil it appends each class's time to times[i]. It returns
// the solvers.
func coldRound(cs []class, tr *tracer, times [][]float64) ([]*blocksptrsv.Solver[float64], error) {
	runtime.GC()
	solvers := make([]*blocksptrsv.Solver[float64], len(cs))
	for i, c := range cs {
		t0 := time.Now()
		s, err := blocksptrsv.Analyze(c.l, blocksptrsv.DefaultOptions(0))
		t1 := time.Now()
		if err != nil {
			return nil, fmt.Errorf("analyze %s: %w", c.name, err)
		}
		solvers[i] = s
		if times != nil {
			tr.add(0, 0, 0, "block", "Analyze "+c.name, t0, t1)
			times[i] = append(times[i], float64(t1.Sub(t0)))
		}
	}
	return solvers, nil
}

// recordSetup sets the lib workloads' setup_s, the summed per-class
// median cold analysis time, and each class's median as
// block.analyze_ms.<class>.
func recordSetup(cs []class, times [][]float64, res *result) {
	sum := 0.0
	for i, c := range cs {
		m := median(times[i])
		sum += m
		res.layer["block.analyze_ms."+c.name] = m / 1e6
	}
	res.e2e["setup_s"] = sum / 1e9
}

// poison fills an output buffer with NaN before a call, outside the timed
// window, so a call that returns without writing its output fails
// verification instead of passing on an earlier call's answer.
func poison(x []float64) {
	for i := range x {
		x[i] = math.NaN()
	}
}

// levelsetProbe times levelset.FromLowerCSR on every class (median of
// five) and records the level counts.
func levelsetProbe(cs []class, tr *tracer, layer map[string]float64) {
	for _, c := range cs {
		var ts []float64
		var info *levelset.Info
		for r := 0; r < 5; r++ {
			t0 := time.Now()
			info = levelset.FromLowerCSR(c.l)
			t1 := time.Now()
			tr.add(0, 0, 0, "levelset", "FromLowerCSR "+c.name, t0, t1)
			ts = append(ts, float64(t1.Sub(t0)))
		}
		layer["levelset.analyze_ms."+c.name] = median(ts) / 1e6
		layer["levelset.nlevels."+c.name] = float64(info.NLevels)
	}
}

// launchProbe measures one launch on a pool built the way
// DefaultOptions(0) builds its own, and the resolved workers per P.
func launchProbe(tr *tracer, layer map[string]float64) {
	opts := blocksptrsv.DefaultOptions(0)
	pool := exec.NewLauncher(opts.Style, opts.Workers)
	t0 := time.Now()
	d := exec.MeasureLaunchCost(pool, 64)
	tr.add(0, 0, 0, "exec", "MeasureLaunchCost", t0, time.Now())
	if c, ok := pool.(interface{ Close() }); ok {
		c.Close()
	}
	layer["exec.launch_us"] = us(d)
	layer["exec.workers_over_procs"] = float64(opts.Workers) / float64(runtime.GOMAXPROCS(0))
}

// memAcc sums runtime counters over the timed windows of a phase, so
// set-up between windows (cold analyses, scratch, warm-up) is not charged
// to the operations. A nil *memAcc records nothing.
type memAcc struct {
	alloc, gcs uint64
	busy       time.Duration
	ops        int64
	goroutines int // summed over windows: at the end minus at the start
	g0         int
	cur        runtime.MemStats
	t0         time.Time
}

func (m *memAcc) begin() {
	if m == nil {
		return
	}
	m.g0 = runtime.NumGoroutine()
	runtime.ReadMemStats(&m.cur)
	m.t0 = time.Now()
}

func (m *memAcc) end(ops int64) {
	if m == nil {
		return
	}
	m.busy += time.Since(m.t0)
	var now runtime.MemStats
	runtime.ReadMemStats(&now)
	m.alloc += now.TotalAlloc - m.cur.TotalAlloc
	m.gcs += uint64(now.NumGC - m.cur.NumGC)
	m.ops += ops
	m.goroutines += runtime.NumGoroutine() - m.g0
}

// report records allocation per operation, GCs per second and the
// goroutines the windows left behind.
func (m *memAcc) report(layer map[string]float64) {
	if m.ops > 0 {
		layer["runtime.alloc_bytes_per_op"] = float64(m.alloc) / float64(m.ops)
	}
	layer["runtime.gc_per_s"] = float64(m.gcs) / m.busy.Seconds()
	layer["exec.goroutines_delta"] = float64(m.goroutines)
}

// bytesPerSolve is the computed minimum traffic of one single-RHS solve
// of l: every stored value and column index read once, the row pointers,
// b read and x written once. It is computed from n and nnz, not measured.
func bytesPerSolve(l *sparse.CSR[float64]) float64 {
	const f, idx = 8, 8 // float64 values, int indices
	return float64(l.NNZ()*(f+idx) + (l.Rows+1)*idx + 2*l.Rows*f)
}
