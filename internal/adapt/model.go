package adapt

import (
	"math"

	"github.com/sss-lab/blocksptrsv/internal/kernels"
	"github.com/sss-lab/blocksptrsv/internal/levelset"
)

// The triangular cost model. Algorithm 7's cut points were read off GPU
// measurements, where a serial kernel is never an option and a launch is
// cheap next to the work. On CPU pools a fanned-out launch and its barrier
// cost microseconds, so the default plan prices each candidate instead:
//
//	serial        a_s·(nnz+rows)
//	level-set     wideLevels(2)·launch         + nlevels·c_level   + a_g·(nnz+rows)/p
//	cusparse-like wideLevels(2·workers)·launch + nlevels·c_level   + a_g·(nnz+rows)/p
//	sync-free     launch                       + nlevels·c_handoff + a_sf·nnz/p
//
// with nnz the strictly-lower count, p = min(workers, GOMAXPROCS), and
// wideLevels(w) the number of levels at least w components wide (narrower
// ones run inline on the caller and pay no barrier). Sync-free is no
// candidate when workers > GOMAXPROCS: a worker would spin on a
// dependency owned by a descheduled peer.
//
// The constants (ns) were fitted on a 2-vCPU Xeon VM with go1.24.0, on
// the default pool there (three workers on two Ps), from
//
//	go test ./internal/adapt -run '^$' -bench BenchmarkTriModelTerms -cpu 2 -count 7 -benchtime 200ms
//
// taking the median of each cell (the arithmetic is in that benchmark's
// comment). Parallel gather rows barely beat one worker's on that pool
// (a_g/2 against the inline rate), so a parallel kernel pays only on
// blocks with thousands of units per launched level. Thresholds.LaunchCost,
// when measured, replaces nsLaunch.
const (
	nsSerial   = 4.1  // a_s: serial column solve, per (nnz+rows)
	nsGather   = 3.9  // a_g: gather-form row solve, per (nnz+rows)
	nsSyncFree = 88.0 // a_sf: claim, spin and decrement, per nnz
	nsLevel    = 81   // c_level: per level, launched or inline
	nsHandoff  = 490  // c_handoff: per level, one spin hand-off between workers
	nsLaunch   = 3320 // launch: one fanned-out launch and its barrier
)

// Machine is what the cost model knows about where a plan will run.
type Machine struct {
	Workers int // the pool's worker count
	Procs   int // GOMAXPROCS at analysis time
}

// Parallelism is the number of workers that can run at once,
// min(Workers, Procs) and at least 1.
func (m Machine) Parallelism() int {
	return max(1, min(m.Workers, m.Procs))
}

// Oversubscribed reports more workers than Ps, the configuration in which
// a spinning worker can wait on a descheduled one.
func (m Machine) Oversubscribed() bool { return m.Workers > m.Procs }

// TriLaunches counts the fanned-out pool launches kernel k makes per solve
// of a block with level sets info, on a pool of workers: levels too narrow
// to fan out run inline on the caller and pay no barrier. Both the cost
// model and the calibrator's launch bill use it.
func TriLaunches(k kernels.TriKernel, info *levelset.Info, workers int) int {
	switch k {
	case kernels.TriCompletelyParallel, kernels.TriSyncFree:
		return 1
	case kernels.TriLevelSet:
		return wideLevels(info, 2)
	case kernels.TriCuSparseLike:
		// kernels.NewMergedSchedule's default serial width.
		return wideLevels(info, 2*max(1, workers))
	}
	return 0
}

func wideLevels(info *levelset.Info, width int) int {
	c := 0
	for l := 0; l < info.NLevels; l++ {
		if info.LevelSize(l) >= width {
			c++
		}
	}
	return c
}

// launchNs is the per-launch price: the measured LaunchCost when set.
func (t Thresholds) launchNs() float64 {
	if t.LaunchCost > 0 {
		return float64(t.LaunchCost.Nanoseconds())
	}
	return nsLaunch
}

// EstimateTri is the model's solve time of kernel k on a block, in ns;
// +Inf when k is no candidate there (completely-parallel on a block with
// dependencies, sync-free on an oversubscribed pool).
func (t Thresholds) EstimateTri(k kernels.TriKernel, f TriFeatures, info *levelset.Info, m Machine) float64 {
	p := float64(m.Parallelism())
	units := float64(f.StrictNNZ + f.Rows)
	launch := t.launchNs()
	switch k {
	case kernels.TriSerial:
		return nsSerial * units
	case kernels.TriCompletelyParallel:
		if f.NLevels > 1 {
			break
		}
		if p == 1 {
			launch = 0
		}
		return launch + nsGather*float64(f.Rows)/p
	case kernels.TriLevelSet, kernels.TriCuSparseLike:
		return float64(TriLaunches(k, info, m.Workers))*launch + float64(f.NLevels)*nsLevel + nsGather*units/p
	case kernels.TriSyncFree:
		if m.Oversubscribed() {
			break
		}
		return launch + float64(f.NLevels)*nsHandoff + nsSyncFree*float64(f.StrictNNZ)/p
	}
	return math.Inf(1)
}

// PickTri is the default plan's kernel choice: the cheapest candidate
// under EstimateTri. A block with at most one level is completely
// parallel; with one runnable worker every other block runs serial. Ties
// go to the kernel with less auxiliary state (serial, then level-set).
func (t Thresholds) PickTri(f TriFeatures, info *levelset.Info, m Machine) kernels.TriKernel {
	if f.NLevels <= 1 {
		return kernels.TriCompletelyParallel
	}
	best := kernels.TriSerial
	if m.Parallelism() == 1 {
		return best
	}
	bestC := t.EstimateTri(best, f, info, m)
	for _, k := range []kernels.TriKernel{kernels.TriLevelSet, kernels.TriCuSparseLike, kernels.TriSyncFree} {
		if c := t.EstimateTri(k, f, info, m); c < bestC {
			best, bestC = k, c
		}
	}
	return best
}
