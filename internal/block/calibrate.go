package block

import (
	"time"

	"math/rand"

	"github.com/sss-lab/blocksptrsv/internal/exec"
	"github.com/sss-lab/blocksptrsv/internal/kernels"
	"github.com/sss-lab/blocksptrsv/internal/sparse"
)

// CalibrateKernels re-selects the kernel of every block empirically: each
// applicable kernel is timed on the block itself and the fastest wins.
// This takes the paper's adaptive idea (§3.4 — thresholds derived from
// measured performance data) one step further, to per-block measurements,
// which matters when the execution substrate differs from the one the
// thresholds were fitted on. The paper itself notes its thresholds are
// "in general not the optimal choice"; calibration recovers the per-block
// optimum at a preprocessing cost of repeats × kernels solves per block.
//
// Auxiliary structures of losing kernels are dropped afterwards, restoring
// the memory footprint of threshold-based selection.
func (s *Solver[T]) CalibrateKernels(repeats int) {
	if repeats < 1 {
		repeats = 1
	}
	rng := rand.New(rand.NewSource(12345))
	// Price launch-bound candidates on the launcher actually in use: a
	// kernel whose launch bill alone (launches × measured per-launch
	// latency) exceeds the fastest time measured so far cannot win, so it
	// is skipped without building its auxiliary structures or timing its
	// repeats — which matters most for level-set on deep blocks, where
	// timing it would cost nlevels launches per repeat.
	launchCost := exec.MeasureLaunchCost(s.pool, 32)
	var w, x []T
	grow := func(n int) {
		if len(w) < n {
			w = make([]T, n)
			x = make([]T, n)
		}
	}
	for i := range s.tris {
		tb := &s.tris[i]
		n := len(tb.diag)
		if tb.feats.NLevels <= 1 || n == 0 {
			continue // completely-parallel is already optimal
		}
		grow(n)
		// Levels too narrow to fan out run inline and pay no barrier, so
		// only wider levels enter a kernel's launch bill. This keeps the
		// bills lower bounds: pruning on them is conservative.
		wideLevels := func(width int) int {
			c := 0
			for l := 0; l < tb.info.NLevels; l++ {
				if tb.info.LevelSize(l) >= width {
					c++
				}
			}
			return c
		}
		bill := map[kernels.TriKernel]time.Duration{
			kernels.TriSerial:       0,
			kernels.TriSyncFree:     launchCost, // one persistent launch
			kernels.TriCuSparseLike: time.Duration(wideLevels(2*s.pool.Workers())) * launchCost,
			kernels.TriLevelSet:     time.Duration(wideLevels(2)) * launchCost,
		}
		best, bestD := tb.kernel, time.Duration(1<<62-1)
		// Cheapest launch bills first, so the early measurements set the
		// bar the launch-heavy candidates must clear.
		for _, k := range []kernels.TriKernel{
			kernels.TriSerial, kernels.TriSyncFree, kernels.TriCuSparseLike, kernels.TriLevelSet,
		} {
			if bill[k] >= bestD {
				continue
			}
			// Build only the structures the candidate actually needs.
			if gatherKernel(k) && tb.strictCSR == nil {
				tb.strictCSR = tb.strictCSC.ToCSR()
			}
			switch k {
			case kernels.TriSyncFree:
				if tb.state == nil {
					tb.state = kernels.NewSyncFreeState(tb.strictCSC)
				}
			case kernels.TriCuSparseLike:
				if tb.sched == nil {
					tb.sched = kernels.NewMergedSchedule(tb.info, 0, s.pool.Workers())
				}
			}
			d := minTime(repeats, func() {
				fillRand(rng, w[:n])
				tb.kernel = k
				s.solveTri(tb, w[:n], x[:n], 1, tb.state, nil)
			})
			if d < bestD {
				best, bestD = k, d
			}
		}
		tb.kernel = best
		// Drop the losers' structures.
		if best != kernels.TriSyncFree {
			tb.state = nil
		}
		if best != kernels.TriCuSparseLike {
			tb.sched = nil
		}
		if !gatherKernel(best) {
			tb.strictCSR = nil
		}
		// The CSC strict part stays: it backs introspection (SquareNNZ
		// accounting), the serial kernel and the sync-free in-degrees.
	}
	for i := range s.sqs {
		sb := &s.sqs[i]
		rows := sb.spec.rowHi - sb.spec.rowLo
		cols := sb.spec.colHi - sb.spec.colLo
		if sb.feats.NNZ == 0 {
			continue
		}
		grow(maxInt(rows, cols))
		if sb.csr == nil {
			sb.csr = sb.dcsr.ToCSR()
		}
		if sb.dcsr == nil {
			sb.dcsr = sb.csr.ToDCSR()
		}
		fillRand(rng, x[:cols])
		best, bestD := sb.kernel, time.Duration(1<<62-1)
		for _, k := range []kernels.SpMVKernel{
			kernels.SpMVScalarCSR, kernels.SpMVVectorCSR,
			kernels.SpMVScalarDCSR, kernels.SpMVVectorDCSR, kernels.SpMVSerial,
		} {
			k := k
			d := minTime(repeats, func() {
				kernels.RunSpMV(s.pool, k, sb.csr, sb.dcsr, x[:cols], w[:rows])
			})
			if d < bestD {
				best, bestD = k, d
			}
		}
		sb.kernel = best
		switch best {
		case kernels.SpMVScalarDCSR, kernels.SpMVVectorDCSR:
			sb.csr = nil
		default:
			sb.dcsr = nil
		}
	}
}

func minTime(repeats int, fn func()) time.Duration {
	best := time.Duration(1<<62 - 1)
	for r := 0; r < repeats; r++ {
		t0 := time.Now()
		fn()
		if d := time.Since(t0); d < best {
			best = d
		}
	}
	return best
}

func fillRand[T sparse.Float](rng *rand.Rand, v []T) {
	for i := range v {
		v[i] = T(rng.Float64() + 0.5)
	}
}

func maxInt(a, b int) int {
	if a > b {
		return a
	}
	return b
}
