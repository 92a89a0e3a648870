package adapt

import (
	"math"
	"testing"
	"time"

	"github.com/sss-lab/blocksptrsv/internal/gen"
	"github.com/sss-lab/blocksptrsv/internal/kernels"
	"github.com/sss-lab/blocksptrsv/internal/levelset"
	"github.com/sss-lab/blocksptrsv/internal/sparse"
)

// blockOf returns the selection inputs of a whole generated matrix taken
// as one triangular block.
func blockOf(t *testing.T, l *sparse.CSR[float64]) (TriFeatures, *levelset.Info) {
	t.Helper()
	strict, _, err := sparse.SplitDiagCSC(l.ToCSC())
	if err != nil {
		t.Fatal(err)
	}
	info := levelset.FromLowerCSR(l)
	return TriFeaturesOf(strict, info), info
}

// Algorithm 7 on whole-matrix structures: the paper's tree sends a very
// deep chain to cuSPARSE-like (nlevels > 20000) and a shallow layered
// system with short rows to level-set. The default plan no longer follows
// it (see the cost-model tests below); mminfo and Figure 5 still do.
func TestSelectTriAlgorithm7Structures(t *testing.T) {
	th := DefaultThresholds()
	if f, _ := blockOf(t, gen.SerialChain(25000, 0, 2)); th.SelectTri(f) != kernels.TriCuSparseLike {
		t.Fatalf("deep chain (%+v): %v, want cusparse-like", f, th.SelectTri(f))
	}
	if f, _ := blockOf(t, gen.Layered(4000, 8, 3, 0, 3)); th.SelectTri(f) != kernels.TriLevelSet {
		t.Fatalf("shallow layered (%+v): %v, want level-set", f, th.SelectTri(f))
	}
}

func TestPickTriDiagonalIsCompletelyParallel(t *testing.T) {
	f, info := blockOf(t, gen.DiagonalOnly(5000, 1))
	for _, m := range []Machine{{1, 1}, {3, 1}, {2, 2}, {3, 2}, {8, 8}} {
		if k := DefaultThresholds().PickTri(f, info, m); k != kernels.TriCompletelyParallel {
			t.Errorf("%+v: %v", m, k)
		}
	}
}

func TestPickTriDeepChainIsSerialAtAnyParallelism(t *testing.T) {
	f, info := blockOf(t, gen.SerialChain(25000, 0, 2))
	for _, m := range []Machine{{1, 1}, {2, 2}, {3, 2}, {4, 4}, {16, 16}, {64, 64}} {
		if k := DefaultThresholds().PickTri(f, info, m); k != kernels.TriSerial {
			t.Errorf("%+v: %v", m, k)
		}
	}
}

func TestPickTriOneRunnableWorkerIsSerial(t *testing.T) {
	for _, l := range []*sparse.CSR[float64]{
		gen.Layered(20000, 4, 16, 0, 5), gen.Banded(4000, 32, 0.25, 6), gen.SerialChain(300, 0.3, 7),
	} {
		f, info := blockOf(t, l)
		for _, m := range []Machine{{1, 1}, {1, 8}, {3, 1}, {8, 1}} {
			if k := DefaultThresholds().PickTri(f, info, m); k != kernels.TriSerial {
				t.Errorf("%+v on %+v: %v", m, f, k)
			}
		}
	}
}

func TestPickTriNoSyncFreeWhenOversubscribed(t *testing.T) {
	th := DefaultThresholds()
	th.LaunchCost = time.Hour // level-set and cusparse-like priced out
	for _, l := range []*sparse.CSR[float64]{
		gen.Layered(20000, 4, 16, 0, 5), gen.Layered(20000, 512, 6, 0, 8), gen.SerialChain(3000, 0.3, 7),
	} {
		f, info := blockOf(t, l)
		for _, m := range []Machine{{3, 2}, {4, 2}, {64, 8}} {
			if k := th.PickTri(f, info, m); k == kernels.TriSyncFree {
				t.Errorf("%+v on %+v: sync-free on an oversubscribed pool", m, f)
			}
			if c := th.EstimateTri(kernels.TriSyncFree, f, info, m); !math.IsInf(c, 1) {
				t.Errorf("%+v: sync-free priced %g, want +Inf", m, c)
			}
		}
	}
}

func TestPickTriWideShallowHeavyBlockRunsParallel(t *testing.T) {
	// 20000 rows, 4 levels, ~16 nonzeros per row: a few launches buy
	// parallelism over ~320k units of work.
	f, info := blockOf(t, gen.Layered(20000, 4, 16, 0, 5))
	for _, m := range []Machine{{2, 2}, {3, 2}, {4, 4}, {8, 8}} {
		switch k := DefaultThresholds().PickTri(f, info, m); k {
		case kernels.TriLevelSet, kernels.TriCuSparseLike, kernels.TriSyncFree:
		default:
			t.Errorf("%+v on %+v: %v, want a parallel kernel", m, f, k)
		}
	}
}

func TestEstimateTriLaunchCostOverride(t *testing.T) {
	f, info := blockOf(t, gen.Layered(4000, 16, 3, 0, 9))
	m := Machine{Workers: 2, Procs: 2}
	th := DefaultThresholds()
	base := th.EstimateTri(kernels.TriLevelSet, f, info, m)
	th.LaunchCost = nsLaunch*time.Nanosecond + time.Microsecond
	launches := float64(TriLaunches(kernels.TriLevelSet, info, m.Workers))
	if got := th.EstimateTri(kernels.TriLevelSet, f, info, m); math.Abs(got-base-launches*1000) > 1e-6 {
		t.Fatalf("LaunchCost +1µs moved the estimate by %g, want %g", got-base, launches*1000)
	}
	if s0, s1 := DefaultThresholds().EstimateTri(kernels.TriSerial, f, info, m), th.EstimateTri(kernels.TriSerial, f, info, m); s0 != s1 {
		t.Fatalf("LaunchCost moved the serial estimate: %g vs %g", s0, s1)
	}
}

func TestTriLaunchesCountsWideLevels(t *testing.T) {
	// Level sizes 1, 3, 5, 7: one component, then widening levels.
	info := &levelset.Info{NLevels: 4, LevelPtr: []int{0, 1, 4, 9, 16}}
	for _, tc := range []struct {
		k       kernels.TriKernel
		workers int
		want    int
	}{
		{kernels.TriSerial, 4, 0},
		{kernels.TriSyncFree, 4, 1},
		{kernels.TriLevelSet, 4, 3},     // every level of width ≥ 2
		{kernels.TriCuSparseLike, 2, 2}, // width ≥ 4
		{kernels.TriCuSparseLike, 3, 1}, // width ≥ 6
		{kernels.TriCuSparseLike, 0, 3}, // no pool size: width ≥ 2
	} {
		if got := TriLaunches(tc.k, info, tc.workers); got != tc.want {
			t.Errorf("%v at %d workers: %d launches, want %d", tc.k, tc.workers, got, tc.want)
		}
	}
}
