package block

import (
	"math/rand"
	"runtime"
	"testing"
	"testing/quick"
	"time"

	"github.com/sss-lab/blocksptrsv/internal/exec"
	"github.com/sss-lab/blocksptrsv/internal/gen"
	"github.com/sss-lab/blocksptrsv/internal/kernels"
)

func TestPreprocessAutoSolvesCorrectly(t *testing.T) {
	pool := exec.NewPool(3)
	for name, l := range testMatrices() {
		o := Options{
			Pool: pool, Kind: Recursive, MinBlockRows: 200,
			Reorder: true, Adaptive: true, Calibrate: true, Auto: true,
		}
		s, err := PreprocessAuto(l, o)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		b := gen.RandVec(l.Rows, 900)
		x := make([]float64, l.Rows)
		s.Solve(b, x)
		if r := residual(l, x, b); r > 1e-9 {
			t.Fatalf("%s: residual %g", name, r)
		}
	}
}

func TestPreprocessAutoSkipsRedundantCandidates(t *testing.T) {
	// A diagonal matrix: identity reorder and a single effective partition
	// shape; auto must not fail and should return a working solver.
	l := gen.DiagonalOnly(500, 1)
	s, err := PreprocessAuto(l, Options{
		Workers: 2, Kind: Recursive, MinBlockRows: 1 << 30, Reorder: true, Adaptive: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	if s.NumTriBlocks() != 1 {
		t.Fatalf("expected single triangle, got %d", s.NumTriBlocks())
	}
	b := gen.RandVec(500, 901)
	x := make([]float64, 500)
	s.Solve(b, x)
	if r := residual(l, x, b); r > 1e-12 {
		t.Fatalf("residual %g", r)
	}
}

// TestOptionSpaceFuzz sweeps random option combinations through the whole
// pipeline: whatever the configuration, Preprocess either returns an error
// or a solver whose solution matches the oracle.
func TestOptionSpaceFuzz(t *testing.T) {
	pool := exec.NewPool(3)
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 50 + rng.Intn(800)
		var l = gen.Layered(n, 1+rng.Intn(60), 1+rng.Intn(6), rng.Float64()*0.5, seed)
		o := Options{
			Pool:         pool,
			Kind:         Kind(rng.Intn(3)),
			NSeg:         rng.Intn(10),
			MinBlockRows: rng.Intn(300),
			MaxDepth:     rng.Intn(8),
			Reorder:      rng.Intn(2) == 0,
			Adaptive:     rng.Intn(2) == 0,
			Calibrate:    rng.Intn(3) == 0,
			Auto:         rng.Intn(3) == 0,
		}
		if !o.Adaptive {
			// Pick a runnable forced pair (completely-parallel cannot be
			// forced onto blocks with dependencies).
			tris := []kernels.TriKernel{kernels.TriLevelSet, kernels.TriSyncFree, kernels.TriCuSparseLike, kernels.TriSerial}
			spmvs := []kernels.SpMVKernel{kernels.SpMVScalarCSR, kernels.SpMVVectorCSR, kernels.SpMVScalarDCSR, kernels.SpMVVectorDCSR, kernels.SpMVSerial}
			o.ForceTri = tris[rng.Intn(len(tris))]
			o.ForceSpMV = spmvs[rng.Intn(len(spmvs))]
		}
		s, err := Preprocess(l, o)
		if err != nil {
			t.Logf("seed %d: %v", seed, err)
			return false
		}
		b := gen.RandVec(n, seed+1)
		x := make([]float64, n)
		s.Solve(b, x)
		return residual(l, x, b) < 1e-8
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40, Rand: rand.New(rand.NewSource(902))}); err != nil {
		t.Fatal(err)
	}
}

// PreprocessAuto with no pool must build one pool and run every candidate
// on it: the losing candidates' solvers are dropped, and a pool of their
// own would stay resident behind them.
func TestPreprocessAutoSharesOnePool(t *testing.T) {
	l := testMatrices()["layered"]
	o := Options{Workers: 3, Kind: Recursive, MinBlockRows: 200, Reorder: true, Adaptive: true}
	probe, err := Preprocess(l, o)
	if err != nil {
		t.Fatal(err)
	}
	if probe.Perm() == nil || probe.NumTriBlocks() < 2 {
		t.Fatal("test matrix no longer yields all three auto candidates")
	}
	// settled waits out goroutines of earlier tests that are still
	// exiting, so the deltas count only resident pool workers.
	settled := func() int {
		n := runtime.NumGoroutine()
		for i := 0; i < 200; i++ {
			time.Sleep(time.Millisecond)
			m := runtime.NumGoroutine()
			if m == n {
				break
			}
			n = m
		}
		return n
	}
	const calls = 5
	resident := func(preprocess func() (*Solver[float64], error)) int {
		before := settled()
		for i := 0; i < calls; i++ {
			if _, err := preprocess(); err != nil {
				t.Fatal(err)
			}
		}
		return settled() - before
	}
	plain := resident(func() (*Solver[float64], error) { return Preprocess(l, o) })
	auto := resident(func() (*Solver[float64], error) { return PreprocessAuto(l, o) })
	if want := calls * (o.Workers - 1); plain != want {
		t.Fatalf("%d plain Preprocess calls left %d goroutines, want %d", calls, plain, want)
	}
	if auto > plain {
		t.Fatalf("%d PreprocessAuto calls left %d resident goroutines, %d plain calls left %d",
			calls, auto, calls, plain)
	}
}
