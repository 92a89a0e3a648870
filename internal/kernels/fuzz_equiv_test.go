package kernels

import (
	"math"
	"math/rand"
	"testing"

	"github.com/sss-lab/blocksptrsv/internal/exec"
	"github.com/sss-lab/blocksptrsv/internal/levelset"
	"github.com/sss-lab/blocksptrsv/internal/sparse"
)

// Differential fuzzing of the optimized kernels against TriSerialSolve
// (DESIGN.md §6.9): the unrolled dual-accumulator gathers reassociate
// each row's subtraction chain, so kernel results may differ from the
// serial scatter reference by rounding — but only by rounding. The
// tolerances are the documented reassociation bounds: splitting a
// length-m sum in two changes the result by O(m·ε) relative, and forward
// substitution on the well-conditioned generators below amplifies it by a
// small constant. With m ≤ 96 that is covered by 64·m·ε in the elements'
// own precision (ε = 2⁻⁵² for float64, 2⁻²³ for float32) — a few hundred
// ULPs of headroom, far below any real kernel bug, which produces either
// an exact mismatch (wrong entry read) or an O(1) error (dependency
// order violated).

// fuzzTolerance is the documented equivalence bound for one solve.
func fuzzTolerance[T sparse.Float](n int) float64 {
	var eps float64
	switch any(T(0)).(type) {
	case float32:
		eps = 0x1p-23
	default:
		eps = 0x1p-52
	}
	return 64 * float64(n) * eps
}

// buildRandLower is randLower at any element type: strictly-lower entries
// shrink with distance from the diagonal, the diagonal sits near one, so
// forward substitution stays well-conditioned and the reassociation bound
// above is the only slack the comparison needs.
func buildRandLower[T sparse.Float](rng *rand.Rand, n int, density float64) *sparse.CSR[T] {
	b := sparse.NewBuilder[T](n, n)
	for i := 0; i < n; i++ {
		for j := 0; j < i; j++ {
			if rng.Float64() < density {
				b.Add(i, j, T(0.5*rng.NormFloat64()/float64(1+i-j)))
			}
		}
		b.Add(i, i, T(1+rng.Float64()))
	}
	return b.BuildCSR()
}

// checkKernelEquivalence solves one random system with every optimized
// SpTRSV kernel and compares each result to the TriSerialSolve reference.
func checkKernelEquivalence[T sparse.Float](t *testing.T, seed int64, n, workers int, density float64) {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	l := buildRandLower[T](rng, n, density)
	strictCSC, diag, err := sparse.SplitDiagCSC(l.ToCSC())
	if err != nil {
		t.Fatal(err)
	}
	info := levelset.FromLowerCSR(l)
	b := make([]T, n)
	for i := range b {
		b[i] = T(rng.NormFloat64())
	}

	want := make([]T, n)
	w := append([]T(nil), b...)
	TriSerialSolve(strictCSC, diag, w, want)

	tol := fuzzTolerance[T](n)
	check := func(name string, x []T) {
		t.Helper()
		for i := range want {
			got, ref := float64(x[i]), float64(want[i])
			if math.Abs(got-ref) > tol*(1+math.Abs(ref)) {
				t.Fatalf("%T %s: seed=%d n=%d workers=%d x[%d]=%g want %g (tol %g)",
					T(0), name, seed, n, workers, i, got, ref, tol)
			}
		}
	}

	p := exec.NewPool(workers)
	strictCSR := strictCSC.ToCSR()
	x := make([]T, n)
	w = append(w[:0], b...)
	TriLevelSetSolve(p, strictCSR, diag, info, w, x, 1, nil)
	check("level-set", x)

	x = make([]T, n)
	w = append(w[:0], b...)
	TriSyncFreeSolve(p, NewSyncFreeState(strictCSC), strictCSC, strictCSR, diag, w, x, 1, nil)
	check("sync-free", x)

	sched := NewMergedSchedule(info, 0, workers)
	x = make([]T, n)
	w = append(w[:0], b...)
	TriCuSparseLikeSolve(p, sched, strictCSR, diag, w, x, 1, nil)
	check("cusparse-like", x)

	x = make([]T, n)
	SerialSolveCSR(l, b, x)
	check("serial-csr", x)

	csr, err := NewSyncFreeCSRSolver(p, l)
	if err != nil {
		t.Fatal(err)
	}
	x = make([]T, n)
	csr.Solve(b, x)
	check("sync-free-csr", x)
}

// FuzzKernelEquivalence fuzzes the optimized kernels against the serial
// reference at both element types on the same generated system.
func FuzzKernelEquivalence(f *testing.F) {
	f.Add(int64(1), uint8(1), uint8(10), uint8(0))
	f.Add(int64(53), uint8(64), uint8(15), uint8(2))
	f.Add(int64(99), uint8(96), uint8(60), uint8(3))
	f.Add(int64(7), uint8(17), uint8(95), uint8(1))
	f.Fuzz(func(t *testing.T, seed int64, nRaw, densityRaw, workersRaw uint8) {
		n := 1 + int(nRaw)%96
		density := float64(densityRaw%100) / 100
		workers := 1 + int(workersRaw)%4
		checkKernelEquivalence[float64](t, seed, n, workers, density)
		checkKernelEquivalence[float32](t, seed, n, workers, density)
	})
}
