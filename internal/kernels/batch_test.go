package kernels

import (
	"math"
	"math/rand"
	"testing"

	"github.com/sss-lab/blocksptrsv/internal/exec"
	"github.com/sss-lab/blocksptrsv/internal/levelset"
	"github.com/sss-lab/blocksptrsv/internal/sparse"
)

func randBatch(rng *rand.Rand, n, k int) []float64 {
	v := make([]float64, n*k)
	for i := range v {
		v[i] = rng.NormFloat64()
	}
	return v
}

func TestTriBatchKernelsMatchSerialBatch(t *testing.T) {
	rng := rand.New(rand.NewSource(210))
	for _, workers := range []int{1, 4} {
		p := exec.NewPool(workers)
		for trial := 0; trial < 6; trial++ {
			n := 1 + rng.Intn(120)
			k := 1 + rng.Intn(6)
			l := randLower(rng, n, 0.15)
			strict, diag, err := sparse.SplitDiagCSC(l.ToCSC())
			if err != nil {
				t.Fatal(err)
			}
			info := levelset.FromLowerCSR(l)
			b := randBatch(rng, n, k)

			want := make([]float64, n*k)
			w := append([]float64(nil), b...)
			TriSerialSolveBatch(strict, diag, w, want, k)

			check := func(name string, x []float64) {
				t.Helper()
				for i := range want {
					if math.Abs(x[i]-want[i]) > 1e-10*(1+math.Abs(want[i])) {
						t.Fatalf("workers=%d n=%d k=%d %s: x[%d]=%g want %g", workers, n, k, name, i, x[i], want[i])
					}
				}
			}

			x := make([]float64, n*k)
			w = append(w[:0], b...)
			TriLevelSetSolve(p, strict.ToCSR(), diag, info, w, x, k, nil)
			check("level-set", x)

			x = make([]float64, n*k)
			w = append(w[:0], b...)
			TriSyncFreeSolve(p, NewSyncFreeState(strict), strict, strict.ToCSR(), diag, w, x, k, nil)
			check("sync-free", x)

			x = make([]float64, n*k)
			w = append(w[:0], b...)
			TriCuSparseLikeSolve(p, NewMergedSchedule(info, 0, workers), strict.ToCSR(), diag, w, x, k, nil)
			check("cusparse-like", x)
		}
	}
}

func TestTriDiagOnlySolveBatch(t *testing.T) {
	p := exec.NewPool(3)
	n, k := 500, 4
	diag := make([]float64, n)
	w := make([]float64, n*k)
	for i := 0; i < n; i++ {
		diag[i] = 2
		for r := 0; r < k; r++ {
			w[i*k+r] = float64(2 * (r + 1))
		}
	}
	x := make([]float64, n*k)
	TriDiagOnlySolveBatch(p, diag, w, x, k)
	for i := 0; i < n; i++ {
		for r := 0; r < k; r++ {
			if x[i*k+r] != float64(r+1) {
				t.Fatalf("x[%d][%d]=%g", i, r, x[i*k+r])
			}
		}
	}
}

func TestSpMVBatchKernelsMatchSerialBatch(t *testing.T) {
	rng := rand.New(rand.NewSource(211))
	for _, workers := range []int{1, 4} {
		p := exec.NewPool(workers)
		for trial := 0; trial < 6; trial++ {
			rows, cols := 1+rng.Intn(100), 1+rng.Intn(100)
			k := 1 + rng.Intn(5)
			var a *sparse.CSR[float64]
			if trial%2 == 0 {
				a = randRect(rng, rows, cols, 0.1)
			} else {
				a = powerLawRect(rng, rows, cols)
			}
			x := randBatch(rng, cols, k)
			w0 := randBatch(rng, rows, k)
			want := append([]float64(nil), w0...)
			SpMVSerialSubBatch(a, x, want, k)

			d := a.ToDCSR()
			for _, kn := range []SpMVKernel{SpMVScalarCSR, SpMVVectorCSR, SpMVScalarDCSR, SpMVVectorDCSR} {
				w := append([]float64(nil), w0...)
				RunSpMVBatch(p, kn, a, d, x, w, k)
				for i := range want {
					if math.Abs(w[i]-want[i]) > 1e-10*(1+math.Abs(want[i])) {
						t.Fatalf("workers=%d %v: w[%d]=%g want %g", workers, kn, i, w[i], want[i])
					}
				}
			}
		}
	}
}

func TestTriSyncFreeBatchEmptyAndChain(t *testing.T) {
	p := exec.NewPool(2)
	strict := &sparse.CSC[float64]{Rows: 0, Cols: 0, ColPtr: []int{0}}
	TriSyncFreeSolve(p, NewSyncFreeState(strict), strict, strict.ToCSR(), nil, nil, nil, 3, nil)

	// Fully serial chain under a tiny pool: deadlock-freedom for batches.
	l := chainLower(300)
	strictC, diag, err := sparse.SplitDiagCSC(l.ToCSC())
	if err != nil {
		t.Fatal(err)
	}
	k := 2
	b := make([]float64, 300*k)
	for i := range b {
		b[i] = 1
	}
	x := make([]float64, 300*k)
	w := append([]float64(nil), b...)
	TriSyncFreeSolve(p, NewSyncFreeState(strictC), strictC, strictC.ToCSR(), diag, w, x, k, nil)
	want := make([]float64, 300*k)
	w = append(w[:0], b...)
	TriSerialSolveBatch(strictC, diag, w, want, k)
	for i := range want {
		if math.Abs(x[i]-want[i]) > 1e-12 {
			t.Fatalf("chain batch x[%d]=%g want %g", i, x[i], want[i])
		}
	}
}
