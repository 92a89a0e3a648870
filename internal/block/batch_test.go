package block

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"

	"github.com/sss-lab/blocksptrsv/internal/gen"
	"github.com/sss-lab/blocksptrsv/internal/kernels"
)

func TestSolveBatchMatchesRepeatedSolve(t *testing.T) {
	rng := rand.New(rand.NewSource(200))
	for name, l := range testMatrices() {
		for _, k := range []int{1, 2, 5, 8} {
			s, err := Preprocess(l, Options{
				Workers: 3, Kind: Recursive, MinBlockRows: 150,
				Reorder: true, Adaptive: true,
			})
			if err != nil {
				t.Fatal(err)
			}
			n := l.Rows
			// k independent right-hand sides, solved one by one (oracle).
			rhs := make([][]float64, k)
			want := make([][]float64, k)
			for r := range rhs {
				rhs[r] = gen.RandVec(n, rng.Int63())
				want[r] = make([]float64, n)
				s.Solve(rhs[r], want[r])
			}
			packed := InterleaveRHS(rhs)
			got := make([]float64, n*k)
			s.SolveBatch(packed, got, k)
			for r := 0; r < k; r++ {
				for i := 0; i < n; i++ {
					g := got[i*k+r]
					wv := want[r][i]
					if math.Abs(g-wv) > 1e-10*(1+math.Abs(wv)) {
						t.Fatalf("%s k=%d rhs=%d x[%d]=%g want %g", name, k, r, i, g, wv)
					}
				}
			}
		}
	}
}

func TestSolveBatchForcedKernels(t *testing.T) {
	l := gen.Layered(900, 25, 5, 0.2, 201)
	b := gen.RandVec(l.Rows, 202)
	ref, _ := kernels.NewSerialSolver(l)
	want := make([]float64, l.Rows)
	ref.Solve(b, want)
	const k = 3
	packed := InterleaveRHS([][]float64{b, b, b})
	for _, tk := range []kernels.TriKernel{kernels.TriLevelSet, kernels.TriSyncFree, kernels.TriCuSparseLike, kernels.TriSerial} {
		for _, sk := range []kernels.SpMVKernel{kernels.SpMVScalarCSR, kernels.SpMVVectorCSR, kernels.SpMVScalarDCSR, kernels.SpMVVectorDCSR, kernels.SpMVSerial} {
			s, err := Preprocess(l, Options{
				Workers: 4, Kind: Recursive, MinBlockRows: 120,
				Reorder: true, Adaptive: false, ForceTri: tk, ForceSpMV: sk,
			})
			if err != nil {
				t.Fatal(err)
			}
			got := make([]float64, l.Rows*k)
			s.SolveBatch(packed, got, k)
			for r := 0; r < k; r++ {
				for i := 0; i < l.Rows; i++ {
					if math.Abs(got[i*k+r]-want[i]) > 1e-9*(1+math.Abs(want[i])) {
						t.Fatalf("force %v/%v rhs %d deviates at %d", tk, sk, r, i)
					}
				}
			}
		}
	}
}

func TestSolveBatchAliasing(t *testing.T) {
	l := gen.Layered(400, 10, 4, 0, 203)
	s, err := Preprocess(l, Options{Workers: 2, Kind: Recursive, MinBlockRows: 64, Reorder: true, Adaptive: true})
	if err != nil {
		t.Fatal(err)
	}
	const k = 4
	rhs := make([][]float64, k)
	for r := range rhs {
		rhs[r] = gen.RandVec(l.Rows, int64(300+r))
	}
	packed := InterleaveRHS(rhs)
	orig := append([]float64(nil), packed...)
	s.SolveBatch(packed, packed, k) // in-place
	for r := 0; r < k; r++ {
		for i := 0; i < l.Rows; i++ {
			var sum float64
			for p := l.RowPtr[i]; p < l.RowPtr[i+1]; p++ {
				sum += l.Val[p] * packed[l.ColIdx[p]*k+r]
			}
			if math.Abs(sum-orig[i*k+r]) > 1e-9*(1+math.Abs(orig[i*k+r])) {
				t.Fatalf("aliased batch solve wrong at rhs %d row %d", r, i)
			}
		}
	}
}

func TestSolveBatchPanicsOnBadArgs(t *testing.T) {
	l := gen.DiagonalOnly(8, 1)
	s, err := Preprocess(l, Options{Workers: 1, Adaptive: true})
	if err != nil {
		t.Fatal(err)
	}
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	s.SolveBatch(make([]float64, 8), make([]float64, 16), 2)
}

func TestInterleaveDeinterleaveRoundTrip(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n, k := 1+rng.Intn(30), 1+rng.Intn(6)
		rhs := make([][]float64, k)
		for r := range rhs {
			rhs[r] = gen.RandVec(n, rng.Int63())
		}
		packed := InterleaveRHS(rhs)
		back := DeinterleaveRHS(packed, k)
		for r := range rhs {
			for i := range rhs[r] {
				if back[r][i] != rhs[r][i] {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50, Rand: rand.New(rand.NewSource(204))}); err != nil {
		t.Fatal(err)
	}
	if InterleaveRHS[float64](nil) != nil {
		t.Fatal("empty interleave")
	}
	defer func() {
		if recover() == nil {
			t.Fatal("ragged input should panic")
		}
	}()
	InterleaveRHS([][]float64{{1, 2}, {1}})
}

func TestSolveBatchK1DelegatesToSolve(t *testing.T) {
	l := gen.SerialChain(100, 0.2, 205)
	s, err := Preprocess(l, Options{Workers: 2, Kind: Recursive, MinBlockRows: 20, Adaptive: true})
	if err != nil {
		t.Fatal(err)
	}
	b := gen.RandVec(100, 206)
	x1 := make([]float64, 100)
	x2 := make([]float64, 100)
	s.Solve(b, x1)
	s.SolveBatch(b, x2, 1)
	for i := range x1 {
		if x1[i] != x2[i] {
			t.Fatalf("k=1 batch differs at %d", i)
		}
	}
}

// TestSolveBatchAllocsMatchSolve: the batch path shares the single-RHS
// kernels' launch loops and only swaps the per-component row solve, so a
// batched solve allocates no more than a single-vector one — no
// right-hand-side scratch per launch chunk or per worker.
func TestSolveBatchAllocsMatchSolve(t *testing.T) {
	const n, levels, k = 2000, 40, 4
	l := gen.Layered(n, levels, 3, 0, 221)
	for _, kn := range []kernels.TriKernel{kernels.TriLevelSet, kernels.TriSyncFree, kernels.TriCuSparseLike} {
		s, err := Preprocess(l, Options{
			Workers: 2, Kind: Recursive, MinBlockRows: n,
			ForceTri: kn,
		})
		if err != nil {
			t.Fatal(err)
		}
		if len(s.tris) != 1 || s.tris[0].kernel != kn {
			t.Fatalf("%v: expected one %v triangle, got %d tris", kn, kn, len(s.tris))
		}
		if kn != kernels.TriSyncFree && s.tris[0].info.NLevels < levels {
			t.Fatalf("%v: %d levels, want at least %d", kn, s.tris[0].info.NLevels, levels)
		}
		b, x := gen.RandVec(n, 222), make([]float64, n)
		bb, xb := gen.RandVec(n*k, 223), make([]float64, n*k)
		single := testing.AllocsPerRun(20, func() { s.Solve(b, x) })
		batch := testing.AllocsPerRun(20, func() { s.SolveBatch(bb, xb, k) })
		t.Logf("%v: Solve %.0f allocs, SolveBatch(k=%d) %.0f", kn, single, k, batch)
		if batch > single {
			t.Fatalf("%v: SolveBatch(k=%d) allocates %.0f objects per solve, Solve %.0f", kn, k, batch, single)
		}
	}
}
