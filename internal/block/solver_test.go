package block

import (
	"math"
	"math/rand"
	"strings"
	"testing"

	"github.com/sss-lab/blocksptrsv/internal/adapt"
	"github.com/sss-lab/blocksptrsv/internal/exec"
	"github.com/sss-lab/blocksptrsv/internal/gen"
	"github.com/sss-lab/blocksptrsv/internal/kernels"
	"github.com/sss-lab/blocksptrsv/internal/sparse"
)

func residual(l *sparse.CSR[float64], x, b []float64) float64 {
	worst := 0.0
	for i := 0; i < l.Rows; i++ {
		var sum float64
		for k := l.RowPtr[i]; k < l.RowPtr[i+1]; k++ {
			sum += l.Val[k] * x[l.ColIdx[k]]
		}
		r := math.Abs(sum-b[i]) / (1 + math.Abs(b[i]))
		if r > worst {
			worst = r
		}
	}
	return worst
}

// testMatrices is a small structural zoo covering every kernel-selection
// branch: diagonal, chain, shallow-wide, deep, power-law, grid.
func testMatrices() map[string]*sparse.CSR[float64] {
	return map[string]*sparse.CSR[float64]{
		"diag":      gen.DiagonalOnly(700, 1),
		"chain":     gen.SerialChain(600, 0.3, 2),
		"bipartite": gen.BipartiteBlock(800, 5, 3),
		"layered":   gen.Layered(900, 40, 5, 0.3, 4),
		"powerlaw":  gen.PowerLaw(800, 4, 0.05, 5),
		"grid":      gen.GridLaplacian5(30, 25, 6),
		"tiny":      gen.SerialChain(3, 0, 7),
	}
}

func TestAllKindsMatchSerialOracle(t *testing.T) {
	rng := rand.New(rand.NewSource(90))
	mats := testMatrices()
	for _, workers := range []int{1, 8} {
		pool := exec.NewPool(workers)
		for name, l := range mats {
			b := gen.RandVec(l.Rows, 91)
			want := make([]float64, l.Rows)
			ref, err := kernels.NewSerialSolver(l)
			if err != nil {
				t.Fatal(err)
			}
			ref.Solve(b, want)
			for _, kind := range []Kind{Recursive, ColumnBlock, RowBlock} {
				for _, reorder := range []bool{false, true} {
					opts := Options{
						Pool:         pool,
						Kind:         kind,
						NSeg:         1 + rng.Intn(7),
						MinBlockRows: 1 + rng.Intn(200),
						Reorder:      reorder,
						Adaptive:     true,
					}
					s, err := Preprocess(l, opts)
					if err != nil {
						t.Fatalf("%s/%v reorder=%v: %v", name, kind, reorder, err)
					}
					x := make([]float64, l.Rows)
					s.Solve(b, x)
					if r := residual(l, x, b); r > 1e-9 {
						t.Fatalf("workers=%d %s/%v reorder=%v residual=%g", workers, name, kind, reorder, r)
					}
					// Second solve must agree (reusable state); tolerance
					// covers atomic-accumulation order nondeterminism.
					x2 := make([]float64, l.Rows)
					s.Solve(b, x2)
					for i := range x {
						if d := math.Abs(x[i] - x2[i]); d > 1e-10*(1+math.Abs(x[i])) {
							t.Fatalf("%s/%v: second solve differs at %d", name, kind, i)
						}
					}
				}
			}
		}
	}
}

func TestForcedKernelsMatchOracle(t *testing.T) {
	pool := exec.NewPool(6)
	l := gen.Layered(1200, 30, 5, 0.2, 10)
	b := gen.RandVec(l.Rows, 11)
	want := make([]float64, l.Rows)
	ref, _ := kernels.NewSerialSolver(l)
	ref.Solve(b, want)
	for _, tk := range []kernels.TriKernel{kernels.TriLevelSet, kernels.TriSyncFree, kernels.TriCuSparseLike, kernels.TriSerial} {
		for _, sk := range []kernels.SpMVKernel{kernels.SpMVScalarCSR, kernels.SpMVVectorCSR, kernels.SpMVScalarDCSR, kernels.SpMVVectorDCSR, kernels.SpMVSerial} {
			s, err := Preprocess(l, Options{
				Pool: pool, Kind: Recursive, MinBlockRows: 150,
				Reorder: true, Adaptive: false, ForceTri: tk, ForceSpMV: sk,
			})
			if err != nil {
				t.Fatalf("force %v/%v: %v", tk, sk, err)
			}
			x := make([]float64, l.Rows)
			s.Solve(b, x)
			if r := residual(l, x, b); r > 1e-9 {
				t.Fatalf("force %v/%v residual=%g", tk, sk, r)
			}
		}
	}
}

func TestForceCompletelyParallelRejectedOnDependentBlock(t *testing.T) {
	l := gen.SerialChain(100, 0, 1)
	_, err := Preprocess(l, Options{
		Workers: 2, Kind: Recursive, MinBlockRows: 10,
		Adaptive: false, ForceTri: kernels.TriCompletelyParallel,
	})
	if err == nil {
		t.Fatal("forcing completely-parallel on a chain must fail")
	}
}

func TestAdaptiveSelectionPerStructure(t *testing.T) {
	pool := exec.NewPool(4)

	// Pure diagonal: every triangular block must select completely-parallel.
	s, err := Preprocess(gen.DiagonalOnly(5000, 1), Options{
		Pool: pool, Kind: Recursive, MinBlockRows: 500, Reorder: true, Adaptive: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	counts := s.TriKernelCounts()
	if len(counts) != 1 || counts[kernels.TriCompletelyParallel] == 0 {
		t.Fatalf("diag kernel counts: %v", counts)
	}

	// A single un-split very deep chain runs serial at any parallelism:
	// 25000 launched or handed-off levels cannot pay for themselves.
	// (Algorithm 7 picks cuSPARSE-like here; adapt's
	// TestSelectTriAlgorithm7Structures keeps that assertion.)
	deep := gen.SerialChain(25000, 0, 2)
	s, err = Preprocess(deep, Options{
		Pool: pool, Kind: ColumnBlock, NSeg: 1, Reorder: false, Adaptive: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	counts = s.TriKernelCounts()
	if counts[kernels.TriSerial] != 1 {
		t.Fatalf("deep chain kernel counts: %v", counts)
	}

	// A shallow layered system gets the cost model's pick for this
	// GOMAXPROCS, and serial when only one worker can run.
	shallow := gen.Layered(4000, 8, 3, 0, 3)
	s, err = Preprocess(shallow, Options{
		Pool: pool, Kind: ColumnBlock, NSeg: 1, Reorder: false, Adaptive: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	tb := &s.tris[0]
	m := machineOf(pool)
	want := adapt.DefaultThresholds().PickTri(tb.feats, tb.info, m)
	if m.Parallelism() == 1 && want != kernels.TriSerial {
		t.Fatalf("shallow at p=1: model picks %v, want serial", want)
	}
	if counts = s.TriKernelCounts(); len(s.tris) != 1 || counts[want] != 1 {
		t.Fatalf("shallow kernel counts: %v, want one %v (%+v)", counts, want, m)
	}
}

func TestRecursionRespectsMinBlockRowsAndMaxDepth(t *testing.T) {
	n := 1 << 12
	l := gen.Banded(n, 4, 0.5, 20)
	s, err := Preprocess(l, Options{
		Workers: 2, Kind: Recursive, MinBlockRows: 100, Reorder: false, Adaptive: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	for _, tb := range s.tris {
		if size := tb.hi - tb.lo; size > 100 {
			t.Fatalf("leaf of %d rows exceeds MinBlockRows=100", size)
		}
	}
	// MaxDepth=3 -> exactly 8 leaves, 7 squares for a power-of-two size.
	s, err = Preprocess(l, Options{
		Workers: 2, Kind: Recursive, MinBlockRows: 1, MaxDepth: 3, Adaptive: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	if s.NumTriBlocks() != 8 || s.NumSquareBlocks() != 7 {
		t.Fatalf("depth 3: %d tris, %d squares; want 8, 7", s.NumTriBlocks(), s.NumSquareBlocks())
	}
}

func TestSquareNNZConsistency(t *testing.T) {
	l := gen.Layered(2000, 50, 6, 0.2, 21)
	s, err := Preprocess(l, Options{
		Workers: 2, Kind: Recursive, MinBlockRows: 100, Reorder: true, Adaptive: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	triNNZ := 0
	for _, tb := range s.tris {
		triNNZ += tb.strictCSC.NNZ() + len(tb.diag)
	}
	if triNNZ+s.SquareNNZ() != l.NNZ() {
		t.Fatalf("nnz accounting: tri %d + sq %d != total %d", triNNZ, s.SquareNNZ(), l.NNZ())
	}
}

// TestReorderMovesNNZIntoSquares checks the §3.3 claim on a scrambled
// layered system: level-set reordering concentrates nonzeros in the square
// parts (deterministic given the fixed seeds).
func TestReorderMovesNNZIntoSquares(t *testing.T) {
	l := gen.Layered(3000, 60, 6, 0, 22)
	// Scramble with a random topological order so the natural layered
	// order does not already coincide with the level order.
	scramble := topoShuffle(l, rand.New(rand.NewSource(23)))
	ls, err := sparse.PermuteSym(l, scramble)
	if err != nil {
		t.Fatal(err)
	}
	base := Options{Workers: 2, Kind: Recursive, MinBlockRows: 200, Adaptive: true}
	plain, err := Preprocess(ls, base)
	if err != nil {
		t.Fatal(err)
	}
	base.Reorder = true
	reordered, err := Preprocess(ls, base)
	if err != nil {
		t.Fatal(err)
	}
	if reordered.SquareNNZ() < plain.SquareNNZ() {
		t.Fatalf("reordering reduced square nnz: %d -> %d", plain.SquareNNZ(), reordered.SquareNNZ())
	}
}

// topoShuffle returns a random topological order of the lower-triangular
// dependency DAG (newIdx form), used to scramble test matrices.
func topoShuffle(l *sparse.CSR[float64], rng *rand.Rand) []int {
	n := l.Rows
	indeg := make([]int, n)
	for i := 0; i < n; i++ {
		for k := l.RowPtr[i]; k < l.RowPtr[i+1]; k++ {
			if l.ColIdx[k] != i {
				indeg[i]++
			}
		}
	}
	csc := l.ToCSC()
	var ready []int
	for i := 0; i < n; i++ {
		if indeg[i] == 0 {
			ready = append(ready, i)
		}
	}
	newIdx := make([]int, n)
	for pos := 0; pos < n; pos++ {
		pick := rng.Intn(len(ready))
		v := ready[pick]
		ready[pick] = ready[len(ready)-1]
		ready = ready[:len(ready)-1]
		newIdx[v] = pos
		for k := csc.ColPtr[v]; k < csc.ColPtr[v+1]; k++ {
			w := csc.RowIdx[k]
			if w == v {
				continue
			}
			indeg[w]--
			if indeg[w] == 0 {
				ready = append(ready, w)
			}
		}
	}
	return newIdx
}

func TestInstrumentation(t *testing.T) {
	l := gen.Layered(1500, 20, 5, 0, 24)
	s, err := Preprocess(l, Options{
		Workers: 2, Kind: Recursive, MinBlockRows: 200, Reorder: true,
		Adaptive: true, Instrument: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	b := gen.RandVec(l.Rows, 25)
	x := make([]float64, l.Rows)
	s.Solve(b, x)
	s.Solve(b, x)
	st := s.Stats()
	if st.Solves != 2 {
		t.Fatalf("solves=%d", st.Solves)
	}
	if st.TriCalls != 2*int64(s.NumTriBlocks()) || st.SpMVCalls != 2*int64(s.NumSquareBlocks()) {
		t.Fatalf("calls: %+v for %d tris %d squares", st, s.NumTriBlocks(), s.NumSquareBlocks())
	}
	if st.TriTime <= 0 || (s.NumSquareBlocks() > 0 && st.SpMVTime <= 0) {
		t.Fatalf("times not accumulated: %+v", st)
	}
	s.ResetStats()
	if s.Stats() != (SolveStats{}) {
		t.Fatal("ResetStats did not clear")
	}
}

func TestSolveMulti(t *testing.T) {
	l := gen.Layered(800, 10, 4, 0, 26)
	s, err := Preprocess(l, Options{Workers: 4, Kind: Recursive, MinBlockRows: 100, Reorder: true, Adaptive: true})
	if err != nil {
		t.Fatal(err)
	}
	const nrhs = 5
	bs := make([][]float64, nrhs)
	xs := make([][]float64, nrhs)
	for k := range bs {
		bs[k] = gen.RandVec(l.Rows, int64(30+k))
		xs[k] = make([]float64, l.Rows)
	}
	s.SolveMulti(bs, xs)
	for k := range bs {
		if r := residual(l, xs[k], bs[k]); r > 1e-9 {
			t.Fatalf("rhs %d residual %g", k, r)
		}
	}
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic for mismatched SolveMulti")
		}
	}()
	s.SolveMulti(bs, xs[:2])
}

func TestSolvePanicsOnBadLengths(t *testing.T) {
	l := gen.DiagonalOnly(10, 1)
	s, err := Preprocess(l, Options{Workers: 1, Kind: Recursive, MinBlockRows: 4, Adaptive: true})
	if err != nil {
		t.Fatal(err)
	}
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	s.Solve(make([]float64, 9), make([]float64, 10))
}

func TestPreprocessRejectsBadInput(t *testing.T) {
	bad := sparse.FromDense(2, 2, []float64{1, 1, 1, 1})
	if _, err := Preprocess(bad, Options{Workers: 1, Adaptive: true}); err == nil {
		t.Fatal("accepted non-triangular input")
	}
	// Singular diagonal.
	b := sparse.NewBuilder[float64](2, 2)
	b.Add(0, 0, 1)
	b.Add(1, 0, 1)
	if _, err := Preprocess(b.BuildCSR(), Options{Workers: 1, Adaptive: true}); err == nil {
		t.Fatal("accepted singular input")
	}
}

func TestSolveInPlaceAliasing(t *testing.T) {
	l := gen.Layered(500, 10, 4, 0, 27)
	s, err := Preprocess(l, Options{Workers: 2, Kind: Recursive, MinBlockRows: 64, Reorder: true, Adaptive: true})
	if err != nil {
		t.Fatal(err)
	}
	b := gen.RandVec(l.Rows, 28)
	bCopy := append([]float64(nil), b...)
	s.Solve(b, b) // x aliases b
	if r := residual(l, b, bCopy); r > 1e-9 {
		t.Fatalf("aliased solve residual %g", r)
	}
}

func TestFloat32Solver(t *testing.T) {
	l64 := gen.Layered(900, 15, 4, 0, 29)
	l := sparse.ConvertValues[float32](l64)
	s, err := Preprocess(l, Options{Workers: 4, Kind: Recursive, MinBlockRows: 128, Reorder: true, Adaptive: true})
	if err != nil {
		t.Fatal(err)
	}
	ref, err := kernels.NewSerialSolver(l)
	if err != nil {
		t.Fatal(err)
	}
	b := make([]float32, l.Rows)
	for i := range b {
		b[i] = float32(i%7) - 3
	}
	want := make([]float32, l.Rows)
	ref.Solve(b, want)
	x := make([]float32, l.Rows)
	s.Solve(b, x)
	for i := range x {
		if math.Abs(float64(x[i]-want[i])) > 1e-3*(1+math.Abs(float64(want[i]))) {
			t.Fatalf("x[%d]=%g want %g", i, x[i], want[i])
		}
	}
}

func TestNamesAndMetadata(t *testing.T) {
	l := gen.DiagonalOnly(32, 1)
	s, err := Preprocess(l, Options{Workers: 1, Kind: Recursive, MinBlockRows: 8, Reorder: true, Adaptive: true})
	if err != nil {
		t.Fatal(err)
	}
	if s.Rows() != 32 {
		t.Fatal("Rows")
	}
	if got := s.Name(); got != "block-recursive" {
		t.Fatalf("Name: %q", got)
	}
	s2, _ := Preprocess(l, Options{Workers: 1, Kind: RowBlock, NSeg: 2, Adaptive: true})
	if got := s2.Name(); !strings.Contains(got, "row") || !strings.Contains(got, "noreorder") {
		t.Fatalf("Name: %q", got)
	}
	for k, want := range map[Kind]string{Recursive: "recursive", ColumnBlock: "column", RowBlock: "row", Kind(9): "unknown"} {
		if k.String() != want {
			t.Fatalf("Kind(%d)=%q", k, k.String())
		}
	}
	// Diagonal matrix has no strictly-lower entries anywhere.
	if s.SquareNNZ() != 0 {
		t.Fatalf("diag SquareNNZ=%d", s.SquareNNZ())
	}
	if p := s.Perm(); p != nil {
		// Reordering a diagonal matrix is the identity and may be skipped
		// entirely; if present it must be the identity.
		for i, v := range p {
			if v != i {
				t.Fatalf("non-identity perm on diagonal matrix at %d", i)
			}
		}
	}
}

func TestEmptySystem(t *testing.T) {
	l := &sparse.CSR[float64]{Rows: 0, Cols: 0, RowPtr: []int{0}}
	s, err := Preprocess(l, Options{Workers: 1, Adaptive: true})
	if err != nil {
		t.Fatal(err)
	}
	s.Solve(nil, nil)
}

func TestDescribe(t *testing.T) {
	l := gen.Layered(2000, 30, 5, 0.1, 777)
	s, err := Preprocess(l, Options{Workers: 2, Kind: Recursive, MinBlockRows: 300, Reorder: true, Adaptive: true})
	if err != nil {
		t.Fatal(err)
	}
	d := s.Describe()
	for _, want := range []string{"block-recursive", "triangular", "square blocks hold", "b-updates", "tri kernels"} {
		if !strings.Contains(d, want) {
			t.Fatalf("Describe missing %q:\n%s", want, d)
		}
	}
	// Deterministic output.
	if s.Describe() != d {
		t.Fatal("Describe not deterministic")
	}
	// A diagonal system reports a single kernel class and no squares.
	sd, err := Preprocess(gen.DiagonalOnly(100, 1), Options{Workers: 1, Adaptive: true})
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(sd.Describe(), "completely-parallel") || !strings.Contains(sd.Describe(), "spmv kernels: none") {
		t.Fatalf("diag Describe:\n%s", sd.Describe())
	}
}
