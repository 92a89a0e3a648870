package block

import (
	"testing"

	"github.com/sss-lab/blocksptrsv/internal/gen"
	"github.com/sss-lab/blocksptrsv/internal/kernels"
)

func TestCalibrateKernelsKeepsCorrectness(t *testing.T) {
	for _, name := range []string{"layered", "powerlaw", "chain", "diag"} {
		l := testMatrices()[name]
		b := gen.RandVec(l.Rows, 50)
		s, err := Preprocess(l, Options{
			Workers: 3, Kind: Recursive, MinBlockRows: 150, Reorder: true,
			Adaptive: true, Calibrate: true, CalibrateRepeats: 1,
		})
		if err != nil {
			t.Fatal(err)
		}
		x := make([]float64, l.Rows)
		s.Solve(b, x)
		if r := residual(l, x, b); r > 1e-9 {
			t.Fatalf("%s calibrated residual %g", name, r)
		}
		// Every selected kernel must be concrete and runnable.
		for k := range s.TriKernelCounts() {
			switch k {
			case kernels.TriCompletelyParallel, kernels.TriLevelSet,
				kernels.TriSyncFree, kernels.TriCuSparseLike, kernels.TriSerial:
			default:
				t.Fatalf("%s: calibration chose %v", name, k)
			}
		}
		for k := range s.SpMVKernelCounts() {
			switch k {
			case kernels.SpMVScalarCSR, kernels.SpMVVectorCSR,
				kernels.SpMVScalarDCSR, kernels.SpMVVectorDCSR, kernels.SpMVSerial:
			default:
				t.Fatalf("%s: calibration chose spmv %v", name, k)
			}
		}
	}
}

func TestCalibrateDropsLoserStructures(t *testing.T) {
	l := gen.Layered(2000, 40, 5, 0.2, 51)
	s, err := Preprocess(l, Options{
		Workers: 2, Kind: Recursive, MinBlockRows: 300, Reorder: true,
		Adaptive: true, Calibrate: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	for i := range s.tris {
		tb := &s.tris[i]
		if tb.kernel != kernels.TriSyncFree && tb.state != nil {
			t.Fatal("sync-free state kept by non-sync-free block")
		}
		if tb.kernel != kernels.TriCuSparseLike && tb.sched != nil {
			t.Fatal("cusparse schedule kept by other kernel")
		}
		if gatherKernel(tb.kernel) != (tb.strictCSR != nil) {
			t.Fatalf("%v block: strict CSR kept=%v, want it exactly for the gather-form kernels", tb.kernel, tb.strictCSR != nil)
		}
		if tb.strictCSC == nil {
			t.Fatal("strict CSC dropped")
		}
	}
	for i := range s.sqs {
		sb := &s.sqs[i]
		if sb.feats.NNZ == 0 {
			continue
		}
		switch sb.kernel {
		case kernels.SpMVScalarDCSR, kernels.SpMVVectorDCSR:
			if sb.csr != nil || sb.dcsr == nil {
				t.Fatal("DCSR winner kept CSR or lost DCSR")
			}
		default:
			if sb.dcsr != nil || sb.csr == nil {
				t.Fatal("CSR winner kept DCSR or lost CSR")
			}
		}
	}
	// The calibrated solver still solves correctly after dropping.
	b := gen.RandVec(l.Rows, 52)
	x := make([]float64, l.Rows)
	s.Solve(b, x)
	if r := residual(l, x, b); r > 1e-9 {
		t.Fatalf("residual %g", r)
	}
}

func TestCalibrateOnDiagonalIsNoOp(t *testing.T) {
	l := gen.DiagonalOnly(1000, 1)
	s, err := Preprocess(l, Options{
		Workers: 2, Kind: Recursive, MinBlockRows: 100, Adaptive: true, Calibrate: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	counts := s.TriKernelCounts()
	if len(counts) != 1 || counts[kernels.TriCompletelyParallel] == 0 {
		t.Fatalf("calibration changed diagonal kernels: %v", counts)
	}
}
