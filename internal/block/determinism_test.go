package block

import (
	"context"
	"fmt"
	"math"
	"testing"

	"github.com/sss-lab/blocksptrsv/internal/exec"
	"github.com/sss-lab/blocksptrsv/internal/gen"
	"github.com/sss-lab/blocksptrsv/internal/kernels"
)

// The block solver's numerical contract (DESIGN.md §6.5): for a given
// matrix, options and worker count, every solve gives the same bits — on
// every launcher style, on every run, guarded or not. The comparisons
// below are exact.

func bitsEqual(t *testing.T, what string, got, want []float64) {
	t.Helper()
	for i := range want {
		if math.Float64bits(got[i]) != math.Float64bits(want[i]) {
			t.Fatalf("%s: x[%d] = %v, want %v bit for bit", what, i, got[i], want[i])
		}
	}
}

func TestSolveReproducibleAcrossLaunchersAndRuns(t *testing.T) {
	configs := map[string]Options{
		"adaptive": {Adaptive: true},
		"sync-free+vector-csr": {
			ForceTri: kernels.TriSyncFree, ForceSpMV: kernels.SpMVVectorCSR,
		},
		"level-set+vector-dcsr": {
			ForceTri: kernels.TriLevelSet, ForceSpMV: kernels.SpMVVectorDCSR,
		},
	}
	styles := []exec.LaunchStyle{exec.LaunchSpin, exec.LaunchSpawn}
	for name, l := range testMatrices() {
		b := gen.RandVec(l.Rows, 620)
		for cname, base := range configs {
			for _, workers := range []int{2, 3} {
				var want []float64
				for _, style := range styles {
					o := base
					o.Kind, o.MinBlockRows, o.Reorder = Recursive, 150, true
					o.Workers, o.Style = workers, style
					s, err := Preprocess(l, o)
					if err != nil {
						t.Fatal(err)
					}
					tag := fmt.Sprintf("%s %s workers=%d %v", name, cname, workers, style)
					x := make([]float64, l.Rows)
					for rep := 0; rep < 2; rep++ {
						s.Solve(b, x)
						if want == nil {
							want = append([]float64(nil), x...)
							continue
						}
						bitsEqual(t, fmt.Sprintf("%s Solve rep %d", tag, rep), x, want)
					}
					if err := s.SolveContext(context.Background(), b, x); err != nil {
						t.Fatalf("%s: %v", tag, err)
					}
					bitsEqual(t, tag+" SolveContext", x, want)
					exec.CloseLauncher(s.pool)
				}
			}
		}
	}
}

// The three gather-form triangular kernels solve a component with the
// same arithmetic, so under one partition and one SpMV kernel the choice
// among them does not change a single bit.
func TestTriKernelChoiceDoesNotChangeBits(t *testing.T) {
	for name, l := range testMatrices() {
		b := gen.RandVec(l.Rows, 621)
		var want []float64
		for _, tri := range []kernels.TriKernel{kernels.TriLevelSet, kernels.TriSyncFree, kernels.TriCuSparseLike} {
			s, err := Preprocess(l, Options{
				Workers: 3, Kind: Recursive, MinBlockRows: 150, Reorder: true,
				ForceTri: tri, ForceSpMV: kernels.SpMVScalarCSR,
			})
			if err != nil {
				t.Fatal(err)
			}
			x := make([]float64, l.Rows)
			s.Solve(b, x)
			if want == nil {
				want = x
				continue
			}
			bitsEqual(t, fmt.Sprintf("%s %v", name, tri), x, want)
		}
	}
}
