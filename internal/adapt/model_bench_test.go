package adapt

import (
	"testing"

	"github.com/sss-lab/blocksptrsv/internal/exec"
	"github.com/sss-lab/blocksptrsv/internal/gen"
	"github.com/sss-lab/blocksptrsv/internal/kernels"
	"github.com/sss-lab/blocksptrsv/internal/levelset"
	"github.com/sss-lab/blocksptrsv/internal/sparse"
)

// BenchmarkTriModelTerms times the kernels the triangular cost model
// prices on three 20,000-row blocks: the layered blocks of
// kernels.BenchmarkTriKernels at 8 and 4096 levels (every level at least
// two wide) and a chain (20,000 levels of one component). Serial,
// level-set and cusparse-like run on the pool the default plan gets (a
// spin pool of DefaultDevices()[1].Workers, three on two Ps); sync-free
// runs on a spin pool of GOMAXPROCS workers, the only configuration in
// which it is a candidate. Each sub-benchmark reports its block's U =
// strict nnz + rows and N = strict nnz. The constants in model.go come
// from the medians at -cpu 2, where the model is consulted (at one P the
// default plan is serial). With t(kernel, block) the median ns/op and L
// the block's levels:
//
//	a_s                : t(serial, layered-8) / U
//	launch+c_level, a_g: solve t(level-set, layered-L) = L·(launch + c_level) + a_g·U/2 over L = 8, 4096
//	c_level            : (t(level-set, chain) - a_g·U/2) / L (one-wide levels run inline: no launches)
//	a_sf               : 2·(t(sync-free, layered-8) - launch) / N
//	c_handoff          : (t(sync-free, chain) - launch - a_sf·N/2) / L
func BenchmarkTriModelTerms(b *testing.B) {
	pool := exec.NewSpinPool(exec.DefaultDevices()[1].Workers)
	defer pool.Close()
	sfPool := exec.NewSpinPool(0)
	defer sfPool.Close()
	for _, blk := range []struct {
		name string
		l    *sparse.CSR[float64]
	}{
		{"layered-8", gen.Layered(20000, 8, 4, 0, 99)},
		{"layered-4096", gen.Layered(20000, 4096, 4, 0, 99)},
		{"chain", gen.SerialChain(20000, 0, 99)},
	} {
		l := blk.l
		strict, diag, err := sparse.SplitDiagCSC(l.ToCSC())
		if err != nil {
			b.Fatal(err)
		}
		info := levelset.FromLowerCSR(l)
		strictCSR := strict.ToCSR()
		state := kernels.NewSyncFreeState(strict)
		sched := kernels.NewMergedSchedule(info, 0, pool.Workers())
		rhs := gen.RandVec(l.Rows, 7)
		w := make([]float64, l.Rows)
		x := make([]float64, l.Rows)
		units := float64(strict.NNZ() + l.Rows)
		run := func(name string, fn func()) {
			b.Run(name+"/"+blk.name, func(b *testing.B) {
				for i := 0; i < b.N; i++ {
					copy(w, rhs) // the serial kernel consumes w
					fn()
				}
				b.ReportMetric(units, "U")
				b.ReportMetric(float64(strict.NNZ()), "N")
			})
		}
		run("serial", func() { kernels.TriSerialSolve(strict, diag, w, x) })
		run("level-set", func() { kernels.TriLevelSetSolve(pool, strictCSR, diag, info, w, x, 1, nil) })
		run("cusparse-like", func() { kernels.TriCuSparseLikeSolve(pool, sched, strictCSR, diag, w, x, 1, nil) })
		run("sync-free", func() { kernels.TriSyncFreeSolve(sfPool, state, strict, strictCSR, diag, w, x, 1, nil) })
	}
}
