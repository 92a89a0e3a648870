package kernels

import (
	"fmt"
	"math"
	"math/rand"
	"testing"

	"github.com/sss-lab/blocksptrsv/internal/exec"
	"github.com/sss-lab/blocksptrsv/internal/levelset"
	"github.com/sss-lab/blocksptrsv/internal/sparse"
)

// The numerical contract of the parallel kernels (DESIGN.md §6.5): no
// float is accumulated with an atomic add, so a kernel's output is a fixed
// function of its inputs. The tests below compare with ==, never with a
// tolerance, across launcher styles, worker counts and repeated runs.

// launchers returns every launcher style at several worker counts; the
// caller closes them with closeAll.
func launchers(workers ...int) []exec.Launcher {
	var out []exec.Launcher
	for _, w := range workers {
		for _, style := range []exec.LaunchStyle{exec.LaunchSpin, exec.LaunchSpawn} {
			out = append(out, exec.NewLauncher(style, w))
		}
	}
	return out
}

func closeAll(ls []exec.Launcher) {
	for _, l := range ls {
		exec.CloseLauncher(l)
	}
}

func sameBits(t *testing.T, what string, got, want []float64) {
	t.Helper()
	for i := range want {
		if math.Float64bits(got[i]) != math.Float64bits(want[i]) {
			t.Fatalf("%s: x[%d] = %v, want %v bit for bit", what, i, got[i], want[i])
		}
	}
}

// TestGatherTriKernelsAgreeBitwise: level-set, sync-free and
// cuSPARSE-like each solve a component with the same gather as
// SerialSolveCSR, so on a whole matrix all three reproduce it exactly,
// on every launcher, at every worker count, on every run.
func TestGatherTriKernelsAgreeBitwise(t *testing.T) {
	rng := rand.New(rand.NewSource(610))
	ls := launchers(1, 2, 3, 8)
	defer closeAll(ls)
	for trial := 0; trial < 4; trial++ {
		n := 200 + rng.Intn(300)
		l := randLower(rng, n, 0.05+0.1*rng.Float64())
		if trial == 3 {
			l = chainLower(n)
		}
		b := randVec(rng, n)
		want := make([]float64, n)
		SerialSolveCSR(l, b, want)

		strictCSR, diag, err := splitLowerCSR(l)
		if err != nil {
			t.Fatal(err)
		}
		strict := strictCSR.ToCSC()
		info := levelset.FromLowerCSR(l)
		state := NewSyncFreeState(strict)
		w := append([]float64(nil), b...)
		x := make([]float64, n)
		for _, p := range ls {
			sched := NewMergedSchedule(info, 0, p.Workers())
			for rep := 0; rep < 3; rep++ {
				tag := fmt.Sprintf("trial %d %T/%d rep %d", trial, p, p.Workers(), rep)
				TriLevelSetSolve(p, strictCSR, diag, info, w, x, 1, nil)
				sameBits(t, "level-set "+tag, x, want)
				TriSyncFreeSolve(p, state, strict, strictCSR, diag, w, x, 1, nil)
				sameBits(t, "sync-free "+tag, x, want)
				TriCuSparseLikeSolve(p, sched, strictCSR, diag, w, x, 1, nil)
				sameBits(t, "cusparse-like "+tag, x, want)
			}
		}
		sameBits(t, "w", w, b) // the gather kernels only read w
	}
}

// TestGatherTriBatchKernelsMatchSerialBatchBitwise: the batch gather takes
// each column's sum in ascending column order, the update order of
// TriSerialSolveBatch, so the three gather kernels reproduce it exactly at
// every k > 1.
func TestGatherTriBatchKernelsMatchSerialBatchBitwise(t *testing.T) {
	rng := rand.New(rand.NewSource(611))
	ls := launchers(1, 3, 8)
	defer closeAll(ls)
	for trial := 0; trial < 3; trial++ {
		n := 100 + rng.Intn(200)
		k := 2 + rng.Intn(5)
		l := randLower(rng, n, 0.1)
		strict, diag, err := sparse.SplitDiagCSC(l.ToCSC())
		if err != nil {
			t.Fatal(err)
		}
		strictCSR := strict.ToCSR()
		info := levelset.FromLowerCSR(l)
		b := randBatch(rng, n, k)
		want := make([]float64, n*k)
		TriSerialSolveBatch(strict, diag, append([]float64(nil), b...), want, k)

		state := NewSyncFreeState(strict)
		x := make([]float64, n*k)
		for _, p := range ls {
			sched := NewMergedSchedule(info, 0, p.Workers())
			for rep := 0; rep < 2; rep++ {
				tag := fmt.Sprintf("trial %d k=%d %T/%d rep %d", trial, k, p, p.Workers(), rep)
				TriLevelSetSolve(p, strictCSR, diag, info, b, x, k, nil)
				sameBits(t, "level-set batch "+tag, x, want)
				TriSyncFreeSolve(p, state, strict, strictCSR, diag, b, x, k, nil)
				sameBits(t, "sync-free batch "+tag, x, want)
				TriCuSparseLikeSolve(p, sched, strictCSR, diag, b, x, k, nil)
				sameBits(t, "cusparse-like batch "+tag, x, want)
			}
		}
	}
}

// TestVectorSpMVReproducible: the vector kernels split a row's nonzeros
// at segment boundaries fixed by nnz and the worker count, so for a given
// worker count every launcher style and every run gives the same bits —
// including the power-law rows that span many segments.
func TestVectorSpMVReproducible(t *testing.T) {
	rng := rand.New(rand.NewSource(612))
	const rows, cols, k = 300, 400, 3
	a := powerLawRect(rng, rows, cols)
	d := a.ToDCSR()
	x := randVec(rng, cols)
	xb := randBatch(rng, cols, k)
	w0 := randVec(rng, rows)
	wb0 := randBatch(rng, rows, k)
	for _, workers := range []int{1, 2, 3, 8} {
		ls := launchers(workers)
		var ref [4][]float64
		for li, p := range ls {
			for rep := 0; rep < 3; rep++ {
				outs := [4][]float64{
					append([]float64(nil), w0...), append([]float64(nil), w0...),
					append([]float64(nil), wb0...), append([]float64(nil), wb0...),
				}
				SpMVVectorCSRSub(p, a, x, outs[0])
				SpMVVectorDCSRSub(p, d, x, outs[1])
				SpMVVectorCSRSubBatch(p, a, xb, outs[2], k)
				SpMVVectorDCSRSubBatch(p, d, xb, outs[3], k)
				if li == 0 && rep == 0 {
					ref = outs
					continue
				}
				for o, name := range []string{"vector-csr", "vector-dcsr", "vector-csr batch", "vector-dcsr batch"} {
					sameBits(t, fmt.Sprintf("%s workers=%d %T rep %d", name, workers, p, rep), outs[o], ref[o])
				}
			}
		}
		closeAll(ls)
	}
}
