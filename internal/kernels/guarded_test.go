package kernels

import (
	"errors"
	"math"
	"testing"
	"time"

	"github.com/sss-lab/blocksptrsv/internal/exec"
	"github.com/sss-lab/blocksptrsv/internal/levelset"
	"github.com/sss-lab/blocksptrsv/internal/sparse"
)

// chainStrict builds the strictly-lower part of a bidiagonal chain:
// component j depends on j-1 with weight 0.5, diag all 2. The serial
// dependency chain is the worst case for the guarded busy-waits.
func chainStrict(n int) (*sparse.CSC[float64], []float64) {
	colPtr := make([]int, n+1)
	rowIdx := make([]int, 0, n-1)
	val := make([]float64, 0, n-1)
	for j := 0; j < n; j++ {
		if j+1 < n {
			rowIdx = append(rowIdx, j+1)
			val = append(val, 0.5)
		}
		colPtr[j+1] = len(val)
	}
	diag := make([]float64, n)
	for i := range diag {
		diag[i] = 2
	}
	return &sparse.CSC[float64]{Rows: n, Cols: n, ColPtr: colPtr, RowIdx: rowIdx, Val: val}, diag
}

// guardedKs are the right-hand-side counts the guarded tests run at: the
// single-vector row solve and the batch one share every guard poll.
var guardedKs = []int{1, 3}

func TestGuardedKernelsMatchSerial(t *testing.T) {
	n := 300
	strict, diag := chainStrict(n)
	info := levelset.FromLowerCSC(strict)
	strictCSR := strict.ToCSR()
	p := exec.NewSpinPool(4)
	defer p.Close()
	sched := NewMergedSchedule(info, 0, p.Workers())
	state := NewSyncFreeState(strict)

	for _, k := range guardedKs {
		b := make([]float64, n*k)
		for i := range b {
			b[i] = float64(i%7) + 1
		}
		want := make([]float64, n*k)
		w := append([]float64(nil), b...)
		TriSerialSolveBatch(strict, diag, w, want, k)

		check := func(name string, got []float64, ok bool) {
			t.Helper()
			if !ok {
				t.Fatalf("%s k=%d: guard tripped on a clean solve", name, k)
			}
			for i := range got {
				if math.Abs(got[i]-want[i]) > 1e-12*(1+math.Abs(want[i])) {
					t.Fatalf("%s k=%d: x[%d]=%g want %g", name, k, i, got[i], want[i])
				}
			}
		}

		x := make([]float64, n*k)
		copy(w, b)
		check("level-set", x, TriLevelSetSolve(p, strictCSR, diag, info, w, x, k, exec.NewGuard()))
		copy(w, b)
		check("sync-free", x, TriSyncFreeSolve(p, state, strict, strictCSR, diag, w, x, k, exec.NewGuard()))
		copy(w, b)
		check("cusparse-like", x, TriCuSparseLikeSolve(p, sched, strictCSR, diag, w, x, k, exec.NewGuard()))
	}
}

// A worker that panics mid-chain would classically deadlock the sync-free
// kernel: its dependents' in-degrees never drain and every other worker
// spins forever. The guarded kernel must instead trip the guard, release
// the spinners, and re-raise the panic on the caller.
func TestSyncFreeGuardedPanicReleasesSpinners(t *testing.T) {
	n := 300
	strict, diag := chainStrict(n)
	p := exec.NewSpinPool(4)
	defer p.Close()
	state := NewSyncFreeState(strict)
	for _, k := range guardedKs {
		w := make([]float64, n*k)
		for i := range w {
			w[i] = 1
		}
		x := make([]float64, n/2*k) // component n/2 panics with an index error
		g := exec.NewGuard()

		done := make(chan any, 1)
		go func() {
			var r any
			func() {
				defer func() { r = recover() }()
				TriSyncFreeSolve(p, state, strict, strict.ToCSR(), diag, w, x, k, g)
			}()
			done <- r
		}()
		select {
		case r := <-done:
			if r == nil {
				t.Fatalf("k=%d: expected the out-of-range panic to propagate", k)
			}
		case <-time.After(30 * time.Second):
			t.Fatalf("k=%d: guarded sync-free solve deadlocked after a worker panic", k)
		}
		if !g.Tripped() {
			t.Fatalf("k=%d: panicking worker did not trip the guard", k)
		}

		// The pool survives for an untruncated retry.
		x = make([]float64, n*k)
		if !TriSyncFreeSolve(p, state, strict, strict.ToCSR(), diag, w, x, k, exec.NewGuard()) {
			t.Fatalf("k=%d: retry after panic tripped", k)
		}
	}
}

// An externally tripped guard (cancellation, watchdog) releases spinning
// workers and reports the head of the stalled dependency chain.
func TestSyncFreeGuardedStallDiagnostics(t *testing.T) {
	n := 200
	strict, diag := chainStrict(n)
	state := NewSyncFreeState(strict)
	state.base[40]++ // phantom dependency: 40 and everything after stalls
	p := exec.NewSpinPool(4)
	defer p.Close()
	for _, k := range guardedKs {
		w := make([]float64, n*k)
		x := make([]float64, n*k)
		g := exec.NewGuard()
		cause := errors.New("chaos: external cancel")
		go func() {
			time.Sleep(30 * time.Millisecond)
			g.Trip(cause)
		}()
		if TriSyncFreeSolve(p, state, strict, strict.ToCSR(), diag, w, x, k, g) {
			t.Fatalf("k=%d: stalled solve reported success", k)
		}
		if !errors.Is(g.Cause(), cause) {
			t.Fatalf("k=%d: cause: %v", k, g.Cause())
		}
		row, indeg, ok := g.Stall()
		if !ok || row != 40 || indeg <= 0 {
			t.Fatalf("k=%d: stall diagnostic row=%d indeg=%d ok=%v, want row 40 with positive in-degree", k, row, indeg, ok)
		}
	}
}

// A pre-tripped guard aborts every guarded kernel before it launches.
func TestGuardedKernelsHonourPreTrippedGuard(t *testing.T) {
	n := 50
	strict, diag := chainStrict(n)
	info := levelset.FromLowerCSC(strict)
	p := exec.NewSpinPool(2)
	defer p.Close()
	g := exec.NewGuard()
	g.Trip(errors.New("already cancelled"))
	for _, k := range guardedKs {
		w := make([]float64, n*k)
		x := make([]float64, n*k)
		if TriLevelSetSolve(p, strict.ToCSR(), diag, info, w, x, k, g) {
			t.Fatalf("k=%d: level-set ran under a tripped guard", k)
		}
		if TriSyncFreeSolve(p, NewSyncFreeState(strict), strict, strict.ToCSR(), diag, w, x, k, g) {
			t.Fatalf("k=%d: sync-free ran under a tripped guard", k)
		}
		if TriCuSparseLikeSolve(p, NewMergedSchedule(info, 0, 2), strict.ToCSR(), diag, w, x, k, g) {
			t.Fatalf("k=%d: cusparse-like ran under a tripped guard", k)
		}
	}
}
