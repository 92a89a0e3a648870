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

func TestGuardedKernelsMatchSerial(t *testing.T) {
	n := 300
	strict, diag := chainStrict(n)
	b := make([]float64, n)
	for i := range b {
		b[i] = float64(i%7) + 1
	}
	want := make([]float64, n)
	w := append([]float64(nil), b...)
	TriSerialSolve(strict, diag, w, want)

	info := levelset.FromLowerCSC(strict)
	strictCSR := strict.ToCSR()
	p := exec.NewSpinPool(4)
	defer p.Close()
	sched := NewMergedSchedule(info, 0, p.Workers())
	state := NewSyncFreeState(strict)

	check := func(name string, got []float64, ok bool) {
		t.Helper()
		if !ok {
			t.Fatalf("%s: guard tripped on a clean solve", name)
		}
		for i := range got {
			if math.Abs(got[i]-want[i]) > 1e-12*(1+math.Abs(want[i])) {
				t.Fatalf("%s: x[%d]=%g want %g", name, i, got[i], want[i])
			}
		}
	}

	x := make([]float64, n)
	copy(w, b)
	check("level-set", x, TriLevelSetSolve(p, strictCSR, diag, info, w, x, exec.NewGuard()))
	copy(w, b)
	check("sync-free", x, TriSyncFreeSolve(p, state, strict, strictCSR, diag, w, x, exec.NewGuard()))
	copy(w, b)
	check("cusparse-like", x, TriCuSparseLikeSolve(p, sched, strictCSR, diag, w, x, exec.NewGuard()))
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
	w := make([]float64, n)
	for i := range w {
		w[i] = 1
	}
	x := make([]float64, n/2) // component n/2 panics with an index error
	g := exec.NewGuard()

	done := make(chan any, 1)
	go func() {
		var r any
		func() {
			defer func() { r = recover() }()
			TriSyncFreeSolve(p, state, strict, strict.ToCSR(), diag, w, x, g)
		}()
		done <- r
	}()
	select {
	case r := <-done:
		if r == nil {
			t.Fatal("expected the out-of-range panic to propagate")
		}
	case <-time.After(30 * time.Second):
		t.Fatal("guarded sync-free solve deadlocked after a worker panic")
	}
	if !g.Tripped() {
		t.Fatal("panicking worker did not trip the guard")
	}

	// The pool survives for an untruncated retry.
	x = make([]float64, n)
	copy(w, make([]float64, n))
	for i := range w {
		w[i] = 1
	}
	if !TriSyncFreeSolve(p, state, strict, strict.ToCSR(), diag, w, x, exec.NewGuard()) {
		t.Fatal("retry after panic tripped")
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
	w := make([]float64, n)
	x := make([]float64, n)
	g := exec.NewGuard()
	cause := errors.New("chaos: external cancel")
	go func() {
		time.Sleep(30 * time.Millisecond)
		g.Trip(cause)
	}()
	if TriSyncFreeSolve(p, state, strict, strict.ToCSR(), diag, w, x, g) {
		t.Fatal("stalled solve reported success")
	}
	if !errors.Is(g.Cause(), cause) {
		t.Fatalf("cause: %v", g.Cause())
	}
	row, indeg, ok := g.Stall()
	if !ok || row != 40 || indeg <= 0 {
		t.Fatalf("stall diagnostic row=%d indeg=%d ok=%v, want row 40 with positive in-degree", row, indeg, ok)
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
	w := make([]float64, n)
	x := make([]float64, n)
	if TriLevelSetSolve(p, strict.ToCSR(), diag, info, w, x, g) {
		t.Fatal("level-set ran under a tripped guard")
	}
	if TriSyncFreeSolve(p, NewSyncFreeState(strict), strict, strict.ToCSR(), diag, w, x, g) {
		t.Fatal("sync-free ran under a tripped guard")
	}
	if TriCuSparseLikeSolve(p, NewMergedSchedule(info, 0, 2), strict.ToCSR(), diag, w, x, g) {
		t.Fatal("cusparse-like ran under a tripped guard")
	}
}
