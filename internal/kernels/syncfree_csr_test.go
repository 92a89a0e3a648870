package kernels

import (
	"math"
	"math/rand"
	"testing"

	"github.com/sss-lab/blocksptrsv/internal/exec"
)

func TestSyncFreeCSRMatchesSerial(t *testing.T) {
	rng := rand.New(rand.NewSource(230))
	for _, workers := range []int{1, 2, 6} {
		p := exec.NewPool(workers)
		for trial := 0; trial < 6; trial++ {
			n := 1 + rng.Intn(300)
			l := randLower(rng, n, 0.1)
			b := randVec(rng, n)
			want := make([]float64, n)
			ref, err := NewSerialSolver(l)
			if err != nil {
				t.Fatal(err)
			}
			ref.Solve(b, want)

			s, err := NewSyncFreeCSRSolver(p, l)
			if err != nil {
				t.Fatal(err)
			}
			x := make([]float64, n)
			s.Solve(b, x)
			s.Solve(b, x) // flags must re-arm between solves
			for i := range x {
				if math.Abs(x[i]-want[i]) > 1e-10*(1+math.Abs(want[i])) {
					t.Fatalf("workers=%d n=%d x[%d]=%g want %g", workers, n, i, x[i], want[i])
				}
			}
		}
	}
}

func TestSyncFreeCSRSerialChainNoDeadlock(t *testing.T) {
	for _, workers := range []int{1, 2, 3} {
		p := exec.NewPool(workers)
		l := chainLower(800)
		s, err := NewSyncFreeCSRSolver(p, l)
		if err != nil {
			t.Fatal(err)
		}
		b := make([]float64, 800)
		for i := range b {
			b[i] = 1
		}
		x := make([]float64, 800)
		s.Solve(b, x)
		if r := residual(l, x, b); r > 1e-10 {
			t.Fatalf("workers=%d residual %g", workers, r)
		}
	}
}

func TestSyncFreeCSRSpinPool(t *testing.T) {
	p := exec.NewSpinPool(3)
	defer p.Close()
	rng := rand.New(rand.NewSource(231))
	l := randLower(rng, 400, 0.08)
	s, err := NewSyncFreeCSRSolver(p, l)
	if err != nil {
		t.Fatal(err)
	}
	b := randVec(rng, 400)
	x := make([]float64, 400)
	s.Solve(b, x)
	if r := residual(l, x, b); r > 1e-10 {
		t.Fatalf("residual %g", r)
	}
	if s.Rows() != 400 || s.Name() != "sync-free-csr" {
		t.Fatal("metadata")
	}
}

func TestSyncFreeCSREmpty(t *testing.T) {
	p := exec.NewPool(2)
	s, err := NewSyncFreeCSRSolver(p, chainLower(0))
	if err != nil {
		t.Fatal(err)
	}
	s.Solve(nil, nil)
}
