package main

import (
	"fmt"
	"math"

	"github.com/sss-lab/blocksptrsv/internal/gen"
	"github.com/sss-lab/blocksptrsv/internal/sparse"
)

// suiteScale is the scale of the repository's suite corpus
// (internal/bench.DefaultSuiteConfig); the classes below are that corpus
// with the seeds taken from the workload seed.
const suiteScale = 0.1

// class is one generated lower-triangular input.
type class struct {
	name string
	l    *sparse.CSR[float64]
}

// classNames lists the suite's structural classes in suite order; the
// per-class metric names use them.
var classNames = []string{"banded", "grid5", "bipartite", "layered", "powerlaw", "rmat", "chain", "ilu0"}

// suiteClasses builds the eight suite classes. Class i uses seed+i, so
// the default seed 4101 reproduces the suite's matrices exactly. The ilu0
// class is the ILU(0) factor of the unseeded model Laplacian, as in the
// suite, so it is the same matrix for every seed.
func suiteClasses(seed int64) ([]class, error) {
	sc := func(n int) int {
		s := int(float64(n) * suiteScale)
		if s < 16 {
			s = 16
		}
		return s
	}
	side := func(base float64) int {
		s := int(base * math.Sqrt(suiteScale))
		if s < 8 {
			s = 8
		}
		return s
	}
	rmatScale := 16 + int(math.Round(math.Log2(suiteScale)))
	g := side(300)
	out := []class{
		{"banded", gen.Banded(sc(120_000), 32, 0.25, seed)},
		{"grid5", gen.GridLaplacian5(g, g, seed+1)},
		{"bipartite", gen.BipartiteBlock(sc(150_000), 16, seed+2)},
		{"layered", gen.Layered(sc(100_000), 512, 6, 0, seed+3)},
		{"powerlaw", gen.PowerLaw(sc(80_000), 4, 0.01, seed+4)},
		{"rmat", gen.RMAT(rmatScale, 2, seed+5)},
		{"chain", gen.SerialChain(sc(60_000), 0.3, seed+6)},
	}
	s := side(200)
	l, _, err := gen.ILU0(gen.SPDGridMatrix(s, s))
	if err != nil {
		return nil, fmt.Errorf("ilu0 class: %w", err)
	}
	return append(out, class{"ilu0", l}), nil
}

// daemonGridSide is the daemon smoke's matrix: the 5-point grid on
// 100×100 points, 10,000 rows, generated with the smoke's seed.
const daemonGridSide = 100

func daemonMatrix() *sparse.CSR[float64] {
	return gen.GridLaplacian5(daemonGridSide, daemonGridSide, 1)
}

// rhs returns k deterministic right-hand sides of length n.
func rhs(n, k int, seed int64) [][]float64 {
	out := make([][]float64, k)
	for i := range out {
		out[i] = gen.RandVec(n, seed*7919+int64(i))
	}
	return out
}

// scaleOffDiagonal writes into dst, which has l's structure, l's values
// with every off-diagonal one multiplied by f and the diagonal kept: a
// numeric refactorization on a fixed sparsity pattern.
func scaleOffDiagonal(dst, l *sparse.CSR[float64], f float64) {
	for i := 0; i < l.Rows; i++ {
		for k := l.RowPtr[i]; k < l.RowPtr[i+1]; k++ {
			if l.ColIdx[k] == i {
				dst.Val[k] = l.Val[k]
			} else {
				dst.Val[k] = l.Val[k] * f
			}
		}
	}
}

// cloneCSR copies l so its values can be rewritten without touching l.
func cloneCSR(l *sparse.CSR[float64]) *sparse.CSR[float64] {
	c := *l
	c.RowPtr = append([]int(nil), l.RowPtr...)
	c.ColIdx = append([]int(nil), l.ColIdx...)
	c.Val = append([]float64(nil), l.Val...)
	return &c
}
