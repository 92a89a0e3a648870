package block

import (
	"github.com/sss-lab/blocksptrsv/internal/gen"
	"github.com/sss-lab/blocksptrsv/internal/sparse"
)

// PreprocessAuto builds a small set of candidate solver configurations,
// times each on a few trial solves, and returns the fastest. The
// candidates bracket the design space the paper explores:
//
//  1. the configuration as given (normally: full recursion with level-set
//     reordering — the paper's improved recursive structure),
//  2. the same partition without reordering (reordering occasionally
//     costs more in permutation traffic than it recovers in locality),
//  3. a single un-split triangle ("depth 0"), which degenerates to the
//     best single kernel for the whole matrix and acts as a safety net —
//     with it, the block solver is never slower than the strongest
//     whole-matrix method, the property §4.2 reports ("almost never
//     slower than cuSPARSE and Sync-free").
//
// Trial count is max(2, CalibrateRepeats). The extra preprocessing cost is
// bounded by a small constant factor and amortises in the multi-rhs and
// iterative scenarios of Table 5 exactly like the base preprocessing.
//
// Preprocess routes here when Options.Auto is set. The options are
// normalised once, so every candidate runs on the same pool (a nil
// Options.Pool does not leave one resident pool per losing candidate
// behind), and each candidate is analysed with Auto cleared.
func PreprocessAuto[T sparse.Float](l *sparse.CSR[T], opts Options) (*Solver[T], error) {
	opts = opts.normalised()
	opts.Auto = false
	first, err := Preprocess(l, opts)
	if err != nil {
		return nil, err
	}
	var candidates []Options
	// The no-reorder variant only differs when the level-set order was not
	// already the identity (Preprocess records an identity order as a nil
	// permutation).
	if opts.Reorder && first.Perm() != nil {
		noReorder := opts
		noReorder.Reorder = false
		candidates = append(candidates, noReorder)
	}
	if first.NumTriBlocks() > 1 {
		single := opts
		single.Reorder = false
		single.MinBlockRows = l.Rows + 1
		single.MaxDepth = 0
		candidates = append(candidates, single)
	}

	trials := opts.CalibrateRepeats
	if trials < 2 {
		trials = 2
	}
	b := gen.RandVec(l.Rows, 97)
	rhs := make([]T, l.Rows)
	for i := range rhs {
		rhs[i] = T(b[i])
	}
	x := make([]T, l.Rows)

	best := first
	first.Solve(rhs, x) // warmup
	bestD := minTime(trials, func() { first.Solve(rhs, x) })
	for _, cand := range candidates {
		s, err := Preprocess(l, cand)
		if err != nil {
			return nil, err
		}
		s.Solve(rhs, x) // warmup
		d := minTime(trials, func() { s.Solve(rhs, x) })
		if d < bestD {
			best, bestD = s, d
		}
	}
	return best, nil
}
