// Package core composes the paper's contribution into a single entry
// point: a registry of every SpTRSV algorithm in the library — the three
// whole-matrix baselines (level-set, sync-free, cuSPARSE-like) and the
// three block algorithms (column, row, recursive) with the improved
// recursive configuration as the headline solver.
//
// The benchmark harness, the command-line tools and the public API all
// construct solvers through this registry so that every algorithm is
// preprocessed and measured identically.
package core

import (
	"fmt"
	"sort"

	"github.com/sss-lab/blocksptrsv/internal/block"
	"github.com/sss-lab/blocksptrsv/internal/exec"
	"github.com/sss-lab/blocksptrsv/internal/kernels"
	"github.com/sss-lab/blocksptrsv/internal/sparse"
)

// Solver is re-exported for callers that only import core.
type Solver[T sparse.Float] = kernels.Solver[T]

// Names of the algorithms in the registry.
const (
	Serial         = "serial"
	LevelSet       = "level-set"
	SyncFree       = "sync-free"
	SyncFreeCSR    = "sync-free-csr"
	CuSparseLike   = "cusparse-like"
	Jacobi         = "jacobi-iterative"
	BlockRecursive = "block-recursive"
	BlockColumn    = "block-column"
	BlockRow       = "block-row"
)

// AlgorithmNames lists every registered algorithm in a stable order.
func AlgorithmNames() []string {
	return []string{Serial, LevelSet, SyncFree, SyncFreeCSR, CuSparseLike, Jacobi, BlockColumn, BlockRow, BlockRecursive}
}

// Config carries the knobs an algorithm constructor may consume. The zero
// value is usable: it implies the device-derived defaults.
type Config struct {
	// Device provides the pool and the recursion cut-off; Pool overrides
	// the device pool when non-nil.
	Device exec.Device
	Pool   exec.Launcher
	// NSeg is the panel count for the column/row block algorithms;
	// <=0 defaults to 8 panels.
	NSeg int
	// Block tweaks the block algorithms beyond the defaults; nil keeps
	// paper defaults (reorder on, adaptive on). Kind/NSeg/Pool inside are
	// overridden by the registry entry being constructed.
	Block *block.Options
}

func (c Config) pool() exec.Launcher {
	if c.Pool != nil {
		return c.Pool
	}
	return c.Device.Pool()
}

func (c Config) blockOptions(kind block.Kind) block.Options {
	var o block.Options
	if c.Block != nil {
		o = *c.Block
	} else {
		o = block.Defaults(c.Device)
	}
	o.Kind = kind
	o.Pool = c.pool()
	if o.MinBlockRows <= 0 {
		o.MinBlockRows = c.Device.MinBlockRows()
	}
	if kind != block.Recursive {
		o.NSeg = c.NSeg
		if o.NSeg <= 0 {
			o.NSeg = 8
		}
	}
	return o
}

// New constructs and preprocesses the named algorithm for the lower
// triangular system L.
func New[T sparse.Float](name string, l *sparse.CSR[T], cfg Config) (Solver[T], error) {
	switch name {
	case Serial, LevelSet, SyncFree, SyncFreeCSR, CuSparseLike:
		return kernels.NewBaseline(name, cfg.pool(), l)
	case Jacobi:
		return kernels.NewJacobiSolver(cfg.pool(), l)
	case BlockRecursive:
		return block.Preprocess(l, cfg.blockOptions(block.Recursive))
	case BlockColumn:
		return block.Preprocess(l, cfg.blockOptions(block.ColumnBlock))
	case BlockRow:
		return block.Preprocess(l, cfg.blockOptions(block.RowBlock))
	}
	known := AlgorithmNames()
	sort.Strings(known)
	return nil, fmt.Errorf("core: unknown algorithm %q (known: %v)", name, known)
}
