package exec

import "testing"

// BenchmarkSpinResolvedFastPath measures the spin helpers on counters
// whose dependency already resolved — the dominant case in a sync-free
// solve, where most rows are ready by the time a worker reaches them.
// This is exactly the path the inlcheck gate keeps inlined: the fast
// path is one atomic load, and outlining it behind a call (the shape
// before the fast/slow split) puts a call frame on every nonzero of the
// sync-free inner loop. Striding across 1024 padded counters keeps the
// measurement off a single hot cache line.
func BenchmarkSpinResolvedFastPath(b *testing.B) {
	counters := make([]PaddedInt32, 1024)
	b.Run("until-zero", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			SpinUntilZeroGuarded(&counters[i&1023].V, nil)
		}
	})

	flags := make([]PaddedInt32, 1024)
	for i := range flags {
		flags[i].V.Store(1)
	}
	b.Run("until-nonzero", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			SpinUntilNonZero(&flags[i&1023].V)
		}
	})

	g := NewGuard()
	b.Run("until-zero-guarded", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			SpinUntilZeroGuarded(&counters[i&1023].V, g)
		}
	})
}
