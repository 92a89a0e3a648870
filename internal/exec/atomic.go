package exec

import (
	"math"
	"runtime"
	"sync/atomic"
	"unsafe"

	"github.com/sss-lab/blocksptrsv/internal/sparse"
)

// AtomicMaxFloat atomically raises *p to v if v is larger, with a
// compare-and-swap loop on the float's bit pattern. The pointer must be
// naturally aligned, which Go guarantees for float32/float64 variables
// and slice elements. Jacobi sweeps use it to fold per-chunk maxima.
//
//sptrsv:hotpath
func AtomicMaxFloat[T sparse.Float](p *T, v T) {
	if unsafe.Sizeof(*p) == 8 {
		ap := (*uint64)(unsafe.Pointer(p))
		for {
			old := atomic.LoadUint64(ap)
			if float64(v) <= math.Float64frombits(old) {
				return
			}
			if atomic.CompareAndSwapUint64(ap, old, math.Float64bits(float64(v))) {
				return
			}
		}
	}
	ap := (*uint32)(unsafe.Pointer(p))
	for {
		old := atomic.LoadUint32(ap)
		if float32(v) <= math.Float32frombits(old) {
			return
		}
		if atomic.CompareAndSwapUint32(ap, old, math.Float32bits(float32(v))) {
			return
		}
	}
}

// PaddedInt32 is an atomic.Int32 padded out to a 64-byte cache line.
// Dependency counters that distinct workers decrement concurrently (the
// sync-free in-degrees, the gather-form ready flags) are stored as one
// PaddedInt32 each so that a decrement on one counter does not bounce the
// cache line holding its neighbours between cores — with bare Int32s,
// sixteen unrelated counters share a line and every atomic op invalidates
// all of them.
type PaddedInt32 struct {
	V atomic.Int32
	_ [60]byte
}

// SpinUntilNonZero busy-waits until the flag becomes non-zero, the
// analogue of a gather-form sync-free warp spinning on a dependency's
// ready flag. The dominant case — dependencies that already resolved —
// is one atomic load that inlines into the kernel inner loop (the whole
// spin loop costs 89 against the compiler's budget of 80, so the wait is
// outlined into the slow variant, which spins a short burst and then
// yields to the scheduler so that on small pools the goroutine holding
// the dependency can run).
//
//sptrsv:hotpath
func SpinUntilNonZero(c *atomic.Int32) {
	if c.Load() != 0 {
		return
	}
	spinUntilNonZeroSlow(c)
}

//sptrsv:hotpath
func spinUntilNonZeroSlow(c *atomic.Int32) {
	for spins := 0; ; spins++ {
		if c.Load() != 0 {
			return
		}
		if spins&63 == 63 {
			runtime.Gosched()
		}
	}
}
