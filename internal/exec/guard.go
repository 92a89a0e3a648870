package exec

import (
	"runtime"
	"sync"
	"sync/atomic"
)

// panicBox captures the first panic raised by any worker of a launch so
// the launcher can re-raise it on its own goroutine after the completion
// barrier. Every Launcher implementation owns one (per pool or per job);
// capturing instead of crashing is what keeps resident workers reusable
// after a panicking kernel body.
type panicBox struct {
	first atomic.Pointer[workerPanic]
}

type workerPanic struct {
	val any
}

// Recover is installed with defer around a worker's body: it swallows a
// panic and records the first one. Later panics of the same launch are
// dropped — one representative failure is enough to diagnose, and the
// barrier bookkeeping after the body must run either way.
//
//sptrsv:hotpath
func (b *panicBox) Recover() {
	if r := recover(); r != nil {
		b.first.CompareAndSwap(nil, &workerPanic{val: r})
	}
}

// Repanic re-raises the captured panic value, if any, on the calling
// goroutine and clears the box for the next launch.
//
//sptrsv:hotpath
func (b *panicBox) Repanic() {
	if wp := b.first.Swap(nil); wp != nil {
		panic(wp.val)
	}
}

// Guard is the shared poison flag of the guarded solve path. It is
// threaded through busy-wait spin loops and checked at kernel barriers so
// a cancelled or stalled solve unwinds instead of hanging; the progress
// counter feeds the stall watchdog and the stall fields carry the
// diagnostic (which component was being waited on, and its dependency
// count) back to the caller.
//
// Trip is first-wins: the first cause sticks, later trips are ignored.
// Polling a tripped guard costs one atomic bool load — the only overhead
// the guarded spin loops add per iteration.
//
// A nil *Guard is a guard that never trips: Tripped reports false, Step
// and ReportStall do nothing and Trip returns false. Solves that ask for
// no guarantees pass nil and pay one nil check per poll.
type Guard struct {
	tripped atomic.Bool
	mu      sync.Mutex
	cause   error

	progress atomic.Int64

	stallRow atomic.Int64 // smallest component observed mid-busy-wait; -1 = none
	stallDeg atomic.Int32
}

// NewGuard returns a fresh, untripped guard.
func NewGuard() *Guard {
	g := &Guard{}
	g.stallRow.Store(-1)
	return g
}

// Trip poisons the guard with a cause. Only the first call wins; it
// reports whether this call was the one that tripped the guard.
func (g *Guard) Trip(cause error) bool {
	if g == nil {
		return false
	}
	g.mu.Lock()
	defer g.mu.Unlock()
	if g.tripped.Load() {
		return false
	}
	g.cause = cause
	g.tripped.Store(true)
	mGuardTrips.Inc()
	return true
}

// Tripped reports whether the guard has been poisoned.
//
//sptrsv:hotpath
func (g *Guard) Tripped() bool { return g != nil && g.tripped.Load() }

// Cause returns the error the guard was tripped with, or nil.
func (g *Guard) Cause() error {
	g.mu.Lock()
	defer g.mu.Unlock()
	return g.cause
}

// Step records one completed work item (a solved component, a finished
// level, a block). The stall watchdog aborts a solve whose step counter
// stops moving.
//
//sptrsv:hotpath
func (g *Guard) Step() {
	if g != nil {
		g.progress.Add(1)
	}
}

// Progress returns the number of work items completed so far.
func (g *Guard) Progress() int64 { return g.progress.Load() }

// ReportStall records the component a worker was busy-waiting on when the
// guard tripped. The smallest such component wins — with ascending claim
// order it is the true head of the stalled dependency chain.
//
//sptrsv:hotpath
func (g *Guard) ReportStall(row int, indeg int32) {
	if g == nil {
		return
	}
	for {
		cur := g.stallRow.Load()
		if cur >= 0 && cur <= int64(row) {
			return
		}
		if g.stallRow.CompareAndSwap(cur, int64(row)) {
			g.stallDeg.Store(indeg)
			return
		}
	}
}

// Stall returns the recorded stall diagnostic; ok is false when no worker
// was mid-busy-wait at abort time.
func (g *Guard) Stall() (row int, indeg int32, ok bool) {
	r := g.stallRow.Load()
	if r < 0 {
		return 0, 0, false
	}
	return int(r), g.stallDeg.Load(), true
}

// SpinUntilZeroGuarded busy-waits until the counter reaches zero while
// polling the guard, returning false the moment it trips. The extra guard
// load per iteration is the entire per-iteration cost of the guarded
// solve path's spin loops. Like SpinUntilNonZero, the already-resolved
// fast path is one atomic load that inlines into the kernel; the wait
// loop is outlined. A nil guard never trips, so it waits unconditionally.
//
//sptrsv:hotpath
func SpinUntilZeroGuarded(c *atomic.Int32, g *Guard) bool {
	if c.Load() == 0 {
		return true
	}
	return spinUntilZeroGuardedSlow(c, g)
}

//sptrsv:hotpath
func spinUntilZeroGuardedSlow(c *atomic.Int32, g *Guard) bool {
	for spins := 0; ; spins++ {
		if c.Load() == 0 {
			return true
		}
		if g.Tripped() {
			return false
		}
		if spins&63 == 63 {
			runtime.Gosched()
		}
	}
}
