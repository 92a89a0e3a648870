package exec

import (
	"fmt"
	"runtime"
	"sync/atomic"
	"testing"
)

// launcherCase names one Launcher implementation for the conformance table.
// Every behavioural guarantee the kernels rely on is asserted against both
// styles here, so a new launcher only has to be added to this list to
// inherit the full suite.
type launcherCase struct {
	style LaunchStyle
	make  func(workers int) Launcher
}

func launcherCases() []launcherCase {
	return []launcherCase{
		{LaunchSpawn, func(w int) Launcher { return NewPool(w) }},
		{LaunchSpin, func(w int) Launcher { return NewSpinPool(w) }},
	}
}

func TestLauncherCoversRangeExactlyOnce(t *testing.T) {
	for _, c := range launcherCases() {
		t.Run(c.style.String(), func(t *testing.T) {
			for _, workers := range []int{1, 2, 4, 9} {
				l := c.make(workers)
				for _, n := range []int{0, 1, 7, 100, 1000} {
					for _, grain := range []int{0, 1, 3, 64, 5000} {
						hits := make([]atomic.Int32, n)
						l.ParallelFor(n, grain, func(lo, hi int) {
							if lo < 0 || hi > n || lo >= hi {
								t.Errorf("bad chunk [%d,%d) for n=%d", lo, hi, n)
							}
							for i := lo; i < hi; i++ {
								hits[i].Add(1)
							}
						})
						for i := range hits {
							if got := hits[i].Load(); got != 1 {
								t.Fatalf("workers=%d n=%d grain=%d: index %d hit %d times",
									workers, n, grain, i, got)
							}
						}
					}
				}
				CloseLauncher(l)
			}
		})
	}
}

func TestLauncherRunLaunchesAllWorkers(t *testing.T) {
	for _, c := range launcherCases() {
		t.Run(c.style.String(), func(t *testing.T) {
			for _, workers := range []int{1, 2, 6} {
				l := c.make(workers)
				seen := make([]atomic.Int32, workers)
				l.Run(func(w int) { seen[w].Add(1) })
				for w := range seen {
					if seen[w].Load() != 1 {
						t.Fatalf("workers=%d: worker %d ran %d times", workers, w, seen[w].Load())
					}
				}
				CloseLauncher(l)
			}
		})
	}
}

func TestLauncherLaunchCounter(t *testing.T) {
	for _, c := range launcherCases() {
		t.Run(c.style.String(), func(t *testing.T) {
			l := c.make(2)
			defer CloseLauncher(l)
			l.ParallelFor(10, 0, func(lo, hi int) {})
			l.ParallelFor(0, 0, func(lo, hi int) {}) // empty launch does not count
			l.Run(func(int) {})
			if got := l.Launches(); got != 2 {
				t.Fatalf("launches: got %d want 2", got)
			}
			l.ResetLaunches()
			if l.Launches() != 0 {
				t.Fatal("ResetLaunches did not clear")
			}
		})
	}
}

// With one worker, every launcher must degenerate to calling the body
// inline on the launching goroutine. The plain (non-atomic) counter makes
// the race detector the referee: any off-goroutine execution is a race.
func TestLauncherOneWorkerRunsInline(t *testing.T) {
	for _, c := range launcherCases() {
		t.Run(c.style.String(), func(t *testing.T) {
			l := c.make(1)
			defer CloseLauncher(l)
			if s, ok := l.(interface{ Sequential() bool }); ok && !s.Sequential() {
				t.Fatal("1-worker launcher should report Sequential")
			}
			covered := 0
			l.ParallelFor(100, 7, func(lo, hi int) { covered += hi - lo })
			if covered != 100 {
				t.Fatalf("covered %d of 100", covered)
			}
			ran := false
			l.Run(func(w int) {
				if w != 0 {
					t.Errorf("worker id %d on 1-worker pool", w)
				}
				ran = true
			})
			if !ran {
				t.Fatal("Run body did not run")
			}
		})
	}
}

// When n < workers, no chunk may be empty and the range must still be
// covered exactly once with at most n chunks.
func TestLauncherFewerItemsThanWorkers(t *testing.T) {
	for _, c := range launcherCases() {
		t.Run(c.style.String(), func(t *testing.T) {
			l := c.make(8)
			defer CloseLauncher(l)
			var chunks, covered atomic.Int32
			l.ParallelFor(3, 1, func(lo, hi int) {
				chunks.Add(1)
				covered.Add(int32(hi - lo))
			})
			if covered.Load() != 3 {
				t.Fatalf("covered %d of 3", covered.Load())
			}
			if chunks.Load() > 3 {
				t.Fatalf("%d chunks for 3 items", chunks.Load())
			}
		})
	}
}

// Closeable launchers must panic on use after Close (catching a stranded
// solver early beats hanging on workers that no longer exist), and Close
// must be idempotent. The spawn-per-launch Pool has no Close; CloseLauncher
// treats it as a no-op and the launcher keeps working.
func TestLauncherUseAfterClose(t *testing.T) {
	for _, c := range launcherCases() {
		t.Run(c.style.String(), func(t *testing.T) {
			l := c.make(2)
			closeable := false
			if cl, ok := l.(interface{ Close() }); ok {
				closeable = true
				cl.Close()
			}
			CloseLauncher(l) // idempotent (and a no-op for Pool)
			if !closeable {
				l.ParallelFor(5, 1, func(lo, hi int) {}) // must still work
				return
			}
			defer func() {
				if recover() == nil {
					t.Fatal("expected panic on use-after-close")
				}
			}()
			l.ParallelFor(5, 1, func(lo, hi int) {})
		})
	}
}

// A panic in a ParallelFor body must re-raise on the launching goroutine
// with the original panic value, and the pool — resident workers included —
// must stay fully usable afterwards. Three rounds prove the barrier and
// epoch state are restored, not merely survived once.
func TestLauncherParallelForPanicPropagates(t *testing.T) {
	for _, c := range launcherCases() {
		t.Run(c.style.String(), func(t *testing.T) {
			for _, workers := range []int{1, 4} {
				l := c.make(workers)
				for round := 0; round < 3; round++ {
					got := capturePanic(func() {
						l.ParallelFor(100, 1, func(lo, hi int) {
							if lo <= 37 && 37 < hi {
								panic("kernel body boom")
							}
						})
					})
					if got != "kernel body boom" {
						t.Fatalf("workers=%d round %d: panic value %v", workers, round, got)
					}
					// Follow-up launch on the same pool must work: no
					// stranded workers, no corrupted barrier.
					var sum atomic.Int64
					l.ParallelFor(1000, 0, func(lo, hi int) {
						var local int64
						for i := lo; i < hi; i++ {
							local += int64(i)
						}
						sum.Add(local)
					})
					if want := int64(1000) * 999 / 2; sum.Load() != want {
						t.Fatalf("workers=%d round %d: follow-up sum %d want %d", workers, round, sum.Load(), want)
					}
				}
				CloseLauncher(l)
			}
		})
	}
}

// The Run (persistent-kernel) path must propagate panics from resident
// workers and from the launching goroutine's own share alike.
func TestLauncherRunPanicPropagates(t *testing.T) {
	for _, c := range launcherCases() {
		t.Run(c.style.String(), func(t *testing.T) {
			l := c.make(4)
			defer CloseLauncher(l)
			for _, victim := range []int{0, 1} { // launcher share, resident worker
				got := capturePanic(func() {
					l.Run(func(w int) {
						if w == victim {
							panic(fmt.Sprintf("worker %d boom", victim))
						}
					})
				})
				if got != fmt.Sprintf("worker %d boom", victim) {
					t.Fatalf("victim %d: panic value %v", victim, got)
				}
				var ran atomic.Int32
				l.Run(func(w int) { ran.Add(1) })
				if ran.Load() != 4 {
					t.Fatalf("victim %d: follow-up Run saw %d workers", victim, ran.Load())
				}
			}
		})
	}
}

// Concurrent panics: only one value propagates, none leak into later
// launches.
func TestLauncherPanicFirstWinsAndClears(t *testing.T) {
	for _, c := range launcherCases() {
		t.Run(c.style.String(), func(t *testing.T) {
			l := c.make(4)
			defer CloseLauncher(l)
			got := capturePanic(func() {
				l.Run(func(w int) { panic(w) })
			})
			if _, ok := got.(int); !ok {
				t.Fatalf("panic value %v (%T), want a worker id", got, got)
			}
			if again := capturePanic(func() { l.ParallelFor(16, 1, func(lo, hi int) {}) }); again != nil {
				t.Fatalf("stale panic leaked into clean launch: %v", again)
			}
		})
	}
}

func capturePanic(f func()) (r any) {
	defer func() { r = recover() }()
	f()
	return nil
}

// All launchers must agree on results (same reduction over the same range)
// so kernels can switch styles without renumbering anything.
func TestLaunchersAgree(t *testing.T) {
	n := 100000
	want := int64(n) * int64(n-1) / 2
	for _, c := range launcherCases() {
		t.Run(c.style.String(), func(t *testing.T) {
			l := c.make(4)
			defer CloseLauncher(l)
			var sum atomic.Int64
			l.ParallelFor(n, 0, func(lo, hi int) {
				var local int64
				for i := lo; i < hi; i++ {
					local += int64(i)
				}
				sum.Add(local)
			})
			if sum.Load() != want {
				t.Fatalf("sum: got %d want %d", sum.Load(), want)
			}
		})
	}
}

func TestNewLauncherStyles(t *testing.T) {
	for _, c := range launcherCases() {
		l := NewLauncher(c.style, 3)
		if l.Workers() != 3 {
			t.Fatalf("%v: workers %d", c.style, l.Workers())
		}
		want := fmt.Sprintf("%T", c.make(1))
		if got := fmt.Sprintf("%T", l); got != want {
			t.Fatalf("NewLauncher(%v) = %s, want %s", c.style, got, want)
		}
		CloseLauncher(l)
	}
}

func TestParseLaunchStyle(t *testing.T) {
	for _, s := range []string{"spin", "spawn", ""} {
		st, err := ParseLaunchStyle(s)
		if err != nil {
			t.Fatalf("ParseLaunchStyle(%q): %v", s, err)
		}
		if s != "" && st.String() != s {
			t.Fatalf("round-trip %q -> %v", s, st)
		}
	}
	for _, s := range []string{"cuda", "channel"} {
		if _, err := ParseLaunchStyle(s); err == nil {
			t.Fatalf("expected error for unknown style %q", s)
		}
	}
}

func TestMeasureLaunchCost(t *testing.T) {
	for _, c := range launcherCases() {
		l := c.make(2)
		if cost := MeasureLaunchCost(l, 8); cost <= 0 {
			t.Fatalf("%v: non-positive launch cost %v", c.style, cost)
		}
		CloseLauncher(l)
	}
}

// BenchmarkLaunchOverhead measures the per-launch latency of an empty
// 64-chunk ParallelFor, per style, at GOMAXPROCS and at a fixed 4 workers
// (on small machines GOMAXPROCS-wide pools inline and measure nothing).
func BenchmarkLaunchOverhead(b *testing.B) {
	counts := []int{runtime.GOMAXPROCS(0)}
	if counts[0] != 4 {
		counts = append(counts, 4)
	}
	for _, workers := range counts {
		for _, c := range launcherCases() {
			b.Run(fmt.Sprintf("%s/workers=%d", c.style, workers), func(b *testing.B) {
				l := c.make(workers)
				defer CloseLauncher(l)
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					l.ParallelFor(64, 1, func(lo, hi int) {})
				}
			})
		}
	}
}
