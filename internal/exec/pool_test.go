package exec

import (
	"runtime"
	"sync/atomic"
	"testing"
)

func TestParallelForCoversRangeExactlyOnce(t *testing.T) {
	for _, workers := range []int{1, 2, 4, 9} {
		p := NewPool(workers)
		for _, n := range []int{0, 1, 7, 100, 1000} {
			for _, grain := range []int{0, 1, 3, 64, 5000} {
				hits := make([]atomic.Int32, n)
				p.ParallelFor(n, grain, func(lo, hi int) {
					if lo < 0 || hi > n || lo >= hi {
						t.Errorf("bad chunk [%d,%d) for n=%d", lo, hi, n)
					}
					for i := lo; i < hi; i++ {
						hits[i].Add(1)
					}
				})
				for i := range hits {
					if got := hits[i].Load(); got != 1 {
						t.Fatalf("workers=%d n=%d grain=%d: index %d hit %d times", workers, n, grain, i, got)
					}
				}
			}
		}
	}
}

func TestParallelForSum(t *testing.T) {
	p := NewPool(0)
	n := 100000
	var sum atomic.Int64
	p.ParallelFor(n, 0, func(lo, hi int) {
		var local int64
		for i := lo; i < hi; i++ {
			local += int64(i)
		}
		sum.Add(local)
	})
	want := int64(n) * int64(n-1) / 2
	if sum.Load() != want {
		t.Fatalf("sum: got %d want %d", sum.Load(), want)
	}
}

func TestRunLaunchesAllWorkers(t *testing.T) {
	p := NewPool(6)
	seen := make([]atomic.Int32, 6)
	p.Run(func(w int) { seen[w].Add(1) })
	for w := range seen {
		if seen[w].Load() != 1 {
			t.Fatalf("worker %d ran %d times", w, seen[w].Load())
		}
	}
}

func TestLaunchCounter(t *testing.T) {
	p := NewPool(2)
	p.ParallelFor(10, 0, func(lo, hi int) {})
	p.ParallelFor(0, 0, func(lo, hi int) {}) // empty launch does not count
	p.Run(func(int) {})
	if got := p.Launches(); got != 2 {
		t.Fatalf("launches: got %d want 2", got)
	}
	p.ResetLaunches()
	if p.Launches() != 0 {
		t.Fatal("ResetLaunches did not clear")
	}
}

func TestNewPoolDefaults(t *testing.T) {
	if got := NewPool(0).Workers(); got != runtime.GOMAXPROCS(0) {
		t.Fatalf("default workers: got %d want GOMAXPROCS", got)
	}
	if !NewPool(1).Sequential() {
		t.Fatal("1-worker pool should be sequential")
	}
	if NewPool(2).Sequential() {
		t.Fatal("2-worker pool should not be sequential")
	}
}

func TestSpinUntilNonZero(t *testing.T) {
	p := NewPool(2)
	var gate atomic.Int32
	var order atomic.Int32
	p.Run(func(w int) {
		if w == 0 {
			SpinUntilNonZero(&gate)
			if order.Load() != 1 {
				t.Error("spinner released before gate opened")
			}
		} else {
			order.Store(1)
			gate.Store(1)
		}
	})
}

func TestDeviceProfiles(t *testing.T) {
	devs := DefaultDevices()
	if devs[0].Workers < 2 || devs[1].Workers <= devs[0].Workers {
		t.Fatalf("device workers not ordered: %v", devs)
	}
	if ncpu := runtime.GOMAXPROCS(0); devs[1].Workers < ncpu {
		t.Fatalf("large device below GOMAXPROCS: %v (ncpu=%d)", devs, ncpu)
	}
	d := Device{Name: "x", Workers: 4, BlockFactor: 20}
	if d.MinBlockRows() != 80 {
		t.Fatalf("MinBlockRows: got %d want 80", d.MinBlockRows())
	}
	if (Device{Workers: 2}).MinBlockRows() != 2048 {
		t.Fatal("default BlockFactor should be 1024")
	}
	if d.Pool().Workers() != 4 {
		t.Fatal("Device.Pool worker count")
	}
	if d.String() == "" {
		t.Fatal("empty String")
	}
}
