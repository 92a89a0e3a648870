package metrics

import (
	"bytes"
	"errors"
	"strings"
	"sync"
	"testing"
	"time"
)

func ringState[T any](r *Ring[T]) (held int, total, dropped uint64) {
	return r.Len(), r.Total(), r.Dropped()
}

func TestRingFillsThenWraps(t *testing.T) {
	r := NewRing[int](4)
	if r.Cap() != 4 {
		t.Fatalf("Cap=%d want 4", r.Cap())
	}
	if vals, first := r.Last(4); len(vals) != 0 || first != 0 {
		t.Fatalf("empty ring: Last=%v first=%d", vals, first)
	}
	for i := 1; i <= 3; i++ {
		if seq := r.Push(10 * i); seq != uint64(i) {
			t.Fatalf("Push %d returned seq %d", i, seq)
		}
	}
	if held, total, dropped := ringState(r); held != 3 || total != 3 || dropped != 0 {
		t.Fatalf("partial: Len=%d Total=%d Dropped=%d", held, total, dropped)
	}
	if vals, first := r.Last(4); first != 0 || !equalInts(vals, 10, 20, 30) {
		t.Fatalf("partial: Last=%v first=%d", vals, first)
	}
	for i := 4; i <= 10; i++ {
		r.Push(10 * i)
	}
	if held, total, dropped := ringState(r); held != 4 || total != 10 || dropped != 6 {
		t.Fatalf("wrapped: Len=%d Total=%d Dropped=%d", held, total, dropped)
	}
	// Oldest-first across the wrap point, numbered by push index.
	vals, first := r.Last(4)
	if first != 6 || !equalInts(vals, 70, 80, 90, 100) {
		t.Fatalf("wrapped: Last=%v first=%d", vals, first)
	}
}

func TestRingLastBounds(t *testing.T) {
	r := NewRing[int](5)
	for i := 1; i <= 7; i++ {
		r.Push(i)
	}
	for _, c := range []struct {
		n     int
		first uint64
		want  []int
	}{
		{n: 2, first: 5, want: []int{6, 7}},
		{n: 5, first: 2, want: []int{3, 4, 5, 6, 7}},
		{n: 100, first: 2, want: []int{3, 4, 5, 6, 7}}, // beyond what is held
		{n: 0, first: 7, want: nil},
		{n: -1, first: 7, want: nil},
	} {
		vals, first := r.Last(c.n)
		if first != c.first || !equalInts(vals, c.want...) {
			t.Fatalf("Last(%d) = %v first=%d, want %v first=%d", c.n, vals, first, c.want, c.first)
		}
	}
	// Last hands out copies: writing to them leaves the ring intact.
	vals, _ := r.Last(1)
	vals[0] = -1
	if again, _ := r.Last(1); again[0] != 7 {
		t.Fatalf("Last aliases the ring: %v", again)
	}
}

func TestRingReset(t *testing.T) {
	r := NewRing[*int](3)
	v := 1
	for i := 0; i < 5; i++ {
		r.Push(&v)
	}
	r.Reset()
	if held, total, dropped := ringState(r); held != 0 || total != 0 || dropped != 0 {
		t.Fatalf("after Reset: Len=%d Total=%d Dropped=%d", held, total, dropped)
	}
	for _, p := range r.buf {
		if p != nil {
			t.Fatal("Reset kept a reference to a dropped value")
		}
	}
	if seq := r.Push(&v); seq != 1 || r.Cap() != 3 {
		t.Fatalf("after Reset: first push seq=%d Cap=%d", seq, r.Cap())
	}
}

func TestRingRejectsNonPositiveCapacity(t *testing.T) {
	for _, c := range []int{0, -3} {
		func() {
			defer func() {
				if recover() == nil {
					t.Fatalf("NewRing(%d) did not panic", c)
				}
			}()
			NewRing[int](c)
		}()
	}
}

// Push sits on the solve and request paths: it must never allocate, even
// for a value type carrying strings.
func TestRingPushAllocs(t *testing.T) {
	type rec struct {
		id   string
		at   time.Time
		seq  uint64
		cost time.Duration
	}
	r := NewRing[rec](8)
	v := rec{id: "req", at: time.Unix(1, 0), cost: time.Millisecond}
	if n := testing.AllocsPerRun(200, func() { r.Push(v) }); n != 0 {
		t.Fatalf("Push allocates %.1f times per call, want 0", n)
	}
}

func TestRingConcurrentPush(t *testing.T) {
	r := NewRing[int](64)
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 500; i++ {
				r.Push(i)
				r.Last(8)
			}
		}()
	}
	wg.Wait()
	if held, total, dropped := ringState(r); held != 64 || total != 2000 || dropped != 1936 {
		t.Fatalf("Len=%d Total=%d Dropped=%d", held, total, dropped)
	}
}

func equalInts(got []int, want ...int) bool {
	if len(got) != len(want) {
		return false
	}
	for i := range got {
		if got[i] != want[i] {
			return false
		}
	}
	return true
}

func TestEventWriter(t *testing.T) {
	var b bytes.Buffer
	ew := NewEventWriter(&b)
	ew.Complete("level-set", "tri", 3, 1500*time.Nanosecond, 2*time.Microsecond, `"rows":4`)
	ew.Complete(`a "q"`, "phase", 3, 0, 999, "")
	if err := ew.Close(); err != nil {
		t.Fatal(err)
	}
	want := `{"traceEvents":[` +
		`{"name":"level-set","cat":"tri","ph":"X","ts":1.500,"dur":2.000,"pid":1,"tid":3,"args":{"rows":4}},` +
		`{"name":"a \"q\"","cat":"phase","ph":"X","ts":0.000,"dur":0.999,"pid":1,"tid":3,"args":{}}` +
		`],"displayTimeUnit":"ns"}` + "\n"
	if b.String() != want {
		t.Fatalf("got\n%s\nwant\n%s", b.String(), want)
	}
}

// countingWriter records each Write call's length and fails from the
// failAt-th call on (never when failAt is 0).
type countingWriter struct {
	writes []int
	failAt int
}

func (c *countingWriter) Write(p []byte) (int, error) {
	c.writes = append(c.writes, len(p))
	if c.failAt > 0 && len(c.writes) >= c.failAt {
		return 0, errors.New("disk full")
	}
	return len(p), nil
}

// Large traces are written out in 64 KiB pieces, not held whole, and the
// first write error ends the output and surfaces from Close.
func TestEventWriterFlushesAndStopsOnError(t *testing.T) {
	args := `"pad":"` + strings.Repeat("x", 1000) + `"`
	var cw countingWriter
	ew := NewEventWriter(&cw)
	for i := 0; i < 200; i++ {
		ew.Complete("e", "c", 1, 0, 0, args)
	}
	if err := ew.Close(); err != nil {
		t.Fatal(err)
	}
	if len(cw.writes) < 3 {
		t.Fatalf("%d writes for ~200 KB of events, want the output flushed in pieces", len(cw.writes))
	}
	for _, n := range cw.writes {
		if n > traceEventFlush+2048 {
			t.Fatalf("one write of %d bytes, want at most about %d", n, traceEventFlush)
		}
	}

	failing := countingWriter{failAt: 1}
	ew = NewEventWriter(&failing)
	for i := 0; i < 200; i++ {
		ew.Complete("e", "c", 1, 0, 0, args)
	}
	if err := ew.Close(); err == nil || err.Error() != "disk full" {
		t.Fatalf("Close = %v, want the write error", err)
	}
	if len(failing.writes) != 1 {
		t.Fatalf("%d writes after the first failure, want none", len(failing.writes)-1)
	}
}
