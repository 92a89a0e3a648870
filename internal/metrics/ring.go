package metrics

import "sync"

// Ring is a bounded, concurrency-safe buffer of the most recent values
// pushed into it — the one recording mechanism behind the per-step solve
// traces, the daemon's request flight ring and its fault snapshots. All
// storage is allocated by NewRing; Push copies the value under a short
// mutex and never allocates. When the ring is full, each push overwrites
// the oldest value and Dropped counts what was lost.
type Ring[T any] struct {
	mu    sync.Mutex
	buf   []T
	total uint64 // values ever pushed; buf holds the last min(total, len(buf))
}

// NewRing returns an empty ring holding up to capacity values. It panics
// if capacity is not positive.
func NewRing[T any](capacity int) *Ring[T] {
	if capacity <= 0 {
		panic("metrics: ring capacity must be positive")
	}
	return &Ring[T]{buf: make([]T, capacity)}
}

// Push appends v, overwriting the oldest value when the ring is full, and
// returns the number of values ever pushed — v's 1-based sequence number.
//
//sptrsv:hotpath
func (r *Ring[T]) Push(v T) uint64 {
	r.mu.Lock()
	r.buf[r.total%uint64(len(r.buf))] = v
	r.total++
	n := r.total
	r.mu.Unlock()
	return n
}

// Cap reports how many values the ring can hold.
func (r *Ring[T]) Cap() int { return len(r.buf) }

// Len reports how many values the ring currently holds.
func (r *Ring[T]) Len() int {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.heldLocked()
}

// Total reports how many values were ever pushed, including those the
// ring has overwritten.
func (r *Ring[T]) Total() uint64 {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.total
}

// Dropped reports how many pushed values the ring has overwritten.
func (r *Ring[T]) Dropped() uint64 {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.total - uint64(r.heldLocked())
}

// Reset forgets every value and restarts the push count at zero; the
// capacity is kept.
func (r *Ring[T]) Reset() {
	r.mu.Lock()
	clear(r.buf)
	r.total = 0
	r.mu.Unlock()
}

// Last copies the n most recent values oldest-first (all held values when
// fewer are held). It also returns the 0-based push index of the first
// value copied, so value i was pushed as number first+i+1: callers derive
// sequence numbers at read time instead of storing them.
func (r *Ring[T]) Last(n int) (vals []T, first uint64) {
	r.mu.Lock()
	defer r.mu.Unlock()
	held := r.heldLocked()
	if n < held {
		held = max(n, 0)
	}
	first = r.total - uint64(held)
	vals = make([]T, held)
	k := copy(vals, r.buf[first%uint64(len(r.buf)):])
	copy(vals[k:], r.buf)
	return vals, first
}

// heldLocked is min(total, capacity); the caller holds mu.
func (r *Ring[T]) heldLocked() int {
	if r.total < uint64(len(r.buf)) {
		return int(r.total)
	}
	return len(r.buf)
}
