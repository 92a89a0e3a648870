package exec

import (
	"errors"
	"sync/atomic"
	"testing"
	"time"
)

// A nil *Guard is the guard of solves that ask for no guarantees: it never
// trips, and every method the kernels call on it is a no-op.
func TestNilGuardNeverTrips(t *testing.T) {
	var g *Guard
	if g.Tripped() {
		t.Fatal("nil guard reports tripped")
	}
	g.Step()
	g.ReportStall(3, 1)
	if g.Trip(errors.New("cancel")) {
		t.Fatal("nil guard accepted a trip")
	}
	if g.Tripped() {
		t.Fatal("nil guard tripped after Trip")
	}

	var c atomic.Int32
	c.Store(1)
	go func() {
		time.Sleep(5 * time.Millisecond)
		c.Store(0)
	}()
	done := make(chan bool, 1)
	go func() { done <- SpinUntilZeroGuarded(&c, g) }()
	select {
	case ok := <-done:
		if !ok {
			t.Fatal("SpinUntilZeroGuarded with a nil guard gave up before the counter reached zero")
		}
	case <-time.After(30 * time.Second):
		t.Fatal("SpinUntilZeroGuarded with a nil guard never returned")
	}
	if !SpinUntilZeroGuarded(&c, g) {
		t.Fatal("resolved fast path returned false under a nil guard")
	}
}
