//go:build bcecheck

package exec

// Compiled only under the bcecheck build tag: forces instantiation of the
// generic hot-path atomic helper so `go build -gcflags=-d=ssa/check_bce`
// sees its body (see internal/kernels/bce_force.go).
var bceForceInstantiations = [...]any{
	AtomicMaxFloat[float64], AtomicMaxFloat[float32],
}
