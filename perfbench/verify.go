package main

import (
	"encoding/json"
	"fmt"
	"math"
	"net/http"

	"github.com/sss-lab/blocksptrsv"
	"github.com/sss-lab/blocksptrsv/internal/daemon"
	"github.com/sss-lab/blocksptrsv/internal/sparse"
)

// residualTol is the scaled infinity-norm residual, max_i |(L·x − b)_i| /
// (1 + |b_i|), every solution must meet. It is the tolerance the daemon's
// guarded path verifies against by default (daemon.AddMatrix).
const residualTol = 1e-8

// checkSolution reports whether x solves L·x = b to residualTol. A
// non-finite entry fails even where the residual's max would skip it.
func checkSolution(l *sparse.CSR[float64], x, b []float64) error {
	for i, v := range x {
		if math.IsNaN(v) || math.IsInf(v, 0) {
			return fmt.Errorf("x[%d] = %v", i, v)
		}
	}
	if r := blocksptrsv.Residual(l, x, b); !(r <= residualTol) {
		return fmt.Errorf("scaled residual %.3g above %.0e", r, residualTol)
	}
	return nil
}

// checkBatch verifies every column of a row-major n×k block solution,
// using col and rhsCol (length n) as scratch.
func checkBatch(l *sparse.CSR[float64], x, b []float64, k int, col, rhsCol []float64) error {
	n := l.Rows
	for j := 0; j < k; j++ {
		for i := 0; i < n; i++ {
			col[i] = x[i*k+j]
			rhsCol[i] = b[i*k+j]
		}
		if err := checkSolution(l, col, rhsCol); err != nil {
			return fmt.Errorf("column %d: %w", j, err)
		}
	}
	return nil
}

// checkReply verifies one daemon HTTP reply: a 200 status and a body
// whose solution meets residualTol for b. Any other status — a 429 shed,
// a 504 expiry, a 500 — is a failure.
func checkReply(status int, body []byte, l *sparse.CSR[float64], b []float64) error {
	if status != http.StatusOK {
		var e daemon.ErrorResponse
		_ = json.Unmarshal(body, &e) // best effort: the status alone fails the request
		return fmt.Errorf("status %d (%s)", status, e.Kind)
	}
	var resp daemon.SolveResponse
	if err := json.Unmarshal(body, &resp); err != nil {
		return fmt.Errorf("decoding solution: %w", err)
	}
	if len(resp.X) != l.Rows {
		return fmt.Errorf("solution has %d entries, want %d", len(resp.X), l.Rows)
	}
	return checkSolution(l, resp.X, b)
}
