package main

import (
	"encoding/json"
	"errors"
	"math"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"os"
	"sync/atomic"
	"testing"
	"time"

	"github.com/sss-lab/blocksptrsv"
	"github.com/sss-lab/blocksptrsv/internal/daemon"
	"github.com/sss-lab/blocksptrsv/internal/gen"
)

// solved returns a small lower-triangular system with its exact
// solution, from the serial reference.
func solved(t *testing.T) (*blocksptrsv.Matrix[float64], []float64, []float64) {
	t.Helper()
	l := gen.GridLaplacian5(8, 8, 1)
	b := gen.RandVec(l.Rows, 7)
	ref, err := blocksptrsv.NewSolver("serial", l, 1)
	if err != nil {
		t.Fatal(err)
	}
	x := make([]float64, l.Rows)
	ref.Solve(b, x)
	return l, x, b
}

func TestCheckSolutionRejectsCorruption(t *testing.T) {
	l, x, b := solved(t)
	if err := checkSolution(l, x, b); err != nil {
		t.Fatalf("exact solution rejected: %v", err)
	}
	for name, corrupt := range map[string]func([]float64){
		"perturbed": func(x []float64) { x[len(x)/2] += 1e-3 },
		"NaN":       func(x []float64) { x[3] = math.NaN() },
		"Inf":       func(x []float64) { x[0] = math.Inf(-1) },
	} {
		bad := append([]float64(nil), x...)
		corrupt(bad)
		if checkSolution(l, bad, b) == nil {
			t.Errorf("%s solution accepted", name)
		}
	}
	// One bad column of a batch fails the batch.
	const k = 3
	xb := make([]float64, l.Rows*k)
	bb := make([]float64, l.Rows*k)
	for i := 0; i < l.Rows; i++ {
		for j := 0; j < k; j++ {
			xb[i*k+j], bb[i*k+j] = x[i], b[i]
		}
	}
	col, rcol := make([]float64, l.Rows), make([]float64, l.Rows)
	if err := checkBatch(l, xb, bb, k, col, rcol); err != nil {
		t.Fatalf("exact batch rejected: %v", err)
	}
	xb[5*k+2] *= 2
	if checkBatch(l, xb, bb, k, col, rcol) == nil {
		t.Error("batch with a corrupted column accepted")
	}
}

func TestCheckReplyRejectsBadBodies(t *testing.T) {
	l, x, b := solved(t)
	body, err := json.Marshal(daemon.SolveResponse{X: x})
	if err != nil {
		t.Fatal(err)
	}
	if err := checkReply(http.StatusOK, body, l, b); err != nil {
		t.Fatalf("exact solution rejected: %v", err)
	}
	short, err := json.Marshal(daemon.SolveResponse{X: x[1:]})
	if err != nil {
		t.Fatal(err)
	}
	for name, bad := range map[string][]byte{
		"short":     short,
		"malformed": []byte(`{"x":[1,2,"oops"]}`),
		"empty":     nil,
	} {
		if checkReply(http.StatusOK, bad, l, b) == nil {
			t.Errorf("%s solution accepted", name)
		}
	}
	if checkReply(http.StatusTooManyRequests, body, l, b) == nil {
		t.Error("a 429 with a correct body accepted")
	}
}

// TestDaemonFailuresCount drives the open and closed loops against a
// daemon whose replies are, in turn, correct, corrupted, shed with 429,
// and expired with 504. Every bad reply must count as failed and, in the
// open loop, as a request that missed any latency limit.
func TestDaemonFailuresCount(t *testing.T) {
	l := gen.GridLaplacian5(10, 10, 1)
	in := daemonInput{l: l, b: rhs(l.Rows, nBodies, 3)}
	for _, b := range in.b {
		body, err := json.Marshal(daemon.SolveRequest{B: b})
		if err != nil {
			t.Fatal(err)
		}
		in.bodies = append(in.bodies, body)
	}
	d := daemon.New(daemon.Config{})
	if err := d.AddMatrix(matrixName, l, blocksptrsv.DefaultOptions(1)); err != nil {
		t.Fatal(err)
	}
	defer func() {
		if err := shutdown(d); err != nil {
			t.Error(err)
		}
	}()
	inner := d.Handler()
	var n atomic.Int64
	h := http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		switch n.Add(1) % 4 {
		case 1:
			inner.ServeHTTP(w, r)
		case 2: // a 200 whose solution is wrong
			rec := httptest.NewRecorder()
			inner.ServeHTTP(rec, r)
			var resp daemon.SolveResponse
			if err := json.Unmarshal(rec.Body.Bytes(), &resp); err != nil {
				t.Error(err)
			}
			resp.X[len(resp.X)/2] += 1
			w.WriteHeader(http.StatusOK)
			_ = json.NewEncoder(w).Encode(resp)
		case 3:
			w.WriteHeader(http.StatusTooManyRequests)
			_ = json.NewEncoder(w).Encode(daemon.ErrorResponse{Kind: "overload"})
		case 0:
			w.WriteHeader(http.StatusGatewayTimeout)
			_ = json.NewEncoder(w).Encode(daemon.ErrorResponse{Kind: "deadline"})
		}
	})

	run := &daemonRun{}
	rng := rand.New(rand.NewSource(1))
	for p := 0; p < 2; p++ {
		run.pair(h, in, 400, 100*time.Millisecond, rng, nil, nil)
	}
	sent := n.Load()
	if int64(len(run.open)+len(run.closed)) != sent {
		t.Fatalf("%d results for %d requests", len(run.open)+len(run.closed), sent)
	}
	res := newResult()
	summarizeDaemon(run, res)
	bad := sent - (sent+3)/4 // all but the requests numbered 1 mod 4
	if res.attempted != sent || res.failed != bad {
		t.Fatalf("attempted %d failed %d, want %d and %d", res.attempted, res.failed, sent, bad)
	}
	if want := float64(bad) / float64(sent); res.named["fail_ratio"] != want {
		t.Errorf("fail_ratio = %v, want %v", res.named["fail_ratio"], want)
	}
	missed := 0
	for _, v := range latencies(run.open) {
		if math.IsInf(v, 1) {
			missed++
		}
	}
	failedOpen := 0
	for _, r := range run.open {
		if r.err != nil {
			failedOpen++
		}
	}
	if missed != failedOpen || failedOpen == 0 {
		t.Errorf("%d open-loop requests missed the latency limit, %d failed", missed, failedOpen)
	}
	// Three quarters fail, so even the median misses any limit.
	for _, k := range []string{"req_p50_ms", "req_p99_ms", "req_closed_p50_ms"} {
		if !math.IsInf(res.named[k], 1) {
			t.Errorf("%s = %v, want +Inf", k, res.named[k])
		}
	}
}

// TestReplyRateCountsVerifiedRepliesOnly checks the capacity metric:
// failed replies and replies after the segment count for nothing, and
// one stalled segment does not move the median over segments.
func TestReplyRateCountsVerifiedRepliesOnly(t *testing.T) {
	const seg = time.Second
	run := &daemonRun{}
	for s := 0; s < 5; s++ {
		n := 10
		if s == 2 {
			n = 1 // a stalled segment
		}
		var rs []reqResult
		for i := 0; i < n; i++ {
			rs = append(rs, reqResult{at: time.Duration(i) * 100 * time.Millisecond})
		}
		rs = append(rs, reqResult{at: 50 * time.Millisecond, err: errors.New("429")}, reqResult{at: seg + time.Millisecond})
		run.closed = append(run.closed, rs...)
		run.p50s = append(run.p50s, median(latencies(rs)))
		run.rates = append(run.rates, replyRate(rs, seg))
	}
	if run.rates[0] != 10 || run.rates[2] != 0 {
		t.Errorf("segment rates %v, want 10 verified replies per second and 0 for the stalled one", run.rates)
	}
	res := newResult()
	summarizeDaemon(run, res)
	if got := res.e2e["rhs_per_s"]; got != 10 {
		t.Errorf("capacity %v, want 10", got)
	}
}

func TestLateGeneratorInvalidatesRun(t *testing.T) {
	run := &daemonRun{open: make([]reqResult, 100)}
	for i := range run.open {
		run.open[i].late = lateLimit * 2
	}
	res := newResult()
	summarizeDaemon(run, res)
	if res.invalid == "" {
		t.Error("a generator sending late did not invalidate the run")
	}
}

// TestUnwrittenOutputFails checks that a call leaving its output
// untouched fails verification: outputs are poisoned before each call,
// so an earlier call's answer cannot pass for the current one.
func TestUnwrittenOutputFails(t *testing.T) {
	l, x, b := solved(t)
	out := append([]float64(nil), x...)
	poison(out)
	if checkSolution(l, out, b) == nil {
		t.Error("a poisoned output passed verification")
	}
}

func TestSelfTimeSubtractsChildren(t *testing.T) {
	tr := newTracer(100)
	t0 := time.Now()
	at := func(ms int) time.Time { return t0.Add(time.Duration(ms) * time.Millisecond) }
	root := tr.add(0, 0, 1, "block", "Solve", at(0), at(10))
	tr.add(0, root, 1, "kernels", "tri", at(1), at(4))
	tr.add(0, root, 1, "kernels", "spmv", at(3), at(6)) // overlaps the first
	tr.add(0, 0, 1, "sparse", "Residual", at(10), at(20))
	got := tr.selfShares()
	// The parent loses the union of its children (5 ms, not 6); each
	// child keeps its own duration.
	for layer, want := range map[string]float64{"block": 5.0 / 21, "kernels": 6.0 / 21, "sparse": 10.0 / 21} {
		if math.Abs(got[layer]-want) > 1e-9 {
			t.Errorf("self share of %s = %v, want %v", layer, got[layer], want)
		}
	}
}

// TestBenchmarkJSONMatchesProgram keeps BENCHMARK.json's metric lists
// the ones this program prints.
func TestBenchmarkJSONMatchesProgram(t *testing.T) {
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Skip("BENCHMARK.json not present:", err)
	}
	var spec struct {
		Workloads []struct{ Name string }
		EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(raw, &spec); err != nil {
		t.Fatal(err)
	}
	for _, w := range spec.Workloads {
		if workloads[w.Name] == nil {
			t.Errorf("workload %q has no implementation", w.Name)
		}
	}
	check := func(kind string, got []struct{ Name, Unit string }, want []metricDef) {
		if len(got) != len(want) {
			t.Errorf("%s: BENCHMARK.json lists %d metrics, the program %d", kind, len(got), len(want))
			return
		}
		for i := range want {
			if got[i].Name != want[i].name || got[i].Unit != want[i].unit {
				t.Errorf("%s[%d]: BENCHMARK.json has %s (%s), the program %s (%s)", kind, i, got[i].Name, got[i].Unit, want[i].name, want[i].unit)
			}
		}
	}
	check("end_to_end", spec.EndToEnd, endToEnd)
	check("per_layer", spec.PerLayer, perLayer())
}
