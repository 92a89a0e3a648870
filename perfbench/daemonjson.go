package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"math"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"os"
	"runtime"
	"strconv"
	"sync"
	"time"

	"github.com/sss-lab/blocksptrsv"
	"github.com/sss-lab/blocksptrsv/internal/daemon"
	"github.com/sss-lab/blocksptrsv/internal/sparse"
)

// daemon-json: sptrsvd's shipped defaults (the daemon.Config zero value
// plus DefaultOptions(0)) serving the smoke's 10,000-row grid with JSON
// bodies, driven in-process through Daemon.Handler().ServeHTTP so no
// socket pool caps the requests in flight. Open-loop segments, Poisson
// arrivals at the fixed offered rate, alternate with closed-loop
// segments, one client per CPU.

const (
	matrixName = "grid"
	// nBodies distinct right-hand sides are encoded before any clock
	// starts and sent in turn.
	nBodies = 16
	// segment is the longest stretch of open or of closed loop. A phase
	// alternates open-loop and closed-loop segments; after each, with no
	// request in flight, its replies are decoded and verified. Each pair
	// is served by a daemon whose New+AddMatrix set-up is timed just
	// before it. So verification never competes with the daemon for the
	// CPUs, a reply is held only until its segment ends (about 40 MB of
	// bodies at 400 req/s), and a slow stretch of the host falls on every
	// measurement alike.
	segment = 500 * time.Millisecond
	// lateLimit is how late the open-loop generator may send its median
	// request before the run is invalid: beyond it the generator has
	// fallen behind and the offered load is no longer the stated rate.
	// Single late sends on a busy 2-CPU box are normal and already
	// charged to latency, which runs from the due time.
	lateLimit = 10 * time.Millisecond
)

// daemonSegments cuts a phase into pairs of an open-loop and a
// closed-loop segment of equal length, none longer than segment.
func daemonSegments(phase time.Duration) (pairs int, seg time.Duration) {
	pairs = max(1, int((phase+2*segment-1)/(2*segment)))
	return pairs, phase / time.Duration(2*pairs)
}

// daemonInput is the matrix and its pre-encoded request bodies.
type daemonInput struct {
	l      *sparse.CSR[float64]
	b      [][]float64
	bodies [][]byte
}

// reqResult is one request. lat is from when the request was due (open
// loop) or sent (closed loop) to its reply; at is when it was due (open
// loop) or when its reply arrived (closed loop), from the segment start.
// rec holds the reply until it is verified.
type reqResult struct {
	late, lat, sendToEnd, at time.Duration
	phases                   [4]int64 // X-Phase queue-wait, coalesce, solve, total (ns)
	body, op                 int64    // index of the request body; trace op id
	rec                      *httptest.ResponseRecorder
	err                      error
}

func runDaemonJSON(cfg config) (*result, error) {
	in := daemonInput{l: daemonMatrix(), b: rhs(daemonGridSide*daemonGridSide, nBodies, cfg.seed)}
	for _, b := range in.b {
		body, err := json.Marshal(daemon.SolveRequest{B: b})
		if err != nil {
			return nil, fmt.Errorf("encoding request: %w", err)
		}
		in.bodies = append(in.bodies, body)
	}
	res := newResult()
	var tr *tracer
	if cfg.trace {
		tr = newTracer(400_000)
	}

	// An untimed first daemon grows the heap and pays first-use costs.
	d, err := newDaemon(in.l)
	if err != nil {
		return nil, err
	}
	warm(d.Handler(), in)
	if err := shutdown(d); err != nil {
		return nil, err
	}

	phase := fromSeconds(cfg.seconds)
	if cfg.trace {
		phase /= 2
	}
	rng := rand.New(rand.NewSource(cfg.seed))
	acc := &memAcc{}
	run, err := daemonPhase(in, cfg.rate, phase, rng, nil, true, acc)
	if err != nil {
		return nil, err
	}
	acc.report(res.layer)
	if run.batches > 0 {
		res.layer["daemon.coalesce_factor"] = float64(run.batched) / float64(run.batches)
	}
	res.e2e["setup_s"] = median(run.setup) / 1e9
	summarizeDaemon(run, res)
	printDaemonDiagnostics(run)

	if cfg.trace {
		traced, err := daemonPhase(in, cfg.rate, phase, rng, tr, false, nil)
		if err != nil {
			return nil, err
		}
		tres := newResult()
		summarizeDaemon(traced, tres)
		res.attempted += tres.attempted
		res.failed += tres.failed
		if tres.invalid != "" {
			res.invalid = tres.invalid
		}
		res.layer["trace.overhead"] = tres.e2e["latency_ms"] / res.e2e["latency_ms"]
		phaseMetrics(append(traced.open, traced.closed...), res.layer)
		launchProbe(tr, res.layer)
		if err := codecProbe(in, tr, res.layer); err != nil {
			return nil, err
		}
		for l, v := range tr.selfShares() {
			res.layer["self_share."+l] = v
		}
		if err := tr.writeChrome(traceFile(cfg)); err != nil {
			return nil, err
		}
	}
	return res, nil
}

// newDaemon is sptrsvd's shipped configuration serving l.
func newDaemon(l *sparse.CSR[float64]) (*daemon.Daemon, error) {
	d := daemon.New(daemon.Config{})
	if err := d.AddMatrix(matrixName, l, blocksptrsv.DefaultOptions(0)); err != nil {
		return nil, fmt.Errorf("AddMatrix: %w", err)
	}
	return d, nil
}

func shutdown(d *daemon.Daemon) error {
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if err := d.Shutdown(ctx); err != nil {
		return fmt.Errorf("daemon shutdown: %w", err)
	}
	return nil
}

// warm sends a few requests so first-use costs stay out of the phases.
func warm(h http.Handler, in daemonInput) {
	for i := 0; i < 4; i++ {
		send(h, in.bodies[i%nBodies])
	}
}

// send serves one request in-process and returns the recorded reply.
func send(h http.Handler, body []byte) *httptest.ResponseRecorder {
	req := httptest.NewRequest(http.MethodPost, "/solve/"+matrixName, bytes.NewReader(body))
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, req)
	return rec
}

// daemonRun is what a phase measured: every request, verified, each
// closed-loop segment's median latency and reply rate, the set-up times
// (ns) and the daemons' batch counters summed over the segments.
type daemonRun struct {
	open, closed     []reqResult
	p50s, rates      []float64
	setup            []float64
	batches, batched int64
}

// daemonPhase runs a phase (see segment). Every pair of segments is
// served by a daemon set up for it and shut down after it, so one
// daemon's scheduling luck does not decide the run; with timeSetup the
// set-up, from a collected heap, is timed. acc covers the segments only.
func daemonPhase(in daemonInput, rate float64, phase time.Duration, rng *rand.Rand, tr *tracer, timeSetup bool, acc *memAcc) (*daemonRun, error) {
	pairs, seg := daemonSegments(phase)
	run := &daemonRun{}
	for p := 0; p < pairs; p++ {
		runtime.GC()
		t0 := time.Now()
		d, err := newDaemon(in.l)
		t1 := time.Now()
		if err != nil {
			return nil, err
		}
		if timeSetup {
			tr.add(0, 0, 0, "daemon", "New+AddMatrix", t0, t1)
			run.setup = append(run.setup, float64(t1.Sub(t0)))
		}
		h := d.Handler()
		warm(h, in)
		st0 := d.Stats()[0]

		run.pair(h, in, rate, seg, rng, tr, acc)
		st1 := d.Stats()[0]
		run.batches += st1.Batches - st0.Batches
		run.batched += st1.Batched - st0.Batched
		if err := shutdown(d); err != nil {
			return nil, err
		}
	}
	return run, nil
}

// pair runs an open-loop and then a closed-loop segment of length seg
// against h, verifying each segment's replies after it, and adds them to
// run.
func (run *daemonRun) pair(h http.Handler, in daemonInput, rate float64, seg time.Duration, rng *rand.Rand, tr *tracer, acc *memAcc) {
	acc.begin()
	open := openLoop(h, in, schedule(rng, rate, seg), tr)
	acc.end(int64(len(open)))
	verifyReplies(open, in, tr)
	run.open = append(run.open, open...)

	acc.begin()
	closed := closedLoop(h, in, runtime.NumCPU(), seg, tr)
	acc.end(int64(len(closed)))
	verifyReplies(closed, in, tr)
	run.closed = append(run.closed, closed...)
	run.p50s = append(run.p50s, median(latencies(closed)))
	run.rates = append(run.rates, replyRate(closed, seg))
}

// verifyReplies decodes and checks every reply of a finished segment,
// then drops the reply.
func verifyReplies(rs []reqResult, in daemonInput, tr *tracer) {
	for i := range rs {
		r := &rs[i]
		t0 := time.Now()
		r.err = checkReply(r.rec.Code, r.rec.Body.Bytes(), in.l, in.b[r.body])
		tr.add(0, 0, r.op, "sparse", "verify reply", t0, time.Now())
		r.rec = nil
	}
}

// schedule returns Poisson arrival offsets at rate requests/s over d.
func schedule(rng *rand.Rand, rate float64, d time.Duration) []time.Duration {
	var out []time.Duration
	t := 0.0
	for {
		t += rng.ExpFloat64() / rate
		if t >= d.Seconds() {
			return out
		}
		out = append(out, fromSeconds(t))
	}
}

// serve sends request i and records its reply, timing and, when traced,
// its X-Phase phases and spans.
func serve(h http.Handler, in daemonInput, i int, r *reqResult, tr *tracer) (sent, end time.Time) {
	r.body = int64(i % nBodies)
	sent = time.Now()
	r.rec = send(h, in.bodies[r.body])
	end = time.Now()
	r.sendToEnd = end.Sub(sent)
	if tr != nil {
		r.op = tr.id()
		readPhases(r.rec.Header(), r)
		tr.add(r.op, 0, r.op, "daemon", "POST /solve", sent, end)
		// The daemon reports phase durations, not start times: the
		// children are laid end to end from the send.
		t := sent
		for k, name := range []string{"queue_wait", "coalesce", "solve"} {
			d := time.Duration(r.phases[k])
			layer := "daemon"
			if name == "solve" {
				layer = "block"
			}
			tr.add(0, r.op, r.op, layer, name, t, t.Add(d))
			t = t.Add(d)
		}
	}
	return sent, end
}

// openLoop sends each request when it is due, whether or not earlier
// ones have returned, and times it from its due time. It returns once
// every reply has arrived.
func openLoop(h http.Handler, in daemonInput, due []time.Duration, tr *tracer) []reqResult {
	out := make([]reqResult, len(due))
	var wg sync.WaitGroup
	start := time.Now()
	for i, off := range due {
		at := start.Add(off)
		time.Sleep(time.Until(at))
		// One goroutine per request: an open loop never waits for a
		// reply before the next send, and the schedule is finite.
		wg.Add(1)
		go func(i int, at time.Time) {
			defer wg.Done()
			r := &out[i]
			r.at = at.Sub(start)
			sent, end := serve(h, in, i, r, tr)
			r.late = sent.Sub(at)
			r.lat = end.Sub(at)
		}(i, at)
	}
	wg.Wait()
	return out
}

// closedLoop runs clients that each send their next request when the
// previous reply arrives, for d. It returns once every reply has arrived.
func closedLoop(h http.Handler, in daemonInput, clients int, d time.Duration, tr *tracer) []reqResult {
	results := make([][]reqResult, clients)
	var wg sync.WaitGroup
	start := time.Now()
	deadline := start.Add(d)
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			for i := c; time.Now().Before(deadline); i += clients {
				var r reqResult
				sent, end := serve(h, in, i, &r, tr)
				r.lat = end.Sub(sent)
				r.at = end.Sub(start)
				results[c] = append(results[c], r)
			}
		}(c)
	}
	wg.Wait()
	var out []reqResult
	for _, rs := range results {
		out = append(out, rs...)
	}
	return out
}

func readPhases(h http.Header, r *reqResult) {
	for k, name := range []string{"X-Phase-Queue-Wait-Ns", "X-Phase-Coalesce-Ns", "X-Phase-Solve-Ns", "X-Phase-Total-Ns"} {
		r.phases[k], _ = strconv.ParseInt(h.Get(name), 10, 64) // absent on early failures: 0
	}
}

// latencies returns each request's latency in ms, +Inf for a failed one:
// a failure misses any latency limit.
func latencies(rs []reqResult) []float64 {
	out := make([]float64, len(rs))
	for i, r := range rs {
		out[i] = ms(r.lat)
		if r.err != nil {
			out[i] = math.Inf(1)
		}
	}
	return out
}

// summarizeDaemon folds a phase into the workload's metrics. The gated
// ones come from the closed loop, as medians over its segments; the open
// loop's percentiles are over all its requests. The run is invalid when
// the generator sent late.
func summarizeDaemon(run *daemonRun, res *result) {
	var firstErr error
	for _, set := range [][]reqResult{run.open, run.closed} {
		for _, r := range set {
			res.attempted++
			if r.err != nil {
				res.failed++
				if firstErr == nil {
					firstErr = r.err
				}
			}
		}
	}
	if firstErr != nil {
		fmt.Fprintln(os.Stderr, "perfbench: request failed:", firstErr)
	}
	open := latencies(run.open)
	res.named["req_p50_ms"] = quantile(open, 0.5)
	res.named["req_p99_ms"] = quantile(open, 0.99)
	res.named["fail_ratio"] = float64(res.failed) / float64(res.attempted)
	// The gated latency is the closed loop's: with the CPUs kept busy it
	// moves little with CPU steal on a shared host, while the open
	// loop's median, which waits on idle CPUs to be scheduled again,
	// doubles (WORKLOADS.md).
	res.named["req_closed_p50_ms"] = median(run.p50s)
	res.named["req_capacity_rps"] = median(run.rates)
	res.e2e["latency_ms"] = res.named["req_closed_p50_ms"]
	res.e2e["rhs_per_s"] = res.named["req_capacity_rps"]
	late := make([]float64, len(run.open))
	for i, r := range run.open {
		late[i] = ms(r.late)
	}
	lp50 := quantile(late, 0.5)
	res.layer["loadgen.late_p50_ms"] = lp50
	res.layer["loadgen.late_p99_ms"] = quantile(late, 0.99)
	res.layer["loadgen.late_max_ms"] = quantile(late, 1)
	if lp50 > ms(lateLimit) {
		res.invalid = fmt.Sprintf("open-loop generator median lateness %.1f ms exceeds %v", lp50, lateLimit)
	}
	for _, k := range []string{"req_p50_ms", "req_p99_ms", "req_closed_p50_ms", "req_capacity_rps", "fail_ratio"} {
		res.layer["e2e."+k] = res.named[k]
	}
}

// replyRate is a closed-loop segment's rate of verified replies: replies
// after the first, over the time from the first to the last (a count
// over the segment would only take a few distinct values). Replies after
// the segment's end count for nothing.
func replyRate(rs []reqResult, seg time.Duration) float64 {
	n := 0
	var first, last time.Duration
	for _, r := range rs {
		if r.err != nil || r.at >= seg {
			continue
		}
		if n == 0 || r.at < first {
			first = r.at
		}
		if r.at > last {
			last = r.at
		}
		n++
	}
	if n < 2 || last <= first {
		return 0
	}
	return float64(n-1) / (last - first).Seconds()
}

// phaseMetrics derives the daemon's per-phase percentiles from the
// X-Phase headers of successful requests, and the wire share: client
// time from send to reply minus the daemon's own span total.
func phaseMetrics(rs []reqResult, layer map[string]float64) {
	var q, c, s, w []float64
	for _, r := range rs {
		if r.err != nil {
			continue
		}
		q = append(q, float64(r.phases[0])/1e6)
		c = append(c, float64(r.phases[1])/1e6)
		s = append(s, float64(r.phases[2])/1e6)
		w = append(w, ms(r.sendToEnd)-float64(r.phases[3])/1e6)
	}
	layer["daemon.queue_wait_ms.p50"] = quantile(q, 0.5)
	layer["daemon.queue_wait_ms.p99"] = quantile(q, 0.99)
	layer["daemon.coalesce_ms.p50"] = quantile(c, 0.5)
	layer["daemon.solve_ms.p50"] = quantile(s, 0.5)
	layer["daemon.solve_ms.p99"] = quantile(s, 0.99)
	layer["daemon.wire_ms.p50"] = quantile(w, 0.5)
	layer["daemon.wire_ms.p99"] = quantile(w, 0.99)
}

// codecProbe times encoding/json on the daemon's request and response
// types at the workload's 10,000 elements (median of 21).
func codecProbe(in daemonInput, tr *tracer, layer map[string]float64) error {
	var dec, enc []float64
	resp := daemon.SolveResponse{X: in.b[0]}
	for r := 0; r < 21; r++ {
		var req daemon.SolveRequest
		t0 := time.Now()
		err := json.Unmarshal(in.bodies[r%nBodies], &req)
		t1 := time.Now()
		if err != nil {
			return fmt.Errorf("decoding request: %w", err)
		}
		tr.add(0, 0, 0, "daemon", "json decode SolveRequest", t0, t1)
		dec = append(dec, float64(t1.Sub(t0)))
		t0 = time.Now()
		_, err = json.Marshal(resp)
		t1 = time.Now()
		if err != nil {
			return fmt.Errorf("encoding response: %w", err)
		}
		tr.add(0, 0, 0, "daemon", "json encode SolveResponse", t0, t1)
		enc = append(enc, float64(t1.Sub(t0)))
	}
	layer["daemon.json_decode_ms"] = median(dec) / 1e6
	layer["daemon.json_encode_ms"] = median(enc) / 1e6
	return nil
}

// printDaemonDiagnostics prints sample counts and percentiles of both
// loops, and the per-segment values the gated medians are taken over.
func printDaemonDiagnostics(run *daemonRun) {
	lat := latencies(run.open)
	cl := latencies(run.closed)
	printDiagnostics("phases", map[string]any{
		"open": map[string]any{"requests": len(run.open), "p50_ms": quantile(lat, 0.5), "p90_ms": quantile(lat, 0.9),
			"p99_ms": quantile(lat, 0.99), "max_ms": quantile(lat, 1)},
		"closed": map[string]any{"requests": len(run.closed), "p50_ms": quantile(cl, 0.5), "p99_ms": quantile(cl, 0.99),
			"segment_p50_ms": run.p50s, "segment_rps": run.rates},
	})
}
