package block

import (
	"bytes"
	"context"
	"encoding/json"
	"strings"
	"sync"
	"testing"
	"time"

	"github.com/sss-lab/blocksptrsv/internal/exec"
	"github.com/sss-lab/blocksptrsv/internal/gen"
)

// traceTestSolver builds a multi-block solver with tracing and
// instrumentation armed, so trace records and aggregate stats can be
// cross-checked against each other.
func traceTestSolver(t *testing.T, rec *TraceRecorder) (*Solver[float64], []float64, []float64) {
	t.Helper()
	l := gen.Layered(800, 20, 4, 0, 99)
	s, err := Preprocess(l, Options{
		Workers: 2, Kind: Recursive, MinBlockRows: 64,
		Reorder: true, Adaptive: true, Instrument: true, Trace: rec,
	})
	if err != nil {
		t.Fatal(err)
	}
	b := gen.RandVec(l.Rows, 3)
	return s, b, make([]float64, l.Rows)
}

func TestTraceMatchesStats(t *testing.T) {
	rec := NewTraceRecorder(1 << 12)
	s, b, x := traceTestSolver(t, rec)
	steps := s.NumTriBlocks() + s.NumSquareBlocks()
	if steps < 3 {
		t.Fatalf("want a multi-block plan, got %d steps", steps)
	}
	const solves = 7
	for i := 0; i < solves; i++ {
		s.Solve(b, x)
	}
	st := s.Stats()
	// One record per plan step per solve, and records classify exactly as
	// the aggregate call counters do.
	if got, want := rec.Total(), st.TriCalls+st.SpMVCalls; got != want {
		t.Fatalf("recorded %d steps, stats count %d", got, want)
	}
	if got := rec.Total(); got != int64(steps*solves) {
		t.Fatalf("recorded %d steps, want %d steps x %d solves", got, steps, solves)
	}
	// Durations are measured once and fed to both sinks, so the per-kind
	// sums must match the aggregate stats exactly, not approximately.
	var triSum, spmvSum time.Duration
	var triCalls, spmvCalls int64
	for _, step := range rec.Steps() {
		switch step.Kind {
		case "tri":
			triSum += step.Duration
			triCalls++
		case "spmv":
			spmvSum += step.Duration
			spmvCalls++
		default:
			t.Fatalf("unknown step kind %q", step.Kind)
		}
	}
	if triSum != st.TriTime || spmvSum != st.SpMVTime {
		t.Fatalf("trace sums tri=%v spmv=%v, stats tri=%v spmv=%v", triSum, spmvSum, st.TriTime, st.SpMVTime)
	}
	if triCalls != st.TriCalls || spmvCalls != st.SpMVCalls {
		t.Fatalf("trace calls tri=%d spmv=%d, stats tri=%d spmv=%d", triCalls, spmvCalls, st.TriCalls, st.SpMVCalls)
	}
	// Summarize agrees with the raw steps.
	sum := rec.Summarize()
	if sum.TriTime != triSum || sum.SpMVTime != spmvSum || sum.Solves != solves {
		t.Fatalf("summary %+v disagrees with steps (tri=%v spmv=%v solves=%d)", sum, triSum, spmvSum, solves)
	}
	// The step-duration quantiles come from Histogram.Quantile: monotone
	// upper bounds bracketing the observed extremes within the log2 bucket
	// guarantee (the p99 bound can be at most 2x the longest step; every
	// bound is at least as large as the shortest step).
	var minStep, maxStep time.Duration = 1 << 62, 0
	for _, step := range rec.Steps() {
		if step.Duration < minStep {
			minStep = step.Duration
		}
		if step.Duration > maxStep {
			maxStep = step.Duration
		}
	}
	if sum.StepP50 <= 0 || sum.StepP50 > sum.StepP90 || sum.StepP90 > sum.StepP99 {
		t.Fatalf("quantiles not monotone: p50=%v p90=%v p99=%v", sum.StepP50, sum.StepP90, sum.StepP99)
	}
	if sum.StepP50 < minStep {
		t.Fatalf("p50 %v below shortest step %v", sum.StepP50, minStep)
	}
	if sum.StepP99 > 2*maxStep {
		t.Fatalf("p99 %v beyond 2x the longest step %v", sum.StepP99, maxStep)
	}
}

// TestSummarizeEmpty: an empty recorder summarises to zeroes, quantiles
// included.
func TestSummarizeEmpty(t *testing.T) {
	sum := NewTraceRecorder(16).Summarize()
	if sum.Steps != 0 || sum.StepP50 != 0 || sum.StepP99 != 0 {
		t.Fatalf("empty summary = %+v", sum)
	}
}

func TestTraceRecordsGeometry(t *testing.T) {
	rec := NewTraceRecorder(1 << 12)
	s, b, x := traceTestSolver(t, rec)
	s.Solve(b, x)
	for _, step := range rec.Steps() {
		if step.Rows <= 0 || step.NNZ < 0 || step.Kernel == "" || step.Duration < 0 {
			t.Fatalf("malformed step: %+v", step)
		}
		if step.Kind == "tri" && (step.Cols != step.Rows || step.Levels < 1) {
			t.Fatalf("malformed tri step: %+v", step)
		}
		if step.Solve != 1 {
			t.Fatalf("step of solve %d, want 1", step.Solve)
		}
	}
}

func TestChromeTraceValid(t *testing.T) {
	rec := NewTraceRecorder(1 << 12)
	s, b, x := traceTestSolver(t, rec)
	s.Solve(b, x)
	s.Solve(b, x)

	var buf bytes.Buffer
	if err := rec.WriteChromeTrace(&buf); err != nil {
		t.Fatal(err)
	}
	var doc struct {
		TraceEvents []struct {
			Name string  `json:"name"`
			Cat  string  `json:"cat"`
			Ph   string  `json:"ph"`
			TS   float64 `json:"ts"`
			Dur  float64 `json:"dur"`
			PID  int     `json:"pid"`
			TID  int64   `json:"tid"`
			Args struct {
				Step int `json:"step"`
				Rows int `json:"rows"`
				NNZ  int `json:"nnz"`
			} `json:"args"`
		} `json:"traceEvents"`
		DisplayTimeUnit string `json:"displayTimeUnit"`
	}
	if err := json.Unmarshal(buf.Bytes(), &doc); err != nil {
		t.Fatalf("invalid Chrome trace JSON: %v", err)
	}
	if int64(len(doc.TraceEvents)) != rec.Total() {
		t.Fatalf("%d events, want %d", len(doc.TraceEvents), rec.Total())
	}
	for _, ev := range doc.TraceEvents {
		if ev.Ph != "X" || ev.PID != 1 || ev.TID < 1 || ev.Cat == "" || ev.Name == "" || ev.Dur < 0 {
			t.Fatalf("malformed event: %+v", ev)
		}
	}

	var table strings.Builder
	if err := rec.WriteTable(&table); err != nil {
		t.Fatal(err)
	}
	if lines := strings.Count(table.String(), "\n"); int64(lines) != rec.Total()+1 {
		t.Fatalf("table has %d lines, want %d steps + header", lines, rec.Total())
	}
}

func TestTraceRingBounded(t *testing.T) {
	rec := NewTraceRecorder(4)
	s, b, x := traceTestSolver(t, rec)
	steps := s.NumTriBlocks() + s.NumSquareBlocks()
	s.Solve(b, x)
	s.Solve(b, x)
	total := int64(2 * steps)
	if rec.Total() != total {
		t.Fatalf("Total=%d want %d", rec.Total(), total)
	}
	if rec.Len() != 4 {
		t.Fatalf("Len=%d want ring capacity 4", rec.Len())
	}
	if rec.Dropped() != total-4 {
		t.Fatalf("Dropped=%d want %d", rec.Dropped(), total-4)
	}
	// The retained window is the most recent steps, oldest-first.
	kept := rec.Steps()
	if len(kept) != 4 || kept[len(kept)-1].Step != steps-1 {
		t.Fatalf("retained window wrong: %+v", kept)
	}
	rec.Reset()
	if rec.Total() != 0 || rec.Len() != 0 || rec.Dropped() != 0 {
		t.Fatalf("Reset left Total=%d Len=%d Dropped=%d", rec.Total(), rec.Len(), rec.Dropped())
	}
}

func TestSetTraceDetach(t *testing.T) {
	rec := NewTraceRecorder(64)
	s, b, x := traceTestSolver(t, rec)
	s.Solve(b, x)
	if rec.Total() == 0 {
		t.Fatal("no steps recorded while attached")
	}
	before := rec.Total()
	s.SetTrace(nil)
	if s.Trace() != nil {
		t.Fatal("Trace() not nil after detach")
	}
	s.Solve(b, x)
	if rec.Total() != before {
		t.Fatalf("detached recorder still grew: %d -> %d", before, rec.Total())
	}
}

func TestExplainStable(t *testing.T) {
	l := gen.Layered(800, 20, 4, 0, 99)
	opts := Options{Workers: 2, Kind: Recursive, MinBlockRows: 64, Reorder: true, Adaptive: true}
	s1, err := Preprocess(l, opts)
	if err != nil {
		t.Fatal(err)
	}
	s2, err := Preprocess(l, opts)
	if err != nil {
		t.Fatal(err)
	}
	e1, e2 := s1.Explain(), s2.Explain()
	if e1 != e2 {
		t.Fatalf("Explain not deterministic:\n%s\nvs\n%s", e1, e2)
	}
	for _, want := range []string{"execution plan:", "tri kernels:", "spmv kernels:", "kernel="} {
		if !strings.Contains(e1, want) {
			t.Fatalf("Explain missing %q:\n%s", want, e1)
		}
	}
	// One plan line per step, plus the 6 header/summary lines.
	steps := s1.NumTriBlocks() + s1.NumSquareBlocks()
	if lines := strings.Count(e1, "\n"); lines != steps+6 {
		t.Fatalf("Explain has %d lines, want %d steps + 6", lines, steps+6)
	}
	if ses := s1.NewSession(); ses.Explain() != e1 {
		t.Fatal("Session.Explain differs from Solver.Explain")
	}
}

func TestConcurrentSessionsSharedRecorder(t *testing.T) {
	rec := NewTraceRecorder(1 << 14)
	s, b, _ := traceTestSolver(t, rec)
	steps := s.NumTriBlocks() + s.NumSquareBlocks()
	const sessions, solvesEach = 4, 5
	var wg sync.WaitGroup
	for i := 0; i < sessions; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			ses := s.NewSession()
			x := make([]float64, len(b))
			for j := 0; j < solvesEach; j++ {
				ses.Solve(b, x)
			}
		}()
	}
	wg.Wait()
	if got, want := rec.Total(), int64(sessions*solvesEach*steps); got != want {
		t.Fatalf("recorded %d steps, want %d", got, want)
	}
	// Steps of concurrent solves interleave in the ring but keep distinct
	// solve ids, and each solve contributes exactly one record per step.
	perSolve := map[int64]int{}
	for _, step := range rec.Steps() {
		perSolve[step.Solve]++
	}
	if len(perSolve) != sessions*solvesEach {
		t.Fatalf("%d distinct solve ids, want %d", len(perSolve), sessions*solvesEach)
	}
	for id, n := range perSolve {
		if n != steps {
			t.Fatalf("solve %d has %d steps, want %d", id, n, steps)
		}
	}
}

func TestSessionResetStats(t *testing.T) {
	l := gen.Layered(400, 10, 4, 0, 7)
	s, err := Preprocess(l, Options{Workers: 1, Kind: Recursive, MinBlockRows: 64, Instrument: true})
	if err != nil {
		t.Fatal(err)
	}
	b := gen.RandVec(l.Rows, 3)
	x := make([]float64, l.Rows)
	ses1, ses2 := s.NewSession(), s.NewSession()
	s.Solve(b, x)
	ses1.Solve(b, x)
	ses2.Solve(b, x)

	// Solver.ResetStats clears only the solver's own counters.
	s.ResetStats()
	if s.Stats().Solves != 0 {
		t.Fatal("Solver.ResetStats did not clear solver stats")
	}
	if ses1.Stats().Solves != 1 || ses2.Stats().Solves != 1 {
		t.Fatalf("Solver.ResetStats touched session stats: %d, %d",
			ses1.Stats().Solves, ses2.Stats().Solves)
	}

	// Session.ResetStats clears only that session.
	ses1.Solve(b, x)
	ses1.ResetStats()
	if got := ses1.Stats(); got != (SolveStats{}) {
		t.Fatalf("Session.ResetStats left %+v", got)
	}
	if ses2.Stats().Solves != 1 {
		t.Fatal("Session.ResetStats touched a sibling session")
	}
	ses1.Solve(b, x)
	if st := ses1.Stats(); st.Solves != 1 || st.TriCalls == 0 {
		t.Fatalf("session stats did not accumulate after reset: %+v", st)
	}
}

// TestTraceAcrossSerialization exercises SetTrace on a reloaded solver:
// depths are lost (Explain degrades flat) but tracing works in full.
func TestTraceAcrossSerialization(t *testing.T) {
	l := gen.Layered(400, 10, 4, 0, 7)
	s, err := Preprocess(l, Options{Workers: 1, Kind: Recursive, MinBlockRows: 64, Reorder: true})
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if _, err := s.WriteTo(&buf); err != nil {
		t.Fatal(err)
	}
	s2, err := ReadSolver[float64](&buf, exec.NewLauncher(0, 1))
	if err != nil {
		t.Fatal(err)
	}
	rec := NewTraceRecorder(1 << 10)
	s2.SetTrace(rec)
	b := gen.RandVec(l.Rows, 3)
	x := make([]float64, l.Rows)
	s2.Solve(b, x)
	steps := s2.NumTriBlocks() + s2.NumSquareBlocks()
	if rec.Total() != int64(steps) {
		t.Fatalf("reloaded solver recorded %d steps, want %d", rec.Total(), steps)
	}
	if e := s2.Explain(); !strings.Contains(e, "execution plan:") {
		t.Fatalf("reloaded Explain malformed:\n%s", e)
	}
}

// TestTraceGuardedPath checks SolveContext records steps identically to
// Solve and that recovery counters reach the registry path unharmed.
func TestTraceGuardedPath(t *testing.T) {
	rec := NewTraceRecorder(1 << 12)
	s, b, x := traceTestSolver(t, rec)
	steps := s.NumTriBlocks() + s.NumSquareBlocks()
	if err := s.SolveContext(nil, b, x); err != nil {
		t.Fatal(err)
	}
	if rec.Total() != int64(steps) {
		t.Fatalf("guarded solve recorded %d steps, want %d", rec.Total(), steps)
	}
	st := s.Stats()
	if got, want := rec.Total(), st.TriCalls+st.SpMVCalls; got != want {
		t.Fatalf("recorded %d steps, stats count %d", got, want)
	}
	ref := make([]float64, len(b))
	copy(ref, x)
	for i := range x {
		x[i] = 0
	}
	s.Solve(b, x)
	for i := range x {
		if x[i] != ref[i] {
			t.Fatalf("guarded and plain solve disagree at %d: %v vs %v", i, ref[i], x[i])
		}
	}
}

// TestTraceBatchPaths: the batched solve paths assign one solve id per
// batch, record one step entry per plan step (same as single-RHS), and
// expose the id through SolveStats.LastTraceID so request-scoped spans
// can link to the step trace. They feed Options.Instrument like the
// single-RHS paths: one counted call per recorded step.
func TestTraceBatchPaths(t *testing.T) {
	rec := NewTraceRecorder(1 << 12)
	s, b, _ := traceTestSolver(t, rec)
	n := s.Rows()
	steps := len(s.steps)
	const k = 3
	bb := make([]float64, n*k)
	for i := range bb {
		bb[i] = b[i%n] + float64(i%k)
	}
	xb := make([]float64, n*k)

	instrumented := func(what string, st SolveStats, want int64) {
		t.Helper()
		if got := st.TriCalls + st.SpMVCalls; got != want {
			t.Fatalf("after %s stats count %d steps, trace recorded %d", what, got, want)
		}
	}

	s.SolveBatch(bb, xb, k)
	if got := rec.Total(); got != int64(steps) {
		t.Fatalf("SolveBatch recorded %d steps, want %d", got, steps)
	}
	instrumented("SolveBatch", s.Stats(), rec.Total())
	firstID := s.Stats().LastTraceID
	if firstID == 0 {
		t.Fatal("SolveBatch left LastTraceID unset")
	}

	if err := s.SolveBatchContext(context.Background(), bb, xb, k); err != nil {
		t.Fatal(err)
	}
	if got := rec.Total(); got != int64(2*steps) {
		t.Fatalf("after SolveBatchContext recorded %d steps, want %d", got, 2*steps)
	}
	instrumented("SolveBatchContext", s.Stats(), rec.Total())
	secondID := s.Stats().LastTraceID
	if secondID != firstID+1 {
		t.Fatalf("batch solve ids not sequential: %d then %d", firstID, secondID)
	}
	// Every retained step carries the solve id of the batch it ran in.
	for _, step := range rec.Steps() {
		if step.Solve != firstID && step.Solve != secondID {
			t.Fatalf("step solve id %d not in {%d,%d}", step.Solve, firstID, secondID)
		}
	}

	// Sessions thread ids through their own stats stream too.
	ses := s.NewSession()
	if err := ses.SolveBatchContext(context.Background(), bb, xb, k); err != nil {
		t.Fatal(err)
	}
	if got := ses.Stats().LastTraceID; got != secondID+1 {
		t.Fatalf("session batch id = %d, want %d", got, secondID+1)
	}
	instrumented("Session.SolveBatchContext", ses.Stats(), int64(steps))
	ses.SolveBatch(bb, xb, k)
	instrumented("Session.SolveBatch", ses.Stats(), int64(2*steps))
	if got := rec.Total(); got != int64(4*steps) {
		t.Fatalf("after the session batches recorded %d steps, want %d", got, 4*steps)
	}

	// Without a recorder the id stays zero — the untraced marker.
	s2, b2, x2 := traceTestSolver(t, nil)
	s2.Solve(b2, x2)
	if got := s2.Stats().LastTraceID; got != 0 {
		t.Fatalf("untraced solve set LastTraceID = %d", got)
	}
}
