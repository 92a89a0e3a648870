package reqtrace

import (
	"bytes"
	"encoding/json"
	"strings"
	"testing"
	"time"
)

// finishedSpan builds one fully-marked span with deterministic-ish phase
// ordering (real clock, but every boundary is marked in sequence).
func finishedSpan(id, matrix string, o Outcome) (*Span, Record) {
	sp := StartSpan(id)
	sp.Matrix = matrix
	sp.MarkEnqueued()
	sp.MarkDequeued()
	sp.MarkSolveStart(3)
	sp.MarkSolveEnd(42)
	sp.SetDeadline(time.Now().Add(time.Second))
	return sp, sp.Finish(o)
}

func TestSpanPhasesSumToTotal(t *testing.T) {
	_, rec := finishedSpan("", "m", OutcomeOK)
	sum := rec.Admit + rec.QueueWait + rec.Coalesce + rec.Solve + rec.Respond()
	if sum != rec.Total {
		t.Fatalf("phases sum %v != total %v", sum, rec.Total)
	}
	if rec.Batch != 3 || rec.SolveID != 42 {
		t.Fatalf("batch/solve id lost: %+v", rec)
	}
	if !rec.HasDeadline || rec.DeadlineSlack <= 0 {
		t.Fatalf("deadline slack wrong: %+v", rec)
	}
	if rec.Outcome != OutcomeOK {
		t.Fatalf("outcome = %v", rec.Outcome)
	}
}

func TestSpanIDs(t *testing.T) {
	sp := StartSpan("client-supplied-7")
	if sp.ID != "client-supplied-7" {
		t.Fatalf("incoming id not honored: %q", sp.ID)
	}
	a, b := StartSpan(""), StartSpan("")
	if a.ID == "" || a.ID == b.ID {
		t.Fatalf("generated ids not unique: %q %q", a.ID, b.ID)
	}
}

func TestFinishIdempotent(t *testing.T) {
	sp, rec := finishedSpan("x", "m", OutcomeFault)
	time.Sleep(time.Millisecond)
	again := sp.Finish(OutcomeOK)
	if again != rec {
		t.Fatalf("second Finish rewrote the record:\n%+v\n%+v", rec, again)
	}
	if sp.Record() != rec {
		t.Fatal("Record() does not return the folded record")
	}
}

func TestOutcomeNames(t *testing.T) {
	want := map[Outcome]string{
		OutcomeOK: "ok", OutcomeExpired: "expired", OutcomeDeadline: "deadline",
		OutcomeCanceled: "canceled", OutcomeShed: "shed", OutcomeStall: "stall",
		OutcomeResidual: "residual", OutcomeFault: "fault", OutcomeDraining: "draining",
		OutcomeError: "error", OutcomeUnknown: "unknown", Outcome(99): "unknown",
	}
	for o, name := range want {
		if o.String() != name {
			t.Fatalf("%d.String() = %q, want %q", o, o.String(), name)
		}
	}
	if OutcomeOK.Failed() || !OutcomeExpired.Failed() || !OutcomeShed.Failed() {
		t.Fatal("Failed() classification wrong")
	}
}

func TestRingWrapAndDropped(t *testing.T) {
	r := NewRecorder(4)
	for i := 0; i < 7; i++ {
		_, rec := finishedSpan("", "m", OutcomeOK)
		seq := r.Record(rec)
		if seq != uint64(i+1) {
			t.Fatalf("seq = %d, want %d", seq, i+1)
		}
	}
	if r.Len() != 4 || r.Total() != 7 || r.Dropped() != 3 {
		t.Fatalf("len=%d total=%d dropped=%d", r.Len(), r.Total(), r.Dropped())
	}
	recs := r.Records()
	if len(recs) != 4 {
		t.Fatalf("got %d records", len(recs))
	}
	for i, rec := range recs {
		if rec.Seq != uint64(4+i) {
			t.Fatalf("record %d has seq %d, want %d (oldest-first)", i, rec.Seq, 4+i)
		}
	}
}

func TestSnapshotCaptureAndCap(t *testing.T) {
	r := NewRecorder(8)
	_, rec := finishedSpan("victim", "m", OutcomeFault)
	r.Record(rec)
	for i := 0; i < maxSnapshots+2; i++ {
		r.CaptureSnapshot("fault", "victim", "queue m: 3/8")
	}
	snaps := r.Snapshots()
	if len(snaps) != maxSnapshots {
		t.Fatalf("retained %d snapshots, want %d", len(snaps), maxSnapshots)
	}
	if r.SnapshotTotal() != maxSnapshots+2 {
		t.Fatalf("snapshot total = %d", r.SnapshotTotal())
	}
	s := snaps[len(snaps)-1]
	if s.Reason != "fault" || s.RequestID != "victim" || s.Detail != "queue m: 3/8" {
		t.Fatalf("snapshot fields: %+v", s)
	}
	if len(s.Records) != 1 || s.Records[0].ID != "victim" {
		t.Fatalf("snapshot records: %+v", s.Records)
	}
	if !bytes.Contains(s.Goroutines, []byte("goroutine")) {
		t.Fatal("goroutine dump missing")
	}
}

func TestWriteChromeTraceWellFormed(t *testing.T) {
	r := NewRecorder(8)
	_, rec := finishedSpan("req-1", "demo", OutcomeOK)
	r.Record(rec)
	_, rec2 := finishedSpan("req-2", "demo", OutcomeExpired)
	r.Record(rec2)

	var buf bytes.Buffer
	if err := r.WriteChromeTrace(&buf); err != nil {
		t.Fatal(err)
	}
	var tr struct {
		TraceEvents []struct {
			Name string  `json:"name"`
			Cat  string  `json:"cat"`
			Ph   string  `json:"ph"`
			Tid  uint64  `json:"tid"`
			Dur  float64 `json:"dur"`
			Args map[string]any
		} `json:"traceEvents"`
	}
	if err := json.Unmarshal(buf.Bytes(), &tr); err != nil {
		t.Fatalf("chrome trace is not valid JSON: %v\n%s", err, buf.String())
	}
	var requests, phases int
	for _, ev := range tr.TraceEvents {
		if ev.Ph != "X" {
			t.Fatalf("event %q has ph %q", ev.Name, ev.Ph)
		}
		switch ev.Cat {
		case "request":
			requests++
			if ev.Args["id"] == "" || ev.Args["outcome"] == "" {
				t.Fatalf("request event args incomplete: %+v", ev.Args)
			}
		case "phase":
			phases++
		}
	}
	if requests != 2 || phases == 0 {
		t.Fatalf("requests=%d phases=%d", requests, phases)
	}
}

func TestWriteTableAndFlight(t *testing.T) {
	r := NewRecorder(2)
	for i := 0; i < 3; i++ {
		_, rec := finishedSpan("", "demo", OutcomeOK)
		r.Record(rec)
	}
	r.CaptureSnapshot("stall", "some-id", "queue demo: 2/2")

	var buf bytes.Buffer
	if err := r.WriteTable(&buf); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), "dropped by the bounded ring") {
		t.Fatalf("table missing drop note:\n%s", buf.String())
	}

	buf.Reset()
	if err := r.WriteFlight(&buf); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	for _, want := range []string{"flight recorder:", "snapshot 1: stall", "some-id", "queue demo: 2/2", "goroutine"} {
		if !strings.Contains(out, want) {
			t.Fatalf("flight dump missing %q:\n%s", want, out)
		}
	}
}

func TestWriteFlightJSON(t *testing.T) {
	r := NewRecorder(4)
	sp := StartSpan("j1")
	sp.Matrix = "demo"
	sp.MarkEnqueued()
	sp.MarkDequeued()
	sp.MarkSolveStart(2)
	sp.MarkSolveEnd(7)
	r.Record(sp.Finish(OutcomeOK))
	r.CaptureSnapshot("overload-burst", "", "queue demo: 4/4")

	var buf bytes.Buffer
	if err := r.WriteFlightJSON(&buf); err != nil {
		t.Fatal(err)
	}
	var out struct {
		Total   uint64 `json:"total"`
		Records []struct {
			ID          string `json:"id"`
			Outcome     string `json:"outcome"`
			QueueWaitNs int64  `json:"queue_wait_ns"`
			CoalesceNs  int64  `json:"coalesce_ns"`
			SolveNs     int64  `json:"solve_ns"`
			TotalNs     int64  `json:"total_ns"`
			SolveID     int64  `json:"solve_id"`
		} `json:"records"`
		Snapshots []struct {
			Reason     string `json:"reason"`
			Goroutines string `json:"goroutines"`
		} `json:"snapshots"`
	}
	if err := json.Unmarshal(buf.Bytes(), &out); err != nil {
		t.Fatalf("flight JSON invalid: %v", err)
	}
	if out.Total != 1 || len(out.Records) != 1 || out.Records[0].ID != "j1" || out.Records[0].SolveID != 7 {
		t.Fatalf("flight JSON wrong: %+v", out)
	}
	rec := out.Records[0]
	if sum := rec.QueueWaitNs + rec.CoalesceNs + rec.SolveNs; sum > rec.TotalNs {
		t.Fatalf("phases exceed total: %d > %d", sum, rec.TotalNs)
	}
	if len(out.Snapshots) != 1 || out.Snapshots[0].Reason != "overload-burst" || !strings.Contains(out.Snapshots[0].Goroutines, "goroutine") {
		t.Fatalf("snapshots wrong: %+v", out.Snapshots)
	}
}

// TestRecordAllocs pins the flight recorder's request-path cost: marking
// a span, finishing it, and appending the record to the ring allocate
// nothing. Only StartSpan (one *Span plus, for generated ids, the id
// string) allocates, once per request, at ingress.
func TestRecordAllocs(t *testing.T) {
	r := NewRecorder(64)
	sp := StartSpan("pinned")
	sp.Matrix = "m"
	if n := testing.AllocsPerRun(200, func() {
		sp.MarkEnqueued()
		sp.MarkDequeued()
		sp.MarkSolveStart(4)
		sp.MarkSolveEnd(9)
		sp.finished = false
		r.Record(sp.Finish(OutcomeOK))
	}); n != 0 {
		t.Fatalf("record path allocates %.1f times per request, want 0", n)
	}
}

func TestRecorderDefaults(t *testing.T) {
	if got := NewRecorder(0).ring.Cap(); got != 256 {
		t.Fatalf("default capacity = %d, want 256", got)
	}
	if got := NewRecorder(-5).ring.Cap(); got != 256 {
		t.Fatalf("negative capacity gave %d", got)
	}
}
