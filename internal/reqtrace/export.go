package reqtrace

import (
	"encoding/json"
	"fmt"
	"io"
	"time"

	"github.com/sss-lab/blocksptrsv/internal/metrics"
)

// Exports: the flight ring as a per-request span tree in Chrome
// trace_event JSON (chrome://tracing, Perfetto), as an aligned text
// table, and as the flight dump — ring plus fault snapshots — in text or
// JSON. All exports copy the ring under its mutex and format outside it.

// WriteChromeTrace writes the retained records as Chrome trace_event
// JSON. Each request is one timeline row (tid = its sequence number)
// carrying a parent "request" span and child spans for each recorded
// phase, so the span tree reads directly off the timeline. Identity,
// batch geometry, the per-step solve id, and the outcome travel in args.
func (r *Recorder) WriteChromeTrace(w io.Writer) error {
	ew := metrics.NewEventWriter(w)
	for _, rec := range r.Records() {
		tid := int64(rec.Seq)
		at := rec.Ingress.Sub(r.epoch)
		args := fmt.Sprintf(`"id":%q,"matrix":%q,"outcome":%q,"batch":%d,"solve_id":%d`,
			rec.ID, rec.Matrix, rec.Outcome, rec.Batch, rec.SolveID)
		if rec.HasDeadline {
			args += fmt.Sprintf(`,"deadline_slack_ns":%d`, rec.DeadlineSlack.Nanoseconds())
		}
		ew.Complete("request", "request", tid, at, rec.Total, args)
		phaseArgs := fmt.Sprintf(`"id":%q`, rec.ID)
		for _, ph := range [...]struct {
			name string
			dur  time.Duration
		}{
			{"admit", rec.Admit},
			{"queue-wait", rec.QueueWait},
			{"coalesce-hold", rec.Coalesce},
			{"solve", rec.Solve},
			{"respond", rec.Respond()},
		} {
			if ph.dur > 0 {
				ew.Complete(ph.name, "phase", tid, at, ph.dur, phaseArgs)
			}
			at += ph.dur
		}
	}
	return ew.Close()
}

// WriteTable writes the retained records as an aligned text table,
// oldest-first.
func (r *Recorder) WriteTable(w io.Writer) error {
	recs := r.Records()
	if _, err := fmt.Fprintf(w, "%6s %-17s %-10s %-8s %5s %8s %12s %12s %12s %12s %12s\n",
		"seq", "id", "matrix", "outcome", "batch", "solve", "queue-wait", "coalesce", "solve-time", "total", "slack"); err != nil {
		return err
	}
	for _, rec := range recs {
		slack := "-"
		if rec.HasDeadline {
			slack = rec.DeadlineSlack.Round(time.Microsecond).String()
		}
		if _, err := fmt.Fprintf(w, "%6d %-17s %-10s %-8s %5d %8d %12v %12v %12v %12v %12s\n",
			rec.Seq, rec.ID, rec.Matrix, rec.Outcome, rec.Batch, rec.SolveID,
			rec.QueueWait.Round(time.Microsecond), rec.Coalesce.Round(time.Microsecond),
			rec.Solve.Round(time.Microsecond), rec.Total.Round(time.Microsecond), slack); err != nil {
			return err
		}
	}
	if d := r.Dropped(); d > 0 {
		if _, err := fmt.Fprintf(w, "(%d older requests dropped by the bounded ring)\n", d); err != nil {
			return err
		}
	}
	return nil
}

// recordJSON is the machine-readable form of a Record.
type recordJSON struct {
	Seq             uint64 `json:"seq"`
	ID              string `json:"id"`
	Matrix          string `json:"matrix"`
	Outcome         string `json:"outcome"`
	Batch           int32  `json:"batch"`
	SolveID         int64  `json:"solve_id"`
	IngressUnixNs   int64  `json:"ingress_unix_ns"`
	AdmitNs         int64  `json:"admit_ns"`
	QueueWaitNs     int64  `json:"queue_wait_ns"`
	CoalesceNs      int64  `json:"coalesce_ns"`
	SolveNs         int64  `json:"solve_ns"`
	RespondNs       int64  `json:"respond_ns"`
	TotalNs         int64  `json:"total_ns"`
	DeadlineSlackNs *int64 `json:"deadline_slack_ns,omitempty"`
}

func recordToJSON(rec Record) recordJSON {
	j := recordJSON{
		Seq:           rec.Seq,
		ID:            rec.ID,
		Matrix:        rec.Matrix,
		Outcome:       rec.Outcome.String(),
		Batch:         rec.Batch,
		SolveID:       rec.SolveID,
		IngressUnixNs: rec.Ingress.UnixNano(),
		AdmitNs:       rec.Admit.Nanoseconds(),
		QueueWaitNs:   rec.QueueWait.Nanoseconds(),
		CoalesceNs:    rec.Coalesce.Nanoseconds(),
		SolveNs:       rec.Solve.Nanoseconds(),
		RespondNs:     rec.Respond().Nanoseconds(),
		TotalNs:       rec.Total.Nanoseconds(),
	}
	if rec.HasDeadline {
		slack := rec.DeadlineSlack.Nanoseconds()
		j.DeadlineSlackNs = &slack
	}
	return j
}

// snapshotJSON is the machine-readable form of a Snapshot.
type snapshotJSON struct {
	WhenUnixNs int64        `json:"when_unix_ns"`
	Reason     string       `json:"reason"`
	RequestID  string       `json:"request_id,omitempty"`
	Detail     string       `json:"detail,omitempty"`
	Records    []recordJSON `json:"records"`
	Goroutines string       `json:"goroutines"`
}

// flightJSON is the /debug/flight?format=json payload.
type flightJSON struct {
	Total     uint64         `json:"total"`
	Dropped   uint64         `json:"dropped"`
	Records   []recordJSON   `json:"records"`
	Snapshots []snapshotJSON `json:"snapshots"`
}

// WriteFlightJSON writes the whole flight state — ring plus snapshots —
// as one JSON object.
func (r *Recorder) WriteFlightJSON(w io.Writer) error {
	recs := r.Records()
	out := flightJSON{Total: r.Total(), Dropped: r.Dropped()}
	out.Records = make([]recordJSON, len(recs))
	for i, rec := range recs {
		out.Records[i] = recordToJSON(rec)
	}
	for _, snap := range r.Snapshots() {
		sj := snapshotJSON{
			WhenUnixNs: snap.When.UnixNano(),
			Reason:     snap.Reason,
			RequestID:  snap.RequestID,
			Detail:     snap.Detail,
			Goroutines: string(snap.Goroutines),
			Records:    make([]recordJSON, len(snap.Records)),
		}
		for i, rec := range snap.Records {
			sj.Records[i] = recordToJSON(rec)
		}
		out.Snapshots = append(out.Snapshots, sj)
	}
	enc := json.NewEncoder(w)
	return enc.Encode(out)
}

// WriteFlight writes the flight dump as text: the request table followed
// by every retained snapshot with its goroutine dump. This is what the
// daemon prints on SIGQUIT and serves at /debug/flight.
func (r *Recorder) WriteFlight(w io.Writer) error {
	if _, err := fmt.Fprintf(w, "flight recorder: %d requests recorded, %d retained, %d snapshots\n\n",
		r.Total(), r.Len(), len(r.Snapshots())); err != nil {
		return err
	}
	if err := r.WriteTable(w); err != nil {
		return err
	}
	for i, snap := range r.Snapshots() {
		if _, err := fmt.Fprintf(w, "\n--- snapshot %d: %s at %s", i+1, snap.Reason, snap.When.Format(time.RFC3339Nano)); err != nil {
			return err
		}
		if snap.RequestID != "" {
			if _, err := fmt.Fprintf(w, " (request %s)", snap.RequestID); err != nil {
				return err
			}
		}
		if _, err := fmt.Fprintln(w, " ---"); err != nil {
			return err
		}
		if snap.Detail != "" {
			if _, err := fmt.Fprintln(w, snap.Detail); err != nil {
				return err
			}
		}
		if _, err := fmt.Fprintf(w, "last %d request records at capture:\n", len(snap.Records)); err != nil {
			return err
		}
		for _, rec := range snap.Records {
			if _, err := fmt.Fprintf(w, "  %6d %-17s %-10s %-8s batch=%d solve=%d total=%v\n",
				rec.Seq, rec.ID, rec.Matrix, rec.Outcome, rec.Batch, rec.SolveID, rec.Total.Round(time.Microsecond)); err != nil {
				return err
			}
		}
		if _, err := fmt.Fprintf(w, "goroutines:\n%s\n", snap.Goroutines); err != nil {
			return err
		}
	}
	return nil
}
