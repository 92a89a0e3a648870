package reqtrace

import (
	"bytes"
	"encoding/json"
	"flag"
	"os"
	"path/filepath"
	"testing"
	"time"
)

var updateGolden = flag.Bool("update", false, "rewrite testdata/*.golden from the current exporters")

// checkGolden compares got against testdata/name, or rewrites the file
// under -update.
func checkGolden(t *testing.T, name string, got []byte) {
	t.Helper()
	path := filepath.Join("testdata", name)
	if *updateGolden {
		if err := os.WriteFile(path, got, 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want) {
		t.Fatalf("%s changed:\n--- got ---\n%s\n--- want ---\n%s", name, got, want)
	}
}

// goldenRecord is the i-th fixed request record: every phase, outcome
// and deadline field is a function of i, so the exports are fully
// deterministic.
func goldenRecord(epoch time.Time, i int) Record {
	d := time.Duration(i)
	rec := Record{
		ID:        "req-" + string(rune('a'+i)),
		Matrix:    []string{"grid", "chain"}[i%2],
		Ingress:   epoch.Add(d * 1_500_123 * time.Nanosecond),
		Admit:     d*1_000 + 333,
		QueueWait: d*20_000 + 4_567,
		Coalesce:  d * 3_000,
		Solve:     d*150_000 + 89,
		Batch:     int32(1 + i%4),
		SolveID:   int64(10 * i),
		Outcome:   []Outcome{OutcomeOK, OutcomeExpired, OutcomeFault, OutcomeShed}[i%4],
	}
	rec.Total = rec.Admit + rec.QueueWait + rec.Coalesce + rec.Solve + d*700
	if i%3 != 2 {
		rec.HasDeadline = true
		rec.DeadlineSlack = time.Millisecond - d*400_017
	}
	return rec
}

// TestExportGolden pins the exact bytes of every flight-recorder export
// on fixed records: WriteChromeTrace and WriteTable with the ring partly
// filled and wrapped, then WriteFlight and WriteFlightJSON with two
// snapshots retained. Only each snapshot's capture instant and goroutine
// dump vary from run to run; they are replaced by placeholders.
func TestExportGolden(t *testing.T) {
	r := NewRecorder(4)
	r.epoch = time.Date(2024, 3, 1, 12, 0, 0, 0, time.UTC)
	var out bytes.Buffer
	export := func(label string) {
		out.WriteString("== " + label + " chrome ==\n")
		if err := r.WriteChromeTrace(&out); err != nil {
			t.Fatal(err)
		}
		out.WriteString("== " + label + " table ==\n")
		if err := r.WriteTable(&out); err != nil {
			t.Fatal(err)
		}
	}
	export("empty")
	for i := 0; i < 3; i++ {
		r.Record(goldenRecord(r.epoch, i))
	}
	export("partial")
	r.CaptureSnapshot("fault", "req-c", "queue grid: 2/8 queued")
	for i := 3; i < 7; i++ {
		r.Record(goldenRecord(r.epoch, i))
	}
	export("wrapped")
	r.CaptureSnapshot("overload-burst", "", "")

	var flight, flightJSON bytes.Buffer
	if err := r.WriteFlight(&flight); err != nil {
		t.Fatal(err)
	}
	if err := r.WriteFlightJSON(&flightJSON); err != nil {
		t.Fatal(err)
	}
	text, js := flight.Bytes(), flightJSON.Bytes()
	for _, snap := range r.Snapshots() {
		text = bytes.Replace(text, []byte(snap.When.Format(time.RFC3339Nano)), []byte("<when>"), 1)
		text = bytes.Replace(text, snap.Goroutines, []byte("<goroutines>"), 1)
		when, _ := json.Marshal(snap.When.UnixNano())
		js = bytes.Replace(js, append([]byte(`"when_unix_ns":`), when...), []byte(`"when_unix_ns":0`), 1)
		dump, _ := json.Marshal(string(snap.Goroutines))
		js = bytes.Replace(js, dump, []byte(`"<goroutines>"`), 1)
	}
	out.WriteString("== flight ==\n")
	out.Write(text)
	out.WriteString("== flight json ==\n")
	out.Write(js)
	checkGolden(t, "export.golden", out.Bytes())
}
