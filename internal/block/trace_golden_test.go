package block

import (
	"bytes"
	"flag"
	"os"
	"path/filepath"
	"testing"
	"time"

	"github.com/sss-lab/blocksptrsv/internal/kernels"
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

// TestTraceExportGolden pins the exact bytes of both TraceRecorder
// exports on fixed records, first with the ring partly filled and then
// after it has wrapped, so storage changes cannot alter what users load
// into chrome://tracing or read in the table.
func TestTraceExportGolden(t *testing.T) {
	rec := NewTraceRecorder(5)
	tri := stepMeta{block: 0, rows: 120, cols: 120, nnz: 410, levels: 17, kind: triSeg}
	sq := stepMeta{block: 1, rows: 80, cols: 120, nnz: 2333, kind: sqSeg}
	tri2 := stepMeta{block: 2, rows: 80, cols: 80, nnz: 80, levels: 1, kind: triSeg}
	step := func(solve int64, i int, m stepMeta, kernel uint8, startNs, durNs int64) {
		rec.record(solve, i, m, kernel, rec.epoch.Add(time.Duration(startNs)), time.Duration(durNs))
	}
	solve := func(solve int64, base int64) {
		step(solve, 0, tri, uint8(kernels.TriLevelSet), base, 12345)
		step(solve, 1, sq, uint8(kernels.SpMVVectorCSR), base+12400, 987)
		step(solve, 2, tri2, uint8(kernels.TriCompletelyParallel), base+13500, 1500001)
	}
	var out bytes.Buffer
	export := func(label string) {
		out.WriteString("== " + label + " chrome ==\n")
		if err := rec.WriteChromeTrace(&out); err != nil {
			t.Fatal(err)
		}
		out.WriteString("== " + label + " table ==\n")
		if err := rec.WriteTable(&out); err != nil {
			t.Fatal(err)
		}
	}
	export("empty")
	solve(1, 1000)
	export("partial")
	solve(2, 2_000_000)
	solve(3, 3_500_001)
	export("wrapped")
	checkGolden(t, "trace_export.golden", out.Bytes())
}
