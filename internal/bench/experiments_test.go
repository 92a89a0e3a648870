package bench

import (
	"bytes"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"testing"

	"github.com/sss-lab/blocksptrsv/internal/adapt"
	"github.com/sss-lab/blocksptrsv/internal/exec"
)

// fullParams exercises every code path of the heavy experiments at the
// smallest usable scale: two (tiny) devices, fitted thresholds,
// calibration and CSV output.
func fullParams(t *testing.T) Params {
	t.Helper()
	return Params{
		Scale:         0.01,
		Repeats:       1,
		Warmup:        0,
		Devices:       []exec.Device{{Name: "covS", Workers: 2, BlockFactor: 64}, {Name: "covL", Workers: 3, BlockFactor: 64}},
		FitThresholds: false,
		Calibrate:     true,
		CSVDir:        t.TempDir(),
	}
}

func TestFigure7WithCSV(t *testing.T) {
	if testing.Short() {
		t.Skip("timing experiment")
	}
	p := fullParams(t)
	var buf bytes.Buffer
	if err := Figure7(&buf, p); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	for _, want := range []string{"covS", "covL", "median", "M"} {
		if !strings.Contains(out, want) {
			t.Fatalf("figure 7 missing %q", want)
		}
	}
	data, err := os.ReadFile(filepath.Join(p.CSVDir, "fig7.csv"))
	if err != nil {
		t.Fatal(err)
	}
	if !strings.HasPrefix(string(data), "device,algorithm,matrix,double_over_single_ratio") {
		t.Fatalf("fig7.csv header wrong: %.80s", data)
	}
	if strings.Count(string(data), "\n") < 10 {
		t.Fatal("fig7.csv too short")
	}
}

func TestFigure6WithCSVAndCalibration(t *testing.T) {
	if testing.Short() {
		t.Skip("timing experiment")
	}
	p := fullParams(t)
	p.Devices = p.Devices[:1]
	var buf bytes.Buffer
	if err := Figure6(&buf, p); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), "speedup distribution") {
		t.Fatal("histogram missing")
	}
	data, err := os.ReadFile(filepath.Join(p.CSVDir, "fig6.csv"))
	if err != nil {
		t.Fatal(err)
	}
	lines := strings.Count(string(data), "\n")
	// 3 algorithms per corpus matrix plus the header.
	if lines < 30 {
		t.Fatalf("fig6.csv has %d lines", lines)
	}
}

func TestFigure4CSV(t *testing.T) {
	if testing.Short() {
		t.Skip("timing experiment")
	}
	p := fullParams(t)
	var buf bytes.Buffer
	if err := Figure4(&buf, p); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(filepath.Join(p.CSVDir, "fig4.csv"))
	if err != nil {
		t.Fatal(err)
	}
	// 2 matrices × 6 part counts × 3 kinds + header.
	if got := strings.Count(string(data), "\n"); got != 37 {
		t.Fatalf("fig4.csv has %d lines, want 37", got)
	}
}

func TestAblationRuns(t *testing.T) {
	if testing.Short() {
		t.Skip("timing experiment")
	}
	p := fullParams(t)
	var buf bytes.Buffer
	if err := Run("ablation", &buf, p); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	for _, want := range []string{
		"level-set reordering", "pinned kernels", "DCSR vs CSR",
		"vector vs scalar", "recursion depth", "batched multi-rhs",
	} {
		if !strings.Contains(out, want) {
			t.Fatalf("ablation missing %q", want)
		}
	}
}

func TestFitThresholdsForSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("timing sweep")
	}
	p := fullParams(t)
	th := fitThresholdsFor(exec.NewPool(2), p)
	// The fitted tree must still classify every feature point.
	if k := th.SelectSpMV(adapt.SpMVFeatures{NNZPerRow: 4, EmptyRatio: 0.1}); k.String() == "unknown" {
		t.Fatal("fitted thresholds broken")
	}
	if k := th.SelectTri(adapt.TriFeatures{NNZPerRow: 4, NLevels: 100}); k.String() == "unknown" {
		t.Fatal("fitted tri thresholds broken")
	}
}

func TestWriteCSVDisabled(t *testing.T) {
	if err := writeCSV("", "x", [][]string{{"a"}}); err != nil {
		t.Fatal(err)
	}
	if err := writeCSV("/nonexistent-root-dir/\x00bad", "x", [][]string{{"a"}}); err == nil {
		t.Fatal("expected error for bad dir")
	}
}

func TestScalingRuns(t *testing.T) {
	if testing.Short() {
		t.Skip("timing experiment")
	}
	p := fullParams(t)
	p.Devices = p.Devices[:1]
	var buf bytes.Buffer
	if err := Run("scaling", &buf, p); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	if !strings.Contains(out, "grid5") || !strings.Contains(out, "powerlaw") {
		t.Fatalf("scaling families missing:\n%s", out)
	}
}

// TestSelectionAgreementSuite reports, over the suite corpus with the
// default device and workers, how often the default plan's cost-model
// kernel choice agrees with the calibrator's (run with -v to see the
// table). The agreement itself is a measurement, so only its bookkeeping
// is asserted.
func TestSelectionAgreementSuite(t *testing.T) {
	if testing.Short() {
		t.Skip("timing experiment")
	}
	dev := exec.DefaultDevices()[1]
	pool := exec.NewSpinPool(dev.Workers)
	defer pool.Close()
	var buf bytes.Buffer
	a, err := selectionAgreement(&buf, dev, pool, suiteEntries(CorpusScale, false), 1, 3)
	if err != nil {
		t.Fatal(err)
	}
	t.Logf("GOMAXPROCS=%d workers=%d\n%s", runtime.GOMAXPROCS(0), pool.Workers(), buf.String())
	if a.Blocks == 0 || a.Same+a.Near > a.Blocks {
		t.Fatalf("bookkeeping: %+v", a)
	}
}
