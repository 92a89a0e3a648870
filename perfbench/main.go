// Command perfbench is the repository benchmark. It runs one workload
// for a fixed time against the library and daemon built from the
// surrounding checkout, verifies every output, and prints its metrics as
// the last line of standard output:
//
//	{"correct": true, "attempted": N, "failed": 0, "metrics": {...}}
//
// With -trace 0 the metrics are the end-to-end ones; with -trace 1 the
// run is split into an untraced and a traced half and the metrics are
// the per-layer ones, and a Chrome trace_event file of the traced half is
// written under .bench_build/perfbench. Inputs are generated from -seed
// before any clock starts. See WORKLOADS.md for what each workload
// exercises and what each metric should move.
//
// Usage (from the repository root; run.sh builds and runs it):
//
//	bash perfbench/run.sh -rate 50 -workload lib-repeat -seed 4101 -seconds 25 -trace 0
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"time"

	"github.com/sss-lab/blocksptrsv"
)

// config is one run's settings.
type config struct {
	workload string
	seed     int64
	seconds  float64
	trace    bool
	rate     float64 // daemon-json phase-A offered rate, requests/s
	gitSHA   string
}

// outDir is where trace files go, relative to the repository root the
// benchmark runs from; run.sh keeps its build there too.
var outDir = filepath.Join(".bench_build", "perfbench")

// traceFile is the Chrome trace_event file of a traced run.
func traceFile(cfg config) string {
	return filepath.Join(outDir, fmt.Sprintf("trace-%s-%d.json", cfg.workload, cfg.seed))
}

// result is what a workload measured. e2e holds the end-to-end metrics by
// their BENCHMARK.json names; named holds the same measurements under the
// names the workload documents them by (solve_us, refresh_ms, ...), for
// the human-readable summary; layer holds the per-layer metrics.
type result struct {
	attempted, failed int64
	e2e               map[string]float64
	named             map[string]float64
	layer             map[string]float64
	invalid           string // non-empty: the run's numbers cannot be trusted
}

func newResult() *result {
	return &result{e2e: map[string]float64{}, named: map[string]float64{}, layer: map[string]float64{}}
}

// workloads maps each workload name to its measuring function. A function
// measures the end-to-end metrics over cfg.seconds; when cfg.trace is set
// it also fills every per-layer metric.
var workloads = map[string]func(cfg config) (*result, error){
	"lib-repeat":   runLibRepeat,
	"lib-refactor": runLibRefactor,
	"daemon-json":  runDaemonJSON,
}

func main() {
	var cfg config
	var traceFlag int
	flag.StringVar(&cfg.workload, "workload", "", "workload: lib-repeat, lib-refactor, daemon-json, or all")
	flag.Int64Var(&cfg.seed, "seed", 4101, "input seed; 4101 reproduces the suite corpus")
	flag.Float64Var(&cfg.seconds, "seconds", 20, "measuring time of the run")
	flag.IntVar(&traceFlag, "trace", 0, "1 = per-layer metrics from a traced run")
	flag.Float64Var(&cfg.rate, "rate", 0, "daemon-json open-loop offered rate in requests/s (fixed in BENCHMARK.json)")
	flag.StringVar(&cfg.gitSHA, "git-sha", "unknown", "commit the program was built from")
	flag.Parse()
	cfg.trace = traceFlag == 1
	if traceFlag != 0 && traceFlag != 1 {
		fmt.Fprintln(os.Stderr, "perfbench: -trace must be 0 or 1")
		os.Exit(2)
	}
	if err := run(cfg); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
}

func run(cfg config) error {
	if cfg.seconds <= 0 || (cfg.rate <= 0 && (cfg.workload == "daemon-json" || cfg.workload == "all")) {
		return fmt.Errorf("need -seconds > 0 and, for daemon-json, -rate > 0")
	}
	if err := os.MkdirAll(outDir, 0o755); err != nil {
		return fmt.Errorf("creating output directory: %w", err)
	}
	names := []string{cfg.workload}
	if cfg.workload == "all" {
		names = []string{"lib-repeat", "lib-refactor", "daemon-json"}
	}
	var all total
	for _, name := range names {
		fn, ok := workloads[name]
		if !ok {
			return fmt.Errorf("unknown workload %q", name)
		}
		c := cfg
		c.workload = name
		printProvenance(c)
		res, err := fn(c)
		if err != nil {
			return fmt.Errorf("%s: %w", name, err)
		}
		printDiagnostics("host_probe_ms", hostProbe())
		printSummary(name, res)
		prefix := ""
		if len(names) > 1 {
			prefix = name + "."
		}
		all.attempted += res.attempted
		all.failed += res.failed
		if res.invalid != "" {
			all.invalid = res.invalid
		}
		defs, got := endToEnd, res.e2e
		if cfg.trace {
			defs, got = perLayer(), res.layer
		} else if len(got) != len(defs) {
			return fmt.Errorf("%s: measured %d of the %d end-to-end metrics", name, len(got), len(defs))
		}
		metrics, err := complete(defs, got)
		if err != nil {
			return fmt.Errorf("%s: %w", name, err)
		}
		for k, v := range metrics {
			all.metrics = append(all.metrics, printed{prefix + k, unitOf(defs, k), v})
		}
	}
	return printResult(all)
}

// provenance records what produced a run's numbers.
type provenance struct {
	Workload       string   `json:"workload"`
	Seed           int64    `json:"seed"`
	Seconds        float64  `json:"seconds"`
	Trace          bool     `json:"trace"`
	NProc          int      `json:"nproc"`
	GOMAXPROCS     int      `json:"gomaxprocs"`
	DefaultWorkers int      `json:"default_workers"`
	GoVersion      string   `json:"go_version"`
	GitSHA         string   `json:"git_sha"`
	OfferedRate    float64  `json:"offered_rate_rps,omitempty"`
	Phases         string   `json:"phases"`
	Warnings       []string `json:"warnings,omitempty"`
}

func printProvenance(cfg config) {
	p := provenance{
		Workload: cfg.workload, Seed: cfg.seed, Seconds: cfg.seconds, Trace: cfg.trace,
		NProc: runtime.NumCPU(), GOMAXPROCS: runtime.GOMAXPROCS(0),
		DefaultWorkers: blocksptrsv.DefaultOptions(0).Workers,
		GoVersion:      runtime.Version(), GitSHA: cfg.gitSHA,
		Phases: phaseDescription(cfg),
	}
	if cfg.workload == "daemon-json" {
		p.OfferedRate = cfg.rate
	}
	if p.DefaultWorkers > p.GOMAXPROCS {
		w := fmt.Sprintf("DefaultOptions(0) resolves to %d workers on GOMAXPROCS=%d: spin workers oversubscribe the Ps", p.DefaultWorkers, p.GOMAXPROCS)
		p.Warnings = append(p.Warnings, w)
		fmt.Fprintln(os.Stderr, "perfbench: warning:", w)
	}
	b, _ := json.Marshal(map[string]provenance{"provenance": p})
	fmt.Println(string(b))
}

// hostProbe times a fixed floating-point loop that calls nothing in the
// program (median of three, in ms). Run after the workload, on a warm
// CPU, it records the speed of the host a run had: on a shared virtual
// machine the host's own speed moves from run to run, and this is how a
// run shows it.
func hostProbe() float64 {
	var ts []float64
	x := 1.0
	for r := 0; r < 3; r++ {
		t0 := time.Now()
		for i := 0; i < 20_000_000; i++ {
			x = x*1.0000001 + 1e-9
		}
		ts = append(ts, ms(time.Since(t0)))
	}
	if math.IsNaN(x) { // keeps the loop from being optimized away
		fmt.Fprintln(os.Stderr, "perfbench: host probe overflowed")
	}
	return median(ts)
}

// phaseDescription states how the run's time is split.
func phaseDescription(cfg config) string {
	s, split := cfg.seconds, ""
	if cfg.trace {
		s /= 2
		split = ", then the same traced"
	}
	switch cfg.workload {
	case "daemon-json":
		pairs, seg := daemonSegments(fromSeconds(s))
		return fmt.Sprintf("%d pairs of an open-loop segment at %.0f req/s and a closed-loop segment with %d clients, %.3fs each, with verification and a timed New+AddMatrix between them%s",
			pairs, cfg.rate, runtime.NumCPU(), seg.Seconds(), split)
	default:
		return fmt.Sprintf("%d rounds of a cold set-up of each class, then %.3fs on each of %d classes%s", rounds, s/float64(rounds*len(classNames)), len(classNames), split)
	}
}

// printSummary prints every metric of the run by name with its unit.
func printSummary(name string, res *result) {
	var parts []string
	for _, k := range sortedKeys(res.e2e) {
		parts = append(parts, fmt.Sprintf("%s=%.4g %s", k, res.e2e[k], unitOf(endToEnd, k)))
	}
	parts = append(parts, "|")
	for _, k := range sortedKeys(res.named) {
		parts = append(parts, fmt.Sprintf("%s=%.4g %s", k, res.named[k], namedUnits[k]))
	}
	parts = append(parts, fmt.Sprintf("(%d failed of %d attempted)", res.failed, res.attempted))
	if res.invalid != "" {
		parts = append(parts, "INVALID: "+res.invalid)
	}
	fmt.Printf("%s: %s\n", name, strings.Join(parts, " "))
}

// total is what the run prints last: the counts summed over its
// workloads and every metric with its final name.
type total struct {
	attempted, failed int64
	invalid           string
	metrics           []printed
}

type printed struct {
	name, unit string
	value      float64
}

// printResult prints the final JSON line.
func printResult(all total) error {
	type metric struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	out := struct {
		Correct   bool              `json:"correct"`
		Attempted int64             `json:"attempted"`
		Failed    int64             `json:"failed"`
		Metrics   map[string]metric `json:"metrics"`
	}{
		Correct:   all.failed == 0 && all.attempted > 0 && all.invalid == "",
		Attempted: all.attempted,
		Failed:    all.failed,
		Metrics:   map[string]metric{},
	}
	for _, m := range all.metrics {
		v := m.value
		if math.IsNaN(v) || math.IsInf(v, 0) {
			// JSON has no infinity; a metric that failures pushed to
			// +Inf prints as a huge finite number, and correct is
			// already false.
			v = math.MaxFloat32
		}
		out.Metrics[m.name] = metric{Value: v, Unit: m.unit}
	}
	b, err := json.Marshal(out)
	if err != nil {
		return fmt.Errorf("encoding result: %w", err)
	}
	fmt.Println(string(b))
	return nil
}

func sortedKeys(m map[string]float64) []string {
	ks := make([]string, 0, len(m))
	for k := range m {
		ks = append(ks, k)
	}
	sort.Strings(ks)
	return ks
}

// printDiagnostics prints a labelled JSON object on its own line, ahead
// of the result line: numbers that explain a run but are not gated.
func printDiagnostics(label string, v any) {
	b, err := json.Marshal(map[string]any{label: v})
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench: diagnostics:", err)
		return
	}
	fmt.Println(string(b))
}
