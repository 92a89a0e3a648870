package main

import "fmt"

// metricDef is one metric the benchmark prints, with its unit.
type metricDef struct{ name, unit string }

// endToEnd are the metrics every untraced run prints, on every workload:
// what a user of the library or an operator of sptrsvd sees. Their
// per-workload meaning is in WORKLOADS.md.
var endToEnd = []metricDef{
	{"latency_ms", "ms"},
	{"rhs_per_s", "1/s"},
	{"setup_s", "s"},
}

// namedUnits are the units of the measurements behind the end-to-end
// metrics, under the names each workload documents them by.
var namedUnits = map[string]string{
	"solve_us": "us", "batch_rhs_us": "us", "refresh_ms": "ms", "refresh_rate": "1/s",
	"req_p50_ms": "ms", "req_p99_ms": "ms", "req_closed_p50_ms": "ms", "req_capacity_rps": "1/s",
	"fail_ratio": "ratio",
}

var (
	triKernelNames  = []string{"completely-parallel", "level-set", "sync-free", "cusparse-like", "serial"}
	spmvKernelNames = []string{"scalar-csr", "vector-csr", "scalar-dcsr", "vector-dcsr", "serial"}
)

// perLayer lists every per-layer metric a traced run prints. Every
// traced run prints all of them; a metric of a layer or class the
// workload bypasses reads 0.
func perLayer() []metricDef {
	d := []metricDef{
		{"exec.launch_us", "us"},
		{"exec.workers_over_procs", "ratio"},
		{"exec.goroutines_delta", "count"},
	}
	for _, c := range classNames {
		d = append(d,
			metricDef{"block.analyze_ms." + c, "ms"},
			metricDef{"levelset.analyze_ms." + c, "ms"},
			metricDef{"levelset.nlevels." + c, "count"},
			metricDef{"block.steps_per_solve." + c, "count"})
	}
	d = append(d, metricDef{"block.tri_ms", "ms"}, metricDef{"block.spmv_ms", "ms"})
	for _, k := range triKernelNames {
		d = append(d, metricDef{"kernels.tri." + k + ".ns_per_nnz", "ns"})
	}
	for _, k := range spmvKernelNames {
		d = append(d, metricDef{"kernels.spmv." + k + ".ns_per_nnz", "ns"})
	}
	d = append(d, metricDef{"kernels.bytes_per_solve", "bytes"})
	for _, k := range triKernelNames {
		d = append(d, metricDef{"adapt.tri_blocks." + k, "count"})
	}
	d = append(d,
		metricDef{"adapt.tuned_ratio", "ratio"},
		metricDef{"plancache.key_ms", "ms"},
		metricDef{"plancache.hit_ratio", "ratio"},
		metricDef{"block.refresh_values_ms", "ms"},
		metricDef{"block.plan_decode_ms", "ms"},
		metricDef{"block.plan_bytes", "bytes"},
		metricDef{"daemon.queue_wait_ms.p50", "ms"},
		metricDef{"daemon.queue_wait_ms.p99", "ms"},
		metricDef{"daemon.coalesce_ms.p50", "ms"},
		metricDef{"daemon.solve_ms.p50", "ms"},
		metricDef{"daemon.solve_ms.p99", "ms"},
		metricDef{"daemon.wire_ms.p50", "ms"},
		metricDef{"daemon.wire_ms.p99", "ms"},
		metricDef{"daemon.json_decode_ms", "ms"},
		metricDef{"daemon.json_encode_ms", "ms"},
		metricDef{"daemon.coalesce_factor", "ratio"},
		metricDef{"runtime.alloc_bytes_per_op", "bytes"},
		metricDef{"runtime.gc_per_s", "1/s"},
		metricDef{"loadgen.late_p50_ms", "ms"},
		metricDef{"loadgen.late_p99_ms", "ms"},
		metricDef{"loadgen.late_max_ms", "ms"},
		metricDef{"trace.overhead", "ratio"},
	)
	for _, l := range layers {
		d = append(d, metricDef{"self_share." + l, "ratio"})
	}
	for _, n := range []string{"solve_us", "batch_rhs_us", "refresh_ms", "refresh_rate", "req_p50_ms", "req_p99_ms", "req_closed_p50_ms", "req_capacity_rps", "fail_ratio"} {
		d = append(d, metricDef{"e2e." + n, namedUnits[n]})
	}
	return d
}

// complete returns the metrics of defs taken from got, 0 for any got
// lacks, and an error naming any metric of got that defs does not list.
func complete(defs []metricDef, got map[string]float64) (map[string]float64, error) {
	out := make(map[string]float64, len(defs))
	for _, d := range defs {
		out[d.name] = got[d.name]
	}
	for k := range got {
		if _, ok := out[k]; !ok {
			return nil, fmt.Errorf("metric %q is not declared", k)
		}
	}
	return out, nil
}

func unitOf(defs []metricDef, name string) string {
	for _, d := range defs {
		if d.name == name {
			return d.unit
		}
	}
	return ""
}
