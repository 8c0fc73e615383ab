package main

// metricSpec is a metric as BENCHMARK.json declares it.
type metricSpec struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound,omitempty"`
}

// endToEnd are the metrics an untraced run reports on every workload,
// in host time. latency_ms is the median of the workload's operations
// and throughput counts its items per second; each workload has one
// kind of operation and item (README.md lists them). The bounds are
// wide because the host is: on the 2-vCPU virtual machine the benchmark
// was built on, the same workload ran up to 1.8 times slower from one
// minute to the next, and the spread between the quartiles of ten runs
// reached 0.3 (README.md lists every measured spread).
var endToEnd = []metricSpec{
	{"setup_s", "s", "lower", 0.25},
	{"peak_rss_mb", "MB", "lower", 0.20},
	{"latency_ms", "ms", "lower", 0.25},
	{"throughput", "items/s", "higher", 0.25},
}

// perLayer are the metrics a traced run reports on every workload. A
// layer the workload does not touch reads 0 for its span- and
// counter-derived values; probe values (direct calls into the layer's
// public functions) are measured on every workload.
var perLayer = []metricSpec{
	{"core.analyze_self_s", "s", "lower", 0},
	{"core.analyses", "count", "lower", 0},
	{"core.fault_groups", "count", "lower", 0},
	{"core.packed_rows", "count", "lower", 0},
	{"core.ms_per_analysis", "ms", "lower", 0},
	{"core.alloc_mb_per_analysis", "MB", "lower", 0},
	{"core.avf_ms.l1-way2-2x1", "ms", "lower", 0},
	{"core.avf_ms.l2-way2-2x1", "ms", "lower", 0},
	{"core.avf_ms.vgpr-tx4-4x1", "ms", "lower", 0},
	{"core.ser_ms.vgpr-tx4", "ms", "lower", 0},
	{"experiments.exp_self_s", "s", "lower", 0},
	{"sim.simulate_self_s", "s", "lower", 0},
	{"sim.execute_ms", "ms", "lower", 0},
	{"sim.finalize_ms", "ms", "lower", 0},
	{"sim.ns_per_instr", "ns", "lower", 0},
	{"sim.alloc_mb", "MB", "lower", 0},
	{"sim.execute_functional_ms", "ms", "lower", 0},
	{"gpu.instructions", "count", "lower", 0},
	{"gpu.cycles", "count", "lower", 0},
	{"gpu.stall_cycles", "count", "lower", 0},
	{"cache.l1.hits", "count", "higher", 0},
	{"cache.l1.misses", "count", "lower", 0},
	{"cache.l2.hits", "count", "higher", 0},
	{"cache.l2.misses", "count", "lower", 0},
	{"lifetime.segments", "count", "lower", 0},
	{"store.encode_ms", "ms", "lower", 0},
	{"store.put_ms", "ms", "lower", 0},
	{"store.artifact_mb", "MB", "lower", 0},
	{"store.parse_ms", "ms", "lower", 0},
	{"store.decode_ms.graph", "ms", "lower", 0},
	{"store.decode_ms.l1", "ms", "lower", 0},
	{"store.decode_ms.l2", "ms", "lower", 0},
	{"store.decode_ms.vgpr", "ms", "lower", 0},
	{"store.decode_p50_ms", "ms", "lower", 0},
	{"store.remote_kb_per_query", "KB", "lower", 0},
	{"store.range_reads_per_query", "count", "lower", 0},
	{"serve.result_hit_ratio", "ratio", "higher", 0},
	{"serve.answers", "count", "higher", 0},
	{"serve.simulations", "count", "lower", 0},
	{"serve.http_self_ms_per_req", "ms", "lower", 0},
	{"serve.avf_p50_ms", "ms", "lower", 0},
	{"serve.batch_p50_ms", "ms", "lower", 0},
	{"serve.ser_p50_ms", "ms", "lower", 0},
	{"inject.shots", "count", "higher", 0},
	{"inject.outcome.masked", "count", "higher", 0},
	{"inject.outcome.sdc", "count", "lower", 0},
	{"inject.outcome.due", "count", "lower", 0},
	{"inject.outcome.hang", "count", "lower", 0},
	{"inject.outcome.crash", "count", "lower", 0},
	{"inject.infra_errors", "count", "lower", 0},
	{"inject.shot_p50_ms", "ms", "lower", 0},
	{"inject.shot_p99_ms", "ms", "lower", 0},
	{"inject.golden_ms", "ms", "lower", 0},
	{"trace.overhead", "ratio", "lower", 0},
}

// layerMetrics assembles the per-layer metrics of a traced run from the
// traced phase's tally, counters, histogram quantiles (p50, p99) and
// span self times, and the probes (which include trace.overhead).
func layerMetrics(traced *tally, counters map[string]uint64, hists map[string][2]uint64,
	stats map[string]*spanStat, probes map[string]float64) map[string]metric {
	v := map[string]float64{}
	for k, x := range probes {
		v[k] = x
	}
	layers := layerTimes(stats)
	self := func(layer string) (seconds float64, spans int) {
		if st := layers[layer]; st != nil {
			return st.Self / 1e6, st.Count
		}
		return 0, 0
	}
	perSpanMS := func(layer string) float64 {
		if s, n := self(layer); n > 0 {
			return s * 1e3 / float64(n)
		}
		return 0
	}
	p50 := func(xs []float64) float64 {
		if len(xs) == 0 {
			return 0
		}
		return median(xs)
	}

	v["core.analyze_self_s"], _ = self("core")
	v["core.ms_per_analysis"] = perSpanMS("core")
	v["experiments.exp_self_s"], _ = self("experiments")
	v["sim.simulate_self_s"], _ = self("sim")
	v["serve.http_self_ms_per_req"] = perSpanMS("serve")
	for _, c := range []string{"core.analyses", "core.fault_groups", "core.packed_rows", "serve.simulations",
		"inject.shots", "inject.infra_errors", "inject.outcome.masked", "inject.outcome.sdc",
		"inject.outcome.due", "inject.outcome.hang", "inject.outcome.crash"} {
		v[c] = float64(counters[c])
	}
	if a := traced.counts["answers"]; a > 0 {
		v["serve.answers"] = float64(a)
		v["serve.result_hit_ratio"] = float64(traced.counts["cached"]) / float64(a)
	}
	v["serve.avf_p50_ms"] = p50(traced.samplesOf("avf-hit", "avf:l1", "avf:l2", "avf:vgpr"))
	v["serve.batch_p50_ms"] = p50(traced.samplesOf("batch"))
	v["serve.ser_p50_ms"] = p50(traced.samplesOf("ser"))
	if q, ok := hists["inject.shot_ns"]; ok {
		v["inject.shot_p50_ms"] = float64(q[0]) / 1e6
		v["inject.shot_p99_ms"] = float64(q[1]) / 1e6
	}
	out := map[string]metric{}
	for _, m := range perLayer {
		out[m.Name] = metric{v[m.Name], m.Unit}
	}
	return out
}
