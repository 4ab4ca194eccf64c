package main

// metricDef declares one reported metric. BENCHMARK.json lists the same
// names, units, directions and bounds; TestBenchmarkJSONMatchesDefs keeps
// the two in step.
type metricDef struct {
	name, unit, better string
	// bound (end-to-end only) is the share of the parent's median by which
	// the metric may worsen before a change counts as a regression.
	bound float64
	// moves (per-layer only) names the end-to-end metric, and the workload,
	// that a change in this layer metric should move.
	moves string
}

// endToEnd are the metrics a user of the serving stack sees, reported by
// every workload from an untraced run.
var endToEnd = []metricDef{
	{name: "qps", unit: "estimates/s", better: "higher", bound: 0.24},
	{name: "estimate_p50_ms", unit: "ms", better: "lower", bound: 0.24},
	{name: "estimate_p99_ms", unit: "ms", better: "lower", bound: 0.24},
	{name: "qerror_p50", unit: "ratio", better: "lower", bound: 0.05},
	{name: "qerror_p90", unit: "ratio", better: "lower", bound: 0.10},
	{name: "setup_s", unit: "s", better: "lower", bound: 0.25},
	{name: "heap_mb", unit: "MiB", better: "lower", bound: 0.05},
}

// perLayer are the metrics of single layers, reported by a traced run.
// Metrics a workload does not exercise (ingest on edge-small, say) read 0.
var perLayer = []metricDef{
	{"wire.overhead_us", "us", "lower", 0, "estimate_p50_ms on edge-small; ~0 share on scan-large"},
	{"httpserve.handler_us", "us", "lower", 0, "estimate_p50_ms on edge-small"},
	{"httpserve.non2xx", "count", "lower", 0, "failed on every workload"},
	{"registry.route_us", "us", "lower", 0, "estimate_p50_ms on edge-small"},
	{"registry.evictions", "count", "lower", 0, "estimate_p99_ms and qerror_p90 on fleet-evict"},
	{"registry.restores", "count", "lower", 0, "estimate_p99_ms and qerror_p90 on fleet-evict"},
	{"registry.restore_ms", "ms", "lower", 0, "estimate_p99_ms on fleet-evict"},
	{"registry.analyze_s", "s", "lower", 0, "estimate_p99_ms and qerror_p90 on fleet-evict"},
	{"serve.wait_us", "us", "lower", 0, "estimate_p50_ms on edge-small; qps on scan-large"},
	{"serve.avg_batch", "queries", "higher", 0, "qps on scan-large"},
	{"serve.coalesce_us", "us", "lower", 0, "estimate_p50_ms on edge-small; qps on scan-large"},
	{"core.snapshot_us", "us", "lower", 0, "estimate_p50_ms on edge-small"},
	{"core.feedback_us", "us", "lower", 0, "qps and estimate_p99_ms on learn-ingest"},
	{"core.minibatch_updates", "count", "higher", 0, "qerror_p50 on learn-ingest"},
	{"core.karma_replacements", "count", "lower", 0, "estimate_p99_ms on learn-ingest"},
	{"core.snapshot_swaps", "count", "lower", 0, "estimate_p99_ms on learn-ingest"},
	{"shard.gather_us", "us", "lower", 0, "estimate_p50_ms on fleet-evict"},
	{"kde.query_us.float64-exact", "us", "lower", 0, "qps on scan-large"},
	{"kde.query_us.float64-fast", "us", "lower", 0, "qps on scan-large"},
	{"kde.query_us.float32", "us", "lower", 0, "qps on scan-large"},
	{"kde.query_us.quantized", "us", "lower", 0, "qps on scan-large"},
	{"kde.ns_per_row_dim.float64-exact", "ns", "lower", 0, "qps on scan-large"},
	{"kde.ns_per_row_dim.float64-fast", "ns", "lower", 0, "qps on scan-large"},
	{"kde.ns_per_row_dim.float32", "ns", "lower", 0, "qps on scan-large"},
	{"kde.ns_per_row_dim.quantized", "ns", "lower", 0, "qps on scan-large"},
	{"kde.bytes_per_query", "bytes", "lower", 0, "qps on scan-large"},
	{"kde.erf_calls_per_query", "calls", "lower", 0, "qps on scan-large"},
	{"kernel.mass_ns_per_row.float64-exact", "ns", "lower", 0, "qps on scan-large"},
	{"kernel.mass_ns_per_row.float64-fast", "ns", "lower", 0, "qps on scan-large"},
	{"kernel.mass_ns_per_row.float32", "ns", "lower", 0, "qps on scan-large"},
	{"kernel.mass_ns_per_row.quantized", "ns", "lower", 0, "qps on scan-large"},
	{"mathx.erf_ns.exact", "ns", "lower", 0, "qps on scan-large"},
	{"mathx.erf_ns.fast", "ns", "lower", 0, "qps on scan-large"},
	{"mathx.erf_ns.fast32", "ns", "lower", 0, "qps on scan-large"},
	{"ingest.lag_max", "mutations", "lower", 0, "estimate_p99_ms on learn-ingest"},
	{"ingest.rows_per_apply", "rows", "higher", 0, "estimate_p99_ms on learn-ingest"},
	{"ingest.republish_saved", "count", "higher", 0, "estimate_p99_ms on learn-ingest"},
	{"ingest.blocked", "count", "lower", 0, "estimate_p99_ms on learn-ingest"},
	{"ingest.p99_ms", "ms", "lower", 0, "estimate_p99_ms on learn-ingest"},
	{"ingest.late_ms", "ms", "lower", 0, "estimate_p99_ms on learn-ingest"},
	{"table.insert_us_per_row", "us", "lower", 0, "estimate_p99_ms on learn-ingest"},
	{"feedback.p50_ms", "ms", "lower", 0, "qps on learn-ingest"},
	{"feedback.p99_ms", "ms", "lower", 0, "qps and estimate_p99_ms on learn-ingest"},
	{"checkpoint.write_ms", "ms", "lower", 0, "estimate_p99_ms on fleet-evict"},
	{"checkpoint.bytes_per_sample_byte", "ratio", "lower", 0, "estimate_p99_ms on fleet-evict"},
	{"bandwidth.build_s", "s", "lower", 0, "setup_s on edge-small"},
	{"ladder.core_direct_us", "us", "lower", 0, "estimate_p50_ms on every workload"},
	{"ladder.core_coalesced_us", "us", "lower", 0, "estimate_p50_ms on every workload"},
	{"ladder.registry_us", "us", "lower", 0, "estimate_p50_ms on every workload"},
	{"ladder.shard_k4_us", "us", "lower", 0, "estimate_p50_ms on fleet-evict"},
	{"ladder.http_us", "us", "lower", 0, "estimate_p50_ms on every workload"},
	{"trace.qps_ratio", "ratio", "higher", 0, "qps: traced over untraced"},
	{"trace.p50_ratio", "ratio", "lower", 0, "estimate_p50_ms: traced over untraced"},
}
