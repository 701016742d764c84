package main

// metricSpec names one metric. BENCHMARK.json must list exactly these
// (TestBenchmarkJSONMatchesList); README.md's glossary says which
// layer each belongs to and which end-to-end metric it should move.
type metricSpec struct {
	name, unit, better string
}

// endToEnd are the metrics a caller of the service would see, per
// workload, always measured with tracing off.
var endToEnd = []metricSpec{
	{"qps", "1/s", "higher"},
	{"p50_ms", "ms", "lower"},
	{"p95_ms", "ms", "lower"},
	{"cpu_ms_per_req", "ms", "lower"},
	{"peak_rss_mb", "MB", "lower"},
	{"setup_s", "s", "lower"},
}

// perLayer are the traced run's metrics, outside in.
var perLayer = []metricSpec{
	{"graph.label_lookup_ns", "ns", "lower"},
	{"graph.has_edge_ns", "ns", "lower"},
	{"signature.data_build_ms", "ms", "lower"},
	{"signature.query_build_us", "us", "lower"},
	{"signature.resident_mb", "MB", "lower"},
	{"fsm.fingerprint_us", "us", "lower"},
	{"plan.sample_compile_us", "us", "lower"},
	{"psi.pess_ns_per_candidate", "ns", "lower"},
	{"psi.opt_ns_per_candidate", "ns", "lower"},
	{"psi.recursions_per_candidate", "count", "lower"},
	{"psi.generated_per_recursion", "count", "lower"},
	{"psi.prune_ratio", "ratio", "higher"},
	{"psi.allocs_per_eval", "count", "lower"},
	{"ml.forest_train_ms", "ms", "lower"},
	{"ml.forest_predict_ns", "ns", "lower"},
	{"smartpsi.total_ms", "ms", "lower"},
	{"smartpsi.train_ms", "ms", "lower"},
	{"smartpsi.eval_ms", "ms", "lower"},
	{"smartpsi.model_ms", "ms", "lower"},
	{"smartpsi.prepare_ms", "ms", "lower"},
	{"smartpsi.train_share", "ratio", "lower"},
	{"smartpsi.cache_hit_ratio", "ratio", "higher"},
	{"smartpsi.flips_per_query", "count", "lower"},
	{"smartpsi.fallbacks_per_query", "count", "lower"},
	{"smartpsi.alpha_accuracy", "ratio", "higher"},
	{"smartpsi.allocs_per_query", "count", "lower"},
	{"smartpsi.bytes_per_query", "B", "lower"},
	{"server.handler_ms", "ms", "lower"},
	{"server.overhead_us", "us", "lower"},
	{"server.allocs_per_req", "count", "lower"},
	{"transport.us", "us", "lower"},
	{"shard.scatter_ms", "ms", "lower"},
	{"shard.scatter_overhead_ratio", "ratio", "lower"},
	{"shard.halo_node_ratio", "ratio", "lower"},
	{"shard.build_s", "s", "lower"},
	{"obs.enabled_cost_ratio", "ratio", "lower"},
	{"psi.recursions_per_req", "count", "lower"},
	{"psi.candidates_per_req", "count", "lower"},
	{"smartpsi.trained_nodes_per_req", "count", "lower"},
	{"smartpsi.ml_query_ratio", "ratio", "lower"},
	{"machine.cal_ms", "ms", "lower"},
	{"machine.cal_drift", "ratio", "lower"},
	{"trace.overhead_ratio", "ratio", "lower"},
	{"trace.self_sum_ratio", "ratio", "lower"},
}
