package obs

// Default is the process-wide registry every built-in instrumentation
// site publishes into; the debug HTTP endpoint serves it at /metrics.
var Default = NewRegistry()

// DefaultRecorder is the process-wide query-profile flight recorder
// (16 slowest + 16 most recent), served at /profilez.
var DefaultRecorder = NewRecorder(16)

// StartProfile begins an execution profile on the default flight
// recorder (nil when collection is disabled).
func StartProfile(name, requestID, fingerprint string) *Profile {
	return DefaultRecorder.Start(name, requestID, fingerprint)
}

// Standard metrics. Each maps to a paper concept (see DESIGN.md §8):
// prunes are Proposition 3.2 signature satisfaction failures, cap hits
// are the super-optimistic fan-out cap of Section 3.3 (10), flips and
// fallbacks are the Section 4.3 recovery states 2 and 3, and mode
// mispredictions measure model α (Figure 11).
var (
	// --- package psi: evaluator work counters (flushed via PublishStats) ---

	PSIRecursions         = Default.Counter("psi_recursions_total", "backtracking steps entered by the PSI evaluators")
	PSICandidates         = Default.Counter("psi_candidates_total", "candidate bindings examined")
	PSIEdgeLabelRejects   = Default.Counter("psi_edge_label_rejects_total", "candidates rejected because their anchor edge has the wrong label")
	PSIInjectivityRejects = Default.Counter("psi_injectivity_rejects_total", "candidates rejected because they are already bound to another query node")
	PSIAdjacencyRejects   = Default.Counter("psi_adjacency_rejects_total", "candidates rejected for a missing edge to a bound non-anchor node")
	PSIFilterPrunes       = Default.Counter("psi_filter_prunes_total", "candidates outside their query node's candidate filter set (a kept artifact's evaluator)")
	PSISigPrunes          = Default.Counter("psi_sig_prunes_total", "candidates pruned by Proposition 3.2 signature satisfaction")
	PSIDegPrunes          = Default.Counter("psi_deg_prunes_total", "candidates pruned by the degree lower bound (pessimistic, Section 3.4)")
	PSISorts              = Default.Counter("psi_sorts_total", "optimistic candidate tails sorted (after the first few are selected)")
	PSIScoreCalcs         = Default.Counter("psi_score_calcs_total", "satisfiability scores computed")
	PSICapHits            = Default.Counter("psi_cap_hits_total", "super-optimistic candidate-cap truncations (cap 10, Section 3.3)")
	PSIMatches            = Default.Counter("psi_matches_total", "full query embeddings found (successful pivot evaluations)")
	PSIDeadlineHits       = Default.Counter("psi_deadline_aborts_total", "evaluations aborted by a deadline")
	PSIStopHits           = Default.Counter("psi_stop_aborts_total", "evaluations aborted by a stop flag (two-threaded racing)")

	// --- package smartpsi: engine, models, cache, preemption ---

	SmartEngineBuilds  = Default.Counter("smartpsi_engine_builds_total", "engines constructed (signature startup phases)")
	SmartSigBuildSecs  = Default.Histogram("smartpsi_signature_build_seconds", "one-off signature construction time (Figure 8)", LatencyBuckets)
	SmartQueries       = Default.Counter("smartpsi_queries_total", "SmartPSI query evaluations started")
	SmartQueriesML     = Default.Counter("smartpsi_ml_queries_total", "queries large enough to train per-query models")
	SmartTrainedNodes  = Default.Counter("smartpsi_trained_nodes_total", "training-set nodes evaluated for model fitting")
	SmartCacheHits     = Default.Counter("smartpsi_cache_hits_total", "candidates whose decision slot held a decision (Section 4.2.3 prediction memo)")
	SmartCacheMisses   = Default.Counter("smartpsi_cache_misses_total", "candidates predicted afresh (empty or absent decision slot)")
	SmartFlips         = Default.Counter("smartpsi_flips_total", "state-2 recoveries: re-evaluation with the opposite method")
	SmartFallbacks     = Default.Counter("smartpsi_fallbacks_total", "state-3 recoveries: heuristic-plan restarts")
	SmartRecoveries    = Default.Counter("smartpsi_recoveries_total", "total recovery transitions (flips + fallbacks)")
	SmartModeChecks    = Default.Counter("smartpsi_mode_predictions_total", "model α predictions scored against ground truth")
	SmartMispredicts   = Default.Counter("smartpsi_mode_mispredictions_total", "model α predictions contradicted by ground truth (Figure 11)")
	SmartQuerySeconds  = Default.Histogram("smartpsi_query_seconds", "end-to-end SmartPSI query latency", LatencyBuckets)
	SmartTrainSeconds  = Default.Histogram("smartpsi_train_seconds", "per-query model training time (Table 4 overhead)", LatencyBuckets)
	SmartPlanSeconds   = Default.Histogram("smartpsi_plan_eval_seconds", "time of one finished candidate evaluation, training sweep or execute attempt, over every method and plan", LatencyBuckets)
	SmartRecursionDist = Default.Histogram("smartpsi_query_recursions", "per-query recursion totals", CountBuckets)

	// --- package smartpsi: the engine's prepared-query cache (updated unconditionally, like the serving-path metrics below) ---

	SmartPreparedHits       = Default.Counter("smartpsi_prepared_hits_total", "ML-path queries served warm: a verified-equal query's prepared and trained artifact was reused")
	SmartPreparedMisses     = Default.Counter("smartpsi_prepared_misses_total", "ML-path queries that prepared and trained cold (no artifact, or a key match that failed verification)")
	SmartPreparedMismatches = Default.Counter("smartpsi_prepared_mismatches_total", "prepared-cache key matches whose stored query was not equal to the request's (64-bit hash collisions; also counted as misses)")
	SmartPreparedEvictions  = Default.Counter("smartpsi_prepared_evictions_total", "artifacts evicted from the prepared-query cache by its entry or byte cap")
	SmartPreparedBytes      = Default.Gauge("smartpsi_prepared_bytes", "bytes charged to retained prepared-query artifacts (both layouts of each forest + decision slots), summed over this process's engines")

	// --- package smartpsi: model β scored against the training sweeps (/modelz reads these) ---

	SmartBetaRankChecks = Default.Counter("smartpsi_beta_rank_checks_total", "model-β predictions scored against the per-plan training sweeps")
	SmartBetaRankTop1   = Default.Counter("smartpsi_beta_rank_top1_total", "model-β predictions that picked the sweep's fastest plan")

	// --- package server: the psi-serve query service ---
	//
	// Unlike the evaluator instrumentation above, the serving-path
	// metrics are updated unconditionally (no Enabled() gate): a serving
	// process always runs with collection on (cmd/psi-serve enables it
	// at startup), per-request atomic adds are noise next to an HTTP
	// round trip, and the in-flight/queue gauges must never drift if
	// collection is toggled mid-flight.

	ServerRequests     = Default.Counter("server_requests_total", "HTTP requests accepted on /v1/psi and /v1/psi/batch")
	ServerQueries      = Default.Counter("server_queries_total", "queries answered or rejected on /v1/psi and /v1/psi/batch (one per query, plus one per drain-rejected request): the availability SLO's denominator")
	ServerBatchQueries = Default.Counter("server_batch_queries_total", "individual queries submitted through /v1/psi/batch")
	ServerInFlight     = Default.Gauge("server_inflight", "admitted queries currently evaluating (holding a worker slot)")
	ServerQueueDepth   = Default.Gauge("server_queue_depth", "queries waiting in the bounded admission queue")
	ServerShed         = Default.Counter("server_shed_total", "queries rejected 429 because the admission queue was full (load shedding)")
	ServerDrainRejects = Default.Counter("server_drain_rejects_total", "requests rejected 503 while the server was draining")
	ServerDeadlineHits = Default.Counter("server_deadline_hits_total", "queries that exceeded their deadline (504), queued or evaluating")
	ServerBadRequests  = Default.Counter("server_bad_requests_total", "malformed or oversized requests rejected 4xx before admission")
	ServerPanics       = Default.Counter("server_panics_total", "request-scoped panics recovered into 500 responses")
	ServerDraining     = Default.Gauge("server_draining", "1 while a graceful drain is in progress or complete, else 0")
	ServerPSISeconds   = Default.Histogram("server_psi_seconds", "per-request latency of /v1/psi (admission wait + evaluation + encode)", LatencyBuckets)
	ServerBatchSeconds = Default.Histogram("server_batch_seconds", "per-request latency of /v1/psi/batch", LatencyBuckets)
	ServerAdmitWait    = Default.Histogram("server_admission_wait_seconds", "time spent queued before acquiring a worker slot", LatencyBuckets)
	ServerBatchSize    = Default.Histogram("server_batch_size", "queries per /v1/psi/batch request", CountBuckets)
	ServerPartials     = Default.Counter("server_partial_total", "200 responses served with partial=true (at least one shard's answer missing)")

	// --- package shard: scatter-gather serving across graph shards ---

	ShardScatters   = Default.Counter("shard_scatter_total", "queries scattered to all shards for evaluation")
	ShardPartials   = Default.Counter("shard_scatter_partial_total", "scatters that lost at least one shard (error or timeout) and returned partial results")
	ShardDupDrops   = Default.Counter("shard_dup_bindings_total", "duplicate pivot bindings dropped at gather (ownership overlap; should stay 0)")
	ShardGatherSecs = Default.Histogram("shard_gather_seconds", "wall time of a full scatter-gather evaluation, slowest shard included", LatencyBuckets)
	ShardCount      = Default.Gauge("shard_count", "shards this process scatters to (0 when serving a single unsharded engine)")

	// --- package fsm: frequent-subgraph-mining support counting ---

	FSMSupportCalls    = Default.Counter("fsm_support_calls_total", "MNI support evaluations")
	FSMSupportFrequent = Default.Counter("fsm_support_frequent_total", "support evaluations that reached the threshold")
	FSMSupportEvals    = Default.Counter("fsm_support_candidate_evals_total", "candidate PSI evaluations during support counting")
	FSMSupportSeconds  = Default.Histogram("fsm_support_seconds", "per-pattern support evaluation time", LatencyBuckets)
)
