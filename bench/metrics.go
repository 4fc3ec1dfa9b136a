package main

// metricDef names one metric the benchmark prints. BENCHMARK.json lists the
// same names, units and directions (a test holds the two together); bound
// is the share of the parent's median an end-to-end metric may worsen by.
type metricDef struct {
	name, unit, better string
	bound              float64
}

// endToEnd are the metrics a user of the system sees, printed for every
// workload by an untraced run.
//
// Two metrics of the issue are not here. append_p50_us exists on two of the
// five workloads only, and an end-to-end metric is printed for every
// workload, so it is the per-layer ingest.append_p50_us. failed_share is 0
// on a healthy run, and an end-to-end metric may never read 0; the result
// line carries attempted and failed instead, and the per-layer failed_share
// repeats their quotient.
var endToEnd = []metricDef{
	{"setup_s", "s", "lower", 0.25},
	{"qps", "1/s", "higher", 0.10},
	{"p50_us", "us", "lower", 0.10},
	{"p95_us", "us", "lower", 0.25},
	{"rel_err_p50", "ratio", "lower", 0.10},
	{"rel_err_p95", "ratio", "lower", 0.10},
	{"model_bytes", "bytes", "lower", 0.02},
}

// perLayer are the metrics of single layers, printed for every workload by
// a traced run. A metric whose layer the workload does not reach reads 0.
var perLayer = []metricDef{
	{"sqlparse.normalize_ns", "ns", "lower", 0},
	{"sqlparse.normalize_allocs", "count", "lower", 0},
	{"sqlparse.parse_ns", "ns", "lower", 0},
	{"sqlparse.parse_allocs", "count", "lower", 0},

	{"plan.prepare_hit_ns", "ns", "lower", 0},
	{"plan.prepare_miss_ns", "ns", "lower", 0},
	{"plan.query_hit_ns", "ns", "lower", 0},
	{"plan.allocs_per_query", "count", "lower", 0},
	{"plan.bytes_per_query", "bytes", "lower", 0},
	{"plan.cache_hit_ratio", "ratio", "higher", 0},
	{"plan.cache_resets", "count", "lower", 0},
	{"plan.cache_gen_wipes", "count", "lower", 0},
	{"plan.batch64_us", "us", "lower", 0},
	{"router.model_share", "ratio", "higher", 0},
	{"router.within_p50_us", "us", "lower", 0},

	{"exec.run_plain_us", "us", "lower", 0},
	{"exec.run_nominal_us", "us", "lower", 0},
	{"exec.run_sharded_us", "us", "lower", 0},
	{"exec.run_percentile_us", "us", "lower", 0},
	{"exec.run_grouped_us", "us", "lower", 0},
	{"exec.run_sketch_hll_us", "us", "lower", 0},
	{"exec.run_sketch_topk_us", "us", "lower", 0},
	{"exec.run_exact_us", "us", "lower", 0},
	{"shard.pruned_ratio", "ratio", "higher", 0},

	{"core.eval_avg_us", "us", "lower", 0},
	{"core.eval_pct_us", "us", "lower", 0},
	{"core.grid_fallback_ratio", "ratio", "lower", 0},
	{"core.train_plain_ms", "ms", "lower", 0},
	{"core.train_grouped_ms", "ms", "lower", 0},
	{"core.train_sharded_ms", "ms", "lower", 0},
	{"core.train_nominal_ms", "ms", "lower", 0},
	{"core.sample_ms", "ms", "lower", 0},

	{"exact.scan_ms", "ms", "lower", 0},
	{"sketch.absorb_ns_per_row", "ns", "lower", 0},
	{"sketch.hll_estimate_us", "us", "lower", 0},

	{"catalog.save_ms", "ms", "lower", 0},
	{"catalog.load_ms", "ms", "lower", 0},
	{"catalog.snapshot_rebuilds", "count", "lower", 0},
	{"table.load_csv_ms", "ms", "lower", 0},

	{"ingest.append_p50_us", "us", "lower", 0},
	{"ingest.append_p99_us", "us", "lower", 0},
	{"ingest.retrains", "count", "higher", 0},
	{"ingest.retrain_ms_p50", "ms", "lower", 0},
	{"ingest.retrain_failures", "count", "lower", 0},
	{"ingest.staleness_p95", "ratio", "lower", 0},
	{"ingest.generator_late_ms_max", "ms", "lower", 0},

	{"serve.overhead_us_p50", "us", "lower", 0},
	{"serve.hot_p50_us", "us", "lower", 0},
	{"serve.sliding_p50_us", "us", "lower", 0},
	{"serve.ingest_p50_us", "us", "lower", 0},
	{"serve.cpu_us_per_req", "us", "lower", 0},
	{"serve.client_cpu_us_per_req", "us", "lower", 0},
	{"serve.bytes_out_per_req", "bytes", "lower", 0},
	{"serve.rss_mb", "MB", "lower", 0},
	{"serve.scrape_stats_us", "us", "lower", 0},
	{"serve.scrape_models_us", "us", "lower", 0},

	{"runtime.gc_cycles", "count", "lower", 0},
	{"runtime.gc_pause_ms", "ms", "lower", 0},
	{"runtime.heap_mb", "MB", "lower", 0},
	{"engine.scaling_eff", "ratio", "higher", 0},
	{"trace.overhead_ratio", "ratio", "higher", 0},
	{"tail.p99_us", "us", "lower", 0},
	{"tail.p999_us", "us", "lower", 0},
	{"tail.max_us", "us", "lower", 0},
	{"failed_share", "ratio", "lower", 0},
	{"answers_digest", "count", "higher", 0},
}
