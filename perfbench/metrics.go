package main

// EndToEndMetrics are reported by every --trace 0 run, in this order.
// Each names what a user of ceer waits for or pays:
//
//	train_s, train_cpu_s   wall and user+sys CPU of `ceer train` (median over the run's trains)
//	setup_s                exec of `ceer serve -models F -warmup` to its first 200 (median over boots)
//	read_cpu_us            the read daemon's user+sys CPU per completed read
//	latency_p50_ms         median per-read loopback latency, over every read of the run
//	obs_per_s              observations accepted per second by POST /v1/observe
//	max_rss_mb             peak RSS of the daemon that served the reads (median over rounds)
var EndToEndMetrics = []string{
	"train_s", "train_cpu_s", "setup_s", "read_cpu_us",
	"latency_p50_ms", "obs_per_s", "max_rss_mb",
}

// PerLayerMetrics are reported by every --trace 1 run, in this order.
// README.md maps each to the end-to-end metric it should move.
var PerLayerMetrics = []string{
	// zoo / graph
	"zoo.build_ms", "graph.nodes", "graph.globalfold_ms",
	// sim
	"sim.profile_s", "sim.comm_s", "sim.samples", "sim.ns_per_sample",
	// ceer fit / persist
	"ceer.fit_ms", "ceer.op_models", "ceer.save_ms", "ceer.load_ms", "persist.bytes",
	// ceer compile
	"ceer.compile_ms", "ceer.compile_evals", "ceer.table_kb",
	// ceer compiled and folded evaluation
	"ceer.compiled_predict_us", "ceer.folded_predict_us", "ceer.folded_evals_per_req", "zoo.cached_build_ms",
	// cloud
	"cloud.hourly_cost_ns",
	// serve read path
	"serve.handler_us", "serve.self_us", "serve.new_ms", "serve.resp_bytes",
	"serve.allocs_per_req", "serve.bytes_per_req", "runtime.gc_per_1k_req",
	// serve observe path
	"serve.observe_ms", "trace.decode_us_per_obs", "ceer.calibrate_us_per_obs", "ceer.refit_ms",
	"ceer.refits", "serve.swaps", "serve.observe_self_ms",
	// transport
	"http.transport_us",
	// the trace itself
	"trace.overhead_pct", "ledger.unattributed_pct",
}
