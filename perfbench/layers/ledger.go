package main

// layerMetric is one row of the per-layer ledger: what is measured and
// which end-to-end metric, on which workload, it should move.
type layerMetric struct {
	Name   string
	Unit   string
	Better string // "higher" or "lower"
	Moves  string
}

// ledger lists every per-layer metric in report order. BENCHMARK.json's
// per_layer list must match it (ledger_test.go checks).
var ledger = []layerMetric{
	{"compress.sc_rebuild_us", "us", "lower", "sim_minst_per_s on sc-adaptive; none on cinsens-bdi"},
	{"compress.sc_rebuild_kb", "KB", "lower", "sim_minst_per_s and peak_rss_mb on sc-adaptive; none on cinsens-bdi"},
	{"compress.measure_ns.BDI", "ns", "lower", "sim_minst_per_s on cinsens-bdi and sc-adaptive"},
	{"compress.measure_ns.SC", "ns", "lower", "sim_minst_per_s on sc-adaptive"},
	{"compress.ratio.BDI", "x", "higher", "sim_speedup on cinsens-bdi"},
	{"compress.ratio.SC", "x", "higher", "sim_speedup on sc-adaptive"},
	{"cache.replay_ns_per_access", "ns", "lower", "sim_minst_per_s on sc-adaptive"},
	{"cache.hit_rate", "ratio", "higher", "sim_speedup on sc-adaptive"},
	{"cache.flushed_per_fill", "ratio", "lower", "sim_speedup on sc-adaptive"},
	{"cache.decomp_wait_per_access", "cycles", "lower", "sim_speedup on sc-adaptive"},
	{"core.record_access_ns", "ns", "lower", "sim_minst_per_s on sc-adaptive; none on cinsens-bdi"},
	{"core.eps", "count", "higher", "sim_minst_per_s on sc-adaptive (EP decisions made); zero on cinsens-bdi"},
	{"core.switches_per_ep", "ratio", "lower", "sim_speedup on sc-adaptive"},
	{"workload.next_ns_per_inst", "ns", "lower", "sim_minst_per_s, largest on cinsens-bdi"},
	{"workload.line_into_ns", "ns", "lower", "sim_minst_per_s, largest on cinsens-bdi"},
	{"sim.self_share", "ratio", "lower", "sim_minst_per_s on cinsens-bdi"},
	{"sim.mshr_stall_per_kinst", "cycles", "lower", "sim_speedup on cinsens-bdi"},
	{"sim.ipc", "inst/cycle", "higher", "sim_speedup on every workload"},
	{"sim.alloc_mb", "MB", "lower", "peak_rss_mb and sim_minst_per_s on sc-adaptive"},
	{"mem.read_ns", "ns", "lower", "sim_minst_per_s on cinsens-bdi"},
	{"mem.l2_hit_rate", "ratio", "higher", "sim_speedup on cinsens-bdi"},
	{"mem.dram_reads_per_kinst", "count", "lower", "sim_speedup on cinsens-bdi"},
	{"energy.norm", "ratio", "lower", "none on host time: model output beside sim_speedup"},
	{"harness.fresh_sims", "count", "lower", "job_p50_ms on daemon-fig11 (simulations per run set)"},
	{"harness.cache_hits", "count", "higher", "job_p50_ms on daemon-fig11"},
	{"harness.run_overhead_ms", "ms", "lower", "job_p50_ms on daemon-fig11"},
	{"resultstore.save_us", "us", "lower", "job_p50_ms on daemon-fig11"},
	{"resultstore.load_us", "us", "lower", "warm_job_p50_ms on daemon-fig11"},
	{"resultstore.open_ms", "ms", "lower", "setup_s on daemon-fig11"},
	{"server.overhead_ms", "ms", "lower", "warm_job_p50_ms on daemon-fig11"},
	{"server.submit_ms", "ms", "lower", "warm_job_p50_ms on daemon-fig11"},
	{"compress.cpu_share", "ratio", "lower", "sim_minst_per_s on sc-adaptive"},
	{"cache.cpu_share", "ratio", "lower", "sim_minst_per_s on sc-adaptive"},
	{"core.cpu_share", "ratio", "lower", "sim_minst_per_s on sc-adaptive"},
	{"sim.cpu_share", "ratio", "lower", "sim_minst_per_s on cinsens-bdi"},
	{"mem.cpu_share", "ratio", "lower", "sim_minst_per_s on cinsens-bdi"},
	{"workload.cpu_share", "ratio", "lower", "sim_minst_per_s on cinsens-bdi"},
	{"harness.cpu_share", "ratio", "lower", "job_p50_ms on daemon-fig11"},
	{"resultstore.cpu_share", "ratio", "lower", "warm_job_p50_ms on daemon-fig11"},
	{"server.cpu_share", "ratio", "lower", "warm_job_p50_ms on daemon-fig11"},
	{"perfbench.trace_overhead", "ratio", "lower", "none: cost of the traced sim runs over the plain ones"},
}
