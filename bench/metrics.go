package main

// metricDef is one metric as BENCHMARK.json declares it. Bound is the
// share of the parent's median by which an end-to-end metric may get
// worse; per-layer metrics have none.
type metricDef struct {
	Name   string
	Unit   string
	Better string
	Bound  float64
}

// endToEnd are the metrics a user of the system sees. Every workload
// reports every one of them from its untraced run. README.md says what
// each means on each workload; BENCHMARK.json repeats this table and a
// test keeps the two equal. The bounds are the widest the driver allows:
// on the shared two-core hosts this runs on, ten runs of one commit spread
// by 6-12 % even in reference seconds (README.md, "Observed spreads").
var endToEnd = []metricDef{
	{"setup_s", "s", "lower", 0.25},
	{"wall_s", "s", "lower", 0.25},
	{"sim_cycles_per_s", "1/s", "higher", 0.25},
	{"ops_per_s", "1/s", "higher", 0.25},
	{"peak_rss_mb", "MiB", "lower", 0.25},
}

// perLayer are the metrics of single layers, reported by every traced
// run: the probe suite (the same whatever the workload) plus the ledger
// of the workload that was traced. A traced run that fails to produce
// one of them is not correct.
var perLayer = []metricDef{
	{Name: "sim.schedule_ns", Unit: "ns", Better: "lower"},
	{Name: "sim.far_schedule_ns", Unit: "ns", Better: "lower"},
	{Name: "sim.stall_fastpath_ns", Unit: "ns", Better: "lower"},
	{Name: "sim.resume_ns", Unit: "ns", Better: "lower"},
	{Name: "mem.block_fetch_ns", Unit: "ns", Better: "lower"},
	{Name: "cache.install_evict_ns", Unit: "ns", Better: "lower"},
	{Name: "mesh.send_ns", Unit: "ns", Better: "lower"},
	{Name: "machine.run_wi_ns_per_event", Unit: "ns", Better: "lower"},
	{Name: "machine.run_pu_ns_per_event", Unit: "ns", Better: "lower"},
	{Name: "machine.run_cu_ns_per_event", Unit: "ns", Better: "lower"},
	{Name: "machine.run_allocs", Unit: "count", Better: "lower"},
	{Name: "machine.read_hit_ns", Unit: "ns", Better: "lower"},
	{Name: "machine.acquire_release_us", Unit: "us", Better: "lower"},
	{Name: "machine.reset_us", Unit: "us", Better: "lower"},
	{Name: "machine.snapshot_us", Unit: "us", Better: "lower"},
	{Name: "machine.restore_us", Unit: "us", Better: "lower"},
	{Name: "machine.fork_run_ns_per_event", Unit: "ns", Better: "lower"},
	{Name: "machine.run_traced_ns_per_event", Unit: "ns", Better: "lower"},
	{Name: "trace.tax_ratio", Unit: "ratio", Better: "lower"},
	{Name: "workload.lock_mcs_cu_ns_per_event", Unit: "ns", Better: "lower"},
	{Name: "workload.lock_traced_ns_per_event", Unit: "ns", Better: "lower"},
	{Name: "workload.barrier_tree_cu_ns_per_event", Unit: "ns", Better: "lower"},
	{Name: "workload.reduction_seq_cu_ns_per_event", Unit: "ns", Better: "lower"},
	{Name: "workload.warm_split_overhead_frac", Unit: "frac", Better: "lower"},
	{Name: "experiments.point_plain_us", Unit: "us", Better: "lower"},
	{Name: "experiments.point_warm_build_us", Unit: "us", Better: "lower"},
	{Name: "experiments.point_warm_fork_us", Unit: "us", Better: "lower"},
	{Name: "experiments.point_key_ns", Unit: "ns", Better: "lower"},
	{Name: "experiments.result_json_us", Unit: "us", Better: "lower"},
	{Name: "experiments.result_json_bytes", Unit: "bytes", Better: "lower"},
	{Name: "experiments.warm_checkpoints", Unit: "count", Better: "lower"},
	{Name: "experiments.warm_reuse_ratio", Unit: "ratio", Better: "higher"},
	{Name: "runner.map_overhead_us", Unit: "us", Better: "lower"},
	{Name: "runner.parallel_eff", Unit: "ratio", Better: "higher"},
	{Name: "fleet.batches", Unit: "count", Better: "lower"},
	{Name: "fleet.stolen", Unit: "count", Better: "lower"},
	{Name: "fleet.dup_completes", Unit: "count", Better: "lower"},
	{Name: "fleet.local_runs", Unit: "count", Better: "lower"},
	{Name: "fleet.shards_per_batch", Unit: "ratio", Better: "higher"},
	{Name: "fleet.http_requests_per_point", Unit: "ratio", Better: "lower"},
	{Name: "fleet.wire_bytes_per_point", Unit: "bytes", Better: "lower"},
	{Name: "fleet.poll_p50_us", Unit: "us", Better: "lower"},
	{Name: "fleet.poll_p99_us", Unit: "us", Better: "lower"},
	{Name: "fleet.complete_p50_us", Unit: "us", Better: "lower"},
	{Name: "fleet.parallel_eff", Unit: "ratio", Better: "higher"},
	{Name: "fleet.vs_local_ratio", Unit: "ratio", Better: "lower"},
	{Name: "fleet.zero_worker_wall_s", Unit: "s", Better: "lower"},
	{Name: "store.put_p50_us", Unit: "us", Better: "lower"},
	{Name: "store.put_p99_us", Unit: "us", Better: "lower"},
	{Name: "store.get_p50_us", Unit: "us", Better: "lower"},
	{Name: "store.open_scan_ms", Unit: "ms", Better: "lower"},
	{Name: "service.job_cold_p50_ms", Unit: "ms", Better: "lower"},
	{Name: "service.submit_miss_p50_us", Unit: "us", Better: "lower"},
	{Name: "service.status_get_p50_us", Unit: "us", Better: "lower"},
	{Name: "service.result_bytes_p50", Unit: "bytes", Better: "lower"},
	{Name: "service.metrics_scrape_us", Unit: "us", Better: "lower"},
	{Name: "service.replay_mem_p50_us", Unit: "us", Better: "lower"},
	{Name: "service.replay_mem_p99_us", Unit: "us", Better: "lower"},
	{Name: "service.replay_store_p50_us", Unit: "us", Better: "lower"},
	{Name: "service.restart_ms", Unit: "ms", Better: "lower"},
	{Name: "service.cache_hits", Unit: "count", Better: "higher"},
	{Name: "service.store_hits", Unit: "count", Better: "higher"},
	{Name: "service.dedup", Unit: "count", Better: "lower"},
	{Name: "service.rejected", Unit: "count", Better: "lower"},
	{Name: "mc.states_per_s", Unit: "1/s", Better: "higher"},
	{Name: "mc.states", Unit: "count", Better: "higher"},
	{Name: "ledger.events_per_s", Unit: "1/s", Better: "higher"},
	{Name: "ledger.stack_eff", Unit: "ratio", Better: "higher"},
	{Name: "bench.trace_overhead_frac", Unit: "frac", Better: "lower"},
	{Name: "bench.peak_rss_mb", Unit: "MiB", Better: "lower"},
}

// missing returns the declared metrics that got is lacking.
func missing(defs []metricDef, got []metric) []string {
	have := make(map[string]bool, len(got))
	for _, m := range got {
		have[m.Name] = true
	}
	var out []string
	for _, d := range defs {
		if !have[d.Name] {
			out = append(out, d.Name)
		}
	}
	return out
}
