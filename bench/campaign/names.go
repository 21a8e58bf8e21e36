package main

// metricDef names a metric and its unit. The two lists below are the
// benchmark's vocabulary; BENCHMARK.json repeats them (with direction and
// bound) and the smoke test holds the two together.
type metricDef struct{ name, unit string }

// endToEnd is what a user of the system sees. Every workload reports every
// one of them, from its untraced run.
var endToEnd = []metricDef{
	// Invocation start → first timed run, median of setupReps set-ups.
	{"setup_s", "s"},
	// Runs completed per second of host time: campaign runs over the wall
	// time of Run including the final commit drain; on level3-analyze,
	// level-2 runs taken to R / t_R per second of pass time.
	{"runs_per_s", "runs/s"},
	// Gap between consecutive run completions; on level3-analyze, one
	// run's packet analysis.
	{"run_ms_p50", "ms"},
	{"run_ms_p95", "ms"},
}

// perLayer is what single layers do, from the traced run. A layer a
// workload does not exercise reports 0.
var perLayer = []metricDef{
	{"desc.parse_ms", "ms"},
	{"desc.plan_us_per_run", "us"},

	{"core.new_ms", "ms"},
	{"core.alloc_kb_per_run", "KiB"},
	{"core.gc_cycles", "count"},
	{"core.gc_pause_ms", "ms"},
	{"core.peak_rss_mb", "MiB"},

	{"master.prepare_ms_p50", "ms"},
	{"master.execute_ms_p50", "ms"},
	{"master.collect_ms_p50", "ms"},
	{"master.virtual_s_per_host_s", "ratio"},
	{"master.pacing_diff_pct", "%"},

	{"sched.switches_per_run", "count"},
	{"sched.timers_per_run", "count"},
	{"sched.timer_ns", "ns"},
	{"sched.switch_ns", "ns"},
	{"sched.share_est", "ratio"},

	{"netem.tx_per_s", "1/s"},
	{"netem.tx_per_run", "count"},
	{"netem.delivered_per_run", "count"},
	{"netem.drop_ratio", "ratio"},
	{"netem.dup_suppressed_per_run", "count"},
	{"netem.unicast_ns", "ns"},
	{"netem.flood_ns_per_tx", "ns"},
	{"netem.share_est", "ratio"},

	{"fault.traffic_pkts_per_run", "count"},
	{"fault.traffic_ns_per_pkt", "ns"},

	{"sd.R_1s", "ratio"},
	{"sd.t_R_ms_mean", "ms"},
	{"sd.t_R_ms_p90", "ms"},

	{"store.write_run_us_p50", "us"},
	{"store.journal_append_us_p50", "us"},
	{"store.write_run_us_p50_disk", "us"},
	{"store.journal_append_us_p50_disk", "us"},
	{"store.level2_kb_per_run", "KiB"},
	{"store.finalize_s", "s"},
	{"store.condition_ms", "ms"},
	{"store.save_ms", "ms"},
	{"store.open_ms", "ms"},
	{"store.level3_mb", "MiB"},
	{"store.rows_events", "count"},
	{"store.rows_packets", "count"},

	{"reldb.insert_ns_per_row", "ns"},
	{"reldb.select_run_us_p50", "us"},

	{"metrics.analyze_s", "s"},
	{"metrics.fromdb_ms", "ms"},
	{"metrics.packets_ms", "ms"},
	{"metrics.extract_us_per_run", "us"},

	{"xmlrpc.calls_per_run", "count"},
	{"xmlrpc.retries", "count"},
	{"xmlrpc.failures", "count"},
	{"xmlrpc.roundtrip_us_p50", "us"},
	{"xmlrpc.roundtrip_us_p95", "us"},
	{"xmlrpc.encode_us", "us"},
	{"xmlrpc.decode_us", "us"},

	{"noderpc.prepare_us_p50", "us"},
	{"noderpc.localtime_us_p50", "us"},
	{"noderpc.execute_us_p50", "us"},
	{"noderpc.cleanup_us_p50", "us"},
	{"noderpc.harvest_us_p50", "us"},
	{"noderpc.events_forwarded_per_run", "count"},
	{"noderpc.rpc_share", "ratio"},

	{"obs.trace_overhead_pct", "%"},
}
