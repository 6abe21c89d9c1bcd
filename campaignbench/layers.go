package main

// layerMetric is one per-layer metric of the traced run, with the
// end-to-end metric and workload it is expected to move.
type layerMetric struct {
	name, unit, moves string
}

// layerMetrics lists the traced run's metrics in output order. The
// counts marked "exact" must repeat exactly between runs of the same
// code; the benchmark flags any difference.
var layerMetrics = []layerMetric{
	// Phase-1 ladder: harness.ExecuteSandboxed with one mechanism more
	// per rung; each time is the rung's increment.
	{"apps.run_s", "s", "setup_s, rerun_s everywhere; dominates on redis-log"},
	{"stack.capture_s", "s", "setup_s, rerun_s on btree-spt"},
	{"pmem.prefix_hash_s", "s", "setup_s, rerun_s on btree-spt"},
	{"pmem.ckpt_record_s", "s", "setup_s, rerun_s on btree-spt"},
	{"fpt.build_s", "s", "setup_s, rerun_s on btree-spt"},
	{"core.analyzer_s", "s", "setup_s, rerun_s on btree-spt"},
	{"core.finalize_s", "s", "rerun_s on btree-spt"},
	{"pmem.events", "count", "exact; phase-1 engine events"},
	{"pmem.checkpoints", "count", "peak_rss_mb on btree-tx"},
	{"pmem.ckpt_mb", "MiB", "peak_rss_mb on btree-tx"},
	{"fpt.leaves", "count", "exact; failure points"},
	{"fpt.classes", "count", "exact; crash-image classes replayed cold"},
	{"core.analyzer_peak_lines", "count", "peak_rss_mb"},
	// Injection pass: CheckpointStore.ReplayTo, PrefixImage and
	// oracle.CheckBounded over one representative per class.
	{"pmem.replay_s", "s", "campaign_s on redis-log"},
	{"pmem.replay_ms_p50", "ms", "campaign_s on redis-log"},
	{"pmem.replay_ms_p90", "ms", "campaign_s on redis-log"},
	{"pmem.gap_events", "count", "exact; campaign_s on redis-log"},
	{"pmem.image_s", "s", "campaign_s, alloc_gb, peak_rss_mb on btree-tx, btree-spt"},
	{"pmem.image_alloc_gb", "GiB", "alloc_gb, peak_rss_mb on btree-tx, btree-spt"},
	{"oracle.engine_s", "s", "campaign_s, alloc_gb, peak_rss_mb on btree-tx, btree-spt"},
	{"oracle.engine_alloc_gb", "GiB", "alloc_gb, peak_rss_mb on btree-tx, btree-spt"},
	{"apps.recover_s", "s", "campaign_s, cpu_s on btree-tx; little on btree-spt"},
	{"apps.recover_ms_p50", "ms", "campaign_s, cpu_s on btree-tx"},
	{"apps.recover_ms_p90", "ms", "campaign_s, cpu_s on btree-tx"},
	{"oracle.recoveries", "count", "exact; recovery executions"},
	{"oracle.bad_verdicts", "count", "report_ok (classes recovery rejects)"},
	{"core.leaf_ms_p50", "ms", "campaign_s"},
	{"core.leaf_ms_p90", "ms", "campaign_s"},
	// Traced campaign: core.Analyze with every call into the target
	// recorded, plus existing Result fields.
	{"core.analyze_s", "s", "campaign_s"},
	{"core.inject_s", "s", "campaign_s"},
	{"core.resolve_s", "s", "rerun_s"},
	{"core.recover_calls", "count", "campaign_s, cpu_s"},
	{"core.engine_events", "count", "exact; campaign_s"},
	{"core.replays_avoided", "count", "campaign_s"},
	{"core.worker_util", "ratio", "campaign_s (low = work waited at the merge)"},
	{"core.untraced_campaign_s", "s", "campaign_s of an untraced cold run beside it"},
	{"core.trace_overhead", "ratio", "traced over untraced campaign wall time, minus 1"},
	// Journal, verdict cache and report rendering.
	{"campaign.append_ms_p50", "ms", "campaign_s on btree-tx only"},
	{"campaign.append_ms_p90", "ms", "campaign_s on btree-tx only"},
	{"campaign.vcache_save_s", "s", "rerun_s"},
	{"campaign.vcache_load_s", "s", "rerun_s"},
	{"report.json_s", "s", "campaign_s"},
}
