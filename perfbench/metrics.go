package main

import "fmt"

// metricDef is one metric the benchmark reports, as BENCHMARK.json lists
// it.
type metricDef struct{ name, unit string }

// endToEnd is every metric an untraced run prints, on every workload.
// README.md says what each one measures on each workload.
var endToEnd = []metricDef{
	{"setup_s", "s"},
	{"peak_rss_mb", "MB"},
	{"ok_share", "share"},
	{"build_cluster_s", "s"},
	{"build_nndescent_s", "s"},
	{"build_hyrec_s", "s"},
	{"quality_cluster", "ratio"},
	{"quality_nndescent", "ratio"},
	{"quality_hyrec", "ratio"},
	{"query_p50_ms", "ms"},
	{"query_p90_ms", "ms"},
	{"saturated_qps", "1/s"},
	{"recall_at_10", "ratio"},
	{"mutate_p50_ms", "ms"},
	{"mutate_p90_ms", "ms"},
}

// perLayer is every metric a traced run prints. A layer a workload does
// not exercise reads 0 there.
var perLayer = func() []metricDef {
	defs := []metricDef{
		{"core.pack_s", "s"},
		{"core.shf_quality", "ratio"},
		{"cluster.assign_s", "s"},
		{"knn.navigable_s", "s"},
	}
	for _, algo := range builders {
		for _, ph := range phasesOf(algo) {
			defs = append(defs, metricDef{"knn." + algo + ".phase." + ph + "_s", "s"})
		}
		defs = append(defs,
			metricDef{"knn." + algo + ".comparisons", "count"},
			metricDef{"knn." + algo + ".iterations", "count"},
			metricDef{"knn." + algo + ".ns_per_comparison", "ns"},
			metricDef{"knn." + algo + ".cpu_util", "share"},
			metricDef{"bitset." + algo + ".words_anded", "count"},
			metricDef{"bitset." + algo + ".bytes_moved", "B"},
		)
	}
	return append(defs,
		metricDef{"knn.search_p50_us", "us"},
		metricDef{"knn.search.hops", "count"},
		metricDef{"knn.search.scored", "count"},
		metricDef{"knn.search.abandoned", "count"},
		metricDef{"service.query.handler_p50_ms", "ms"},
		metricDef{"service.query.handler_p99_ms", "ms"},
		metricDef{"service.search_mean_ms", "ms"},
		metricDef{"service.query.other_mean_ms", "ms"},
		metricDef{"service.scan_share", "share"},
		metricDef{"admit.query.wait_mean_ms", "ms"},
		metricDef{"admit.shed", "count"},
		metricDef{"go.alloc_mb_per_request", "MB"},
		metricDef{"go.gc_cycles", "count"},
		metricDef{"transport.query_p50_ms", "ms"},
		metricDef{"service.mutate.handler_p50_ms", "ms"},
		metricDef{"knn.online.insert_mean_ms", "ms"},
		metricDef{"knn.online.overwrite_mean_ms", "ms"},
		metricDef{"knn.online.delete_mean_ms", "ms"},
		metricDef{"knn.online.comparisons_per_mutation", "count"},
		metricDef{"durable.wal_bytes_per_mutation", "B"},
		metricDef{"durable.snapshot_gens", "count"},
		metricDef{"router.query.handler_p50_ms", "ms"},
		metricDef{"router.shard_rtt_p50_ms", "ms"},
		metricDef{"router.slowest_shard_p50_ms", "ms"},
		metricDef{"router.self_p50_ms", "ms"},
		metricDef{"router.subrequests_per_query", "count"},
		metricDef{"router.hedges", "count"},
		metricDef{"router.retries", "count"},
		metricDef{"router.partial_share", "share"},
		metricDef{"client.query_p99_ms", "ms"},
		metricDef{"client.mutate_p99_ms", "ms"},
		metricDef{"client.lateness_p99_ms", "ms"},
		metricDef{"trace.overhead_p50_ms", "ms"},
		metricDef{"trace.spans", "count"},
	)
}()

// complete checks that the run reported exactly the metrics its mode
// promises, each with its declared unit. Per-layer metrics of layers the
// workload does not exercise are filled with 0.
func (r *report) complete() error {
	want := endToEnd
	if r.cfg.trace {
		want = perLayer
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	for _, d := range want {
		m, ok := r.metrics[d.name]
		switch {
		case !ok && r.cfg.trace:
			r.metrics[d.name] = metric{Value: 0, Unit: d.unit}
		case !ok:
			return fmt.Errorf("workload %s did not report %s", r.cfg.workload, d.name)
		case m.Unit != d.unit:
			return fmt.Errorf("metric %s reported in %s, declared in %s", d.name, m.Unit, d.unit)
		}
	}
	if len(r.metrics) != len(want) {
		return fmt.Errorf("workload %s reported %d metrics, %d declared", r.cfg.workload, len(r.metrics), len(want))
	}
	return nil
}
