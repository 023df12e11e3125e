package main

// layerCounts turns the server's /metrics into per-layer counts and
// server-side times. Counts are deltas over the timed phase normalised
// per timed request (or per search, per session): on a fixed request list
// they repeat exactly from run to run. The fsync and shard fan-out
// medians are taken from the histograms' deltas over the timed phase; the
// snapshot figures cover the whole run, set-up included, so every
// workload reports them.
func (h *httpRun) layerCounts(e *e2e) map[string]metric {
	b, a := h.before, h.after
	delta := func(name string) float64 { return sumFamily(a, name) - sumFamily(b, name) }
	per := func(num, den float64) float64 {
		if den == 0 {
			return 0
		}
		return num / den
	}
	ops := float64(h.w.attempted())
	searches := delta("iok_sketch_searches_total")
	return map[string]metric{
		"core.kernel_evals_per_op":          {per(delta("iok_engine_kernel_evals_total"), ops), "count"},
		"engine.reranked_per_search":        {per(delta("iok_engine_reranked_total"), searches), "count"},
		"sketch.searches_per_op":            {per(searches, ops), "count"},
		"sketch.pool_candidates_per_search": {per(delta("iok_sketch_pool_candidates_total"), searches), "count"},
		"sketch.flat_fallbacks_per_search":  {per(delta("iok_sketch_flat_fallbacks_total"), searches), "ratio"},
		"store.wal_appends_per_op":          {per(delta("iok_store_wal_appends_total"), ops), "count"},
		"store.wal_bytes_per_trace":         {per(delta("iok_store_wal_appended_bytes_total"), delta("iok_engine_adds_total")), "B"},
		"store.snapshots_timed":             {delta("iok_store_snapshots_total"), "count"},
		"store.fsync_ms_p50":                {1000 * histMedian(b, a, "iok_store_fsync_seconds"), "ms"},
		"shard.fanout_ms_p50":               {1000 * histMedian(b, a, "iok_shard_fanout_seconds"), "ms"},
		"store.snapshot_s":                  {per(sumFamily(a, "iok_store_snapshot_seconds_sum"), sumFamily(a, "iok_store_snapshot_seconds_count")), "s"},
		"store.snapshot_mb":                 {sumFamily(a, "iok_store_snapshot_bytes") / (1 << 20), "MB"},
		"store.replay_records":              {e.replayed, "count"},
		"sketch.recall_at_10":               {e.ann.recall, "ratio"},
		"classify.accuracy":                 {e.accuracy, "ratio"},
	}
}
