package main

// metricDef names a metric and its unit. BENCHMARK.json declares the
// same lists, with direction and bound; a test keeps the two equal.
type metricDef struct{ name, unit string }

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// endToEnd is what a user of the system sees. Every workload reports
// every one of them, from the untraced run: each workload queries,
// updates, and ends in the same checkpoint / kill / recover tail.
//
//   - setup_s: generate + Load + CreatePatchIndex (+ EnableWAL baseline
//     checkpoint, daemon start); median of the run's set-ups.
//   - query_p50_ms, query_p95_ms: one query = query.Run until the root is
//     drained and closed (snapshot capture + compile + execute + release).
//   - queries_per_s: queries completed per second of the measured phase.
//   - update_rows_per_s: rows inserted + deleted + modified per second
//     spent inside the update calls that changed them.
//   - checkpoint_s: one harness-driven CheckpointToDisk of the final
//     state; median of several.
//   - recover_s: Database.Recover on a fresh database after the
//     simulated kill (checkpoint load + replay of the logged tail);
//     median of several, each on its own copy of the killed directory.
//   - disk_bytes_per_row: bytes under the durability directory at the
//     kill (checkpoint files + WAL segments) per live row.
//   - index_bytes_per_row: Σ Table.IndexMemoryBytes / Σ NumRows over the
//     indexed tables, sampled every 50 ms of the measured phase; mean.
//   - peak_rss_mb: the process's peak resident set when the measured
//     phase ends (getrusage).
var endToEnd = []metricDef{
	{"setup_s", "s"},
	{"query_p50_ms", "ms"},
	{"query_p95_ms", "ms"},
	{"queries_per_s", "1/s"},
	{"update_rows_per_s", "rows/s"},
	{"checkpoint_s", "s"},
	{"recover_s", "s"},
	{"disk_bytes_per_row", "B/row"},
	{"index_bytes_per_row", "B/row"},
	{"peak_rss_mb", "MiB"},
}

// perLayer comes from the traced run: spans and counts around the calls
// the workload makes into each layer, and probes of the layers it does
// not call directly. A 0 means the workload does not exercise that path
// (no Modify in tpch_refresh, no WAL in micro_update, ...).
var perLayer = []metricDef{
	{"bench.trace_overhead", "ratio"},
	{"bench.phase_s", "s"},
	{"bench.queries", "count"},
	{"bench.update_calls", "count"},

	{"engine.busy_s", "s"},
	{"engine.insert_ms_p50", "ms"},
	{"engine.delete_ms_p50", "ms"},
	{"engine.modify_ms_p50", "ms"},
	{"engine.update_max_stall_ms", "ms"},
	{"engine.insert_fast_ratio", "ratio"},
	{"engine.collision_joins", "count"},
	{"engine.snapshot_capture_us_p50", "us"},
	{"engine.snapshot_capture_us_p95", "us"},
	{"engine.maint_actions", "count"},
	{"engine.maint_refusal_ratio", "ratio"},
	{"engine.exception_rate_end", "ratio"},
	{"engine.index_bytes_end", "B"},
	{"engine.checkpoint_to_disk_ms", "ms"},
	{"engine.checkpoint_bytes", "B"},
	{"engine.recover_load_ms", "ms"},
	{"engine.recover_records_applied", "count"},
	{"engine.recover_us_per_record", "us"},

	{"query.busy_s", "s"},
	{"query.compile_us_p50", "us"},
	{"query.compile_share", "ratio"},

	{"plan.patch_choice_ratio", "ratio"},
	{"plan.chooser_regret", "ratio"},
	{"plan.patch_vs_reference_ratio", "ratio"},

	{"exec.busy_s", "s"},
	{"exec.drain_ms_p50", "ms"},
	{"exec.drain_ms_p95", "ms"},
	{"exec.rows_per_s", "rows/s"},
	{"exec.rows_scanned_per_row_out", "ratio"},
	{"exec.allocs_per_query", "count"},
	{"exec.alloc_bytes_per_query", "B"},

	{"core.build_nsc_ns_per_row", "ns"},
	{"core.build_nuc_ns_per_row", "ns"},
	{"core.insert_nsc_ns_per_row", "ns"},
	{"core.delete_ns_per_row", "ns"},
	{"core.freeze_first_write_us", "us"},
	{"core.appendsel_ns_per_row", "ns"},
	{"core.index_bytes_per_row", "B/row"},
	{"core.checkpoint_mb_per_s", "MiB/s"},

	{"bitmap.bulk_delete_ns_per_pos", "ns"},
	{"bitmap.set_ns", "ns"},
	{"bitmap.grow_ns_per_kbit", "ns"},
	{"bitmap.cow_first_write_us", "us"},
	{"bitmap.condense_ms", "ms"},
	{"bitmap.scan_ns_per_kbit", "ns"},
	{"bitmap.bytes_per_bit", "B"},
	{"bitmap.flat_vs_sharded_delete_ratio", "ratio"},

	{"pdt.insert_ns_per_row", "ns"},
	{"pdt.delete_ns_per_row", "ns"},
	{"pdt.resolve_ns", "ns"},
	{"pdt.materialize_ns_per_row", "ns"},
	{"pdt.checkpoint_ms", "ms"},

	{"storage.freeze_us", "us"},
	{"storage.cow_append_us", "us"},
	{"storage.delete_rows_ns_per_row", "ns"},
	{"storage.bytes_per_row", "B/row"},
	{"storage.minmax_prune_ratio", "ratio"},

	{"wal.append_us_p50", "us"},
	{"wal.fsync_us_p50", "us"},
	{"wal.fsyncs", "count"},
	{"wal.records", "count"},
	{"wal.bytes_per_record", "B"},
	{"wal.truncate_ms", "ms"},
	{"wal.read_segment_mb_per_s", "MiB/s"},
}

// report fills the declared metrics from measured values; a declared
// metric nobody measured prints 0, an undeclared one is a harness bug.
func report(defs []metricDef, measured map[string]float64) map[string]metricValue {
	out := make(map[string]metricValue, len(defs))
	for _, d := range defs {
		out[d.name] = metricValue{Value: measured[d.name], Unit: d.unit}
	}
	for name := range measured {
		if _, ok := out[name]; !ok {
			panic("bench: metric " + name + " is measured but not declared")
		}
	}
	return out
}
