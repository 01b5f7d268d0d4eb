package main

// layerMetric is one per-layer metric of the traced run. Moves names the
// end-to-end metric and workload it is expected to move; every other
// pairing is predicted unchanged (README.md has the reasoning).
type layerMetric struct {
	Name   string
	Unit   string
	Better string
	Moves  string
}

const (
	lower  = "lower"
	higher = "higher"
)

// Shorthands for the Moves column.
const (
	mvIngestBatch = "throughput_per_s, allocs_per_unit @ batch-ingest (less @ live-replay, dist-ingest)"
	mvBatch       = "throughput_per_s, latency_ms_p50 @ batch-ingest"
	mvWrite       = "throughput_per_s, stored_bytes_per_row @ batch-ingest, dist-ingest, live-replay"
	mvRead        = "latency_ms_p50 @ query-mix; latency_ms_p50 @ batch-ingest"
	mvWire        = "throughput_per_s @ dist-ingest"
	mvStream      = "throughput_per_s @ live-replay, dist-ingest"
	mvDetect      = "latency_ms_p50 @ live-replay"
	mvDist        = "throughput_per_s @ dist-ingest"
	mvQueryP50    = "latency_ms_p50 @ query-mix"
	mvQueryP95    = "latency_ms_p95 @ query-mix"
	mvVerdict     = "latency_ms_p50 @ batch-ingest, dist-ingest; latency_ms_p95 @ query-mix"
)

// perLayer lists every per-layer metric, in the order they are printed.
// Names are <module>.<metric>; BENCHMARK.json repeats name, unit and
// direction, and a test keeps the two in step.
var perLayer = []layerMetric{
	{"parsers.ns_per_row", "ns", lower, mvIngestBatch},
	{"parsers.allocs_per_row", "count", lower, mvIngestBatch},
	{"parsers.alloc_bytes_per_row", "B", lower, mvIngestBatch},
	{"parsers.mb_per_s", "MB/s", higher, mvIngestBatch},
	{"parsers.apache_ns_per_line", "ns", lower, mvIngestBatch},
	{"parsers.tomcat_ns_per_line", "ns", lower, mvIngestBatch},
	{"parsers.cjdbc_ns_per_line", "ns", lower, mvIngestBatch},
	{"parsers.mysql_slow_ns_per_line", "ns", lower, mvIngestBatch},
	{"parsers.collectl_csv_ns_per_line", "ns", lower, mvIngestBatch},
	{"parsers.sar_xml_ns_per_line", "ns", lower, mvIngestBatch},

	{"xmlcsv.infer_ns_per_row", "ns", lower, "throughput_per_s @ batch-ingest"},
	{"xmlcsv.infer_allocs_per_row", "count", lower, "allocs_per_unit @ batch-ingest"},
	{"xmlcsv.row_ns_per_row", "ns", lower, "throughput_per_s @ batch-ingest"},

	{"transform.read_ns_per_row", "ns", lower, mvBatch},
	{"transform.ingest_ns_per_row", "ns", lower, mvBatch},
	{"transform.residual_ns_per_row", "ns", lower, mvBatch},
	{"transform.residual_share", "%", lower, mvBatch},
	{"transform.workers_speedup_x", "x", higher, "none: batch-ingest runs the default, serial options"},

	{"mscopedb.append_ns_per_row", "ns", lower, mvWrite},
	{"mscopedb.append_allocs_per_row", "count", lower, "allocs_per_unit @ batch-ingest, live-replay, dist-ingest"},
	{"mscopedb.mem_bytes_per_row", "B", lower, "none end to end: resident size of unsealed rows"},
	{"mscopedb.seal_ns_per_row", "ns", lower, mvWrite},
	{"mscopedb.checkpoint_ms", "ms", lower, mvWrite},
	{"mscopedb.segments", "count", lower, mvRead},
	{"mscopedb.disk_bytes_per_row", "B", lower, "stored_bytes_per_row @ every workload"},
	{"mscopedb.compact_ms", "ms", lower, "none: no workload compacts"},
	{"mscopedb.compact_bytes_rewritten", "B", lower, "none: no workload compacts"},
	{"mscopedb.open_ms", "ms", lower, "none: query-mix opens before its clock starts"},

	{"mscopedb.scan_full_ms", "ms", lower, mvRead},
	{"mscopedb.scan_pruned_ms", "ms", lower, mvQueryP50},
	{"mscopedb.segs_scanned_per_query", "count", lower, mvQueryP50},
	{"mscopedb.segs_pruned_per_query", "count", higher, mvQueryP50},
	{"mscopedb.windowagg_ms", "ms", lower, mvRead},

	{"wire.build_ns_per_row", "ns", lower, mvWire},
	{"wire.encode_ns_per_row", "ns", lower, mvWire},
	{"wire.decode_ns_per_row", "ns", lower, mvWire},
	{"wire.allocs_per_row", "count", lower, "allocs_per_unit @ dist-ingest"},
	{"wire.bytes_per_row", "B", lower, "collector.wire_rx_bytes_per_row"},

	{"stream.tail_ns_per_row", "ns", lower, mvStream},
	{"stream.drain_ns_per_row", "ns", lower, mvStream},
	{"stream.residual_ns_per_row", "ns", lower, mvStream},
	{"stream.backpressure_stalls", "count", lower, mvDetect},
	{"stream.queue_depth_max", "count", lower, mvDetect},
	{"stream.watermark_lag_ms_p99", "ms", lower, mvDetect},
	{"stream.catchup_ms", "ms", lower, mvDetect},
	{"stream.detect_excess_ms_p50", "ms", lower, mvDetect},
	{"stream.gen_late_ms_p99", "ms", lower, "none: the harness's own generator"},

	{"agentd.batches_sent", "count", lower, mvDist},
	{"agentd.reconnects", "count", lower, mvDist},
	{"agentd.dial_errors", "count", lower, mvDist},
	{"collector.batches_in", "count", lower, mvDist},
	{"collector.records_per_batch", "count", higher, mvDist},
	{"collector.acks_out", "count", lower, mvDist},
	{"collector.wire_rx_bytes_per_row", "B", lower, mvDist},
	{"collector.hop_ns_per_row", "ns", lower, mvDist},

	{"mql.parse_us", "us", lower, mvQueryP50},
	{"mql.exec_ms", "ms", lower, mvQueryP50},

	{"tracegraph.build_ms", "ms", lower, mvQueryP95},
	{"tracegraph.build_allocs", "count", lower, "allocs_per_unit, latency_ms_p95 @ query-mix"},
	{"tracegraph.flame_ms", "ms", lower, mvQueryP95},

	{"core.evidence_ms", "ms", lower, mvVerdict + "; slightly latency_ms_p50 @ live-replay"},
	{"core.classify_us_per_window", "us", lower, mvVerdict},
	{"core.diagnose_ms", "ms", lower, mvVerdict},

	{"serve.window_pruned_ms_p50", "ms", lower, mvQueryP50},
	{"serve.window_full_ms_p50", "ms", lower, mvQueryP50},
	{"serve.query_ms_p50", "ms", lower, mvQueryP50},
	{"serve.trace_ms_p50", "ms", lower, mvQueryP95},
	{"serve.traces_ms_p50", "ms", lower, mvQueryP95},
	{"serve.flamegraph_ms_p50", "ms", lower, mvQueryP95},
	{"serve.diagnosis_ms_p50", "ms", lower, mvQueryP95},
	{"serve.overhead_ms_p50", "ms", lower, mvQueryP50},

	{"bench.trace_overhead_pct", "%", lower, "none: the cost of the harness's own spans"},
}
