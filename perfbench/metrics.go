package main

import "fmt"

// gatedMetrics are the end-to-end metrics a measured run (--trace 0)
// reports, in BENCHMARK.json's order. Only process-CPU, memory, accuracy
// and set-up figures are gated: on a shared two-vCPU host the wall-clock
// ack latency and closed-loop rows/s swing with the host's CPU steal by
// more than any usable bound, and the closed loop's CPU per row with its
// batch sizes, so those are reported as informational values instead (see
// report.inform).
var gatedMetrics = []string{
	"setup_s",
	"cpu_us_per_row",
	"live_heap_mb",
	"impute_rmse",
}

// layerMetrics are the per-layer metrics a traced run (--trace 1) reports.
var layerMetrics = []string{
	"client.send_wait_us",
	"client.dup_acks",
	"loadgen.late_p99_ms",
	"loadgen.backlog_max_rows",
	"wire.decode_ns_per_row",
	"wire.ack_encode_ns_per_row",
	"wire.ack_parse_ns_per_row",
	"wire.in_bytes_per_row",
	"wire.out_bytes_per_row",
	"wire.fastpath_share",
	"wire.allocs_per_row",
	"wal.append_ns_per_row",
	"wal.commit_wait_us",
	"wal.rows_per_fsync",
	"wal.bytes_per_row",
	"wal.replay_ns_per_row",
	"core.tick_ns_per_row",
	"core.imputations_per_row",
	"core.allocs_per_row",
	"core.replay_tick_ns_per_row",
	"core.restore_ms",
	"core.snapshot_ms",
	"shard.tick_ns_per_row",
	"shard.self_ns_per_row",
	"shard.hydrate_ms",
	"shard.hydrations_per_krow",
	"shard.evictions_per_krow",
	"server.decode_us",
	"server.queue_us",
	"server.engine_us",
	"server.wal_commit_us",
	"server.ack_us",
	"server.rows_per_line",
	"server.handler_self_us",
	"server.residual_ns_per_row",
	"go.alloc_bytes_per_row",
	"go.gc_cpu_share",
	"ledger.e2e_ns_per_row",
	"ledger.layer_sum_ns_per_row",
	"ledger.trace_overhead_ns_per_row",
}

// checkMetrics reports a run that did not produce exactly the metrics its
// mode promises, or produced a value JSON cannot carry.
func (r *report) checkMetrics() error {
	want := gatedMetrics
	if r.Trace {
		want = layerMetrics
	}
	if len(r.Metrics) != len(want) {
		return fmt.Errorf("run produced %d metrics, want %d", len(r.Metrics), len(want))
	}
	for _, name := range want {
		m, ok := r.Metrics[name]
		if !ok {
			return fmt.Errorf("metric %s missing", name)
		}
		if m.Value != m.Value || m.Value > 1e300 || m.Value < -1e300 {
			return fmt.Errorf("metric %s is %v", name, m.Value)
		}
	}
	return nil
}
