package main

import (
	"context"
	"fmt"
	"math"
	"path/filepath"
	"runtime"
	"sort"
	"time"
)

// traced is the --trace 1 run after the lead-in: an untraced and a traced
// fixed-rate half (spans around every client call and HTTP request), the
// reference check, then the single-goroutine layer replays. It fills the
// per-layer metrics and the ledger.
func (r *runner) traced(ctx context.Context, o options, rep *report, sess *session, next *int, half time.Duration) error {
	// The runtime's CPU classes advance at GC ends; a GC at both edges
	// makes the untraced phase's GC share readable.
	runtime.GC()
	cpu0, rt0 := cpuTime(), readRuntime()
	p0, err := r.fixedRate(ctx, sess, next, half, nil)
	if err != nil {
		return fmt.Errorf("untraced phase: %w", err)
	}
	cpu1 := cpuTime()
	runtime.GC()
	rt1 := readRuntime()

	c0 := readScrape(r.st)
	r.tr.setOn(true)
	cpu2 := cpuTime()
	p1, err := r.fixedRate(ctx, sess, next, half, nil)
	cpu3 := cpuTime()
	r.tr.setOn(false)
	if err != nil {
		return fmt.Errorf("traced phase: %w", err)
	}
	c1 := readScrape(r.st)
	if err := sess.close(); err != nil {
		r.problem("teardown: %v", err)
	}
	cRun := c1.sub(c0)
	rep.Counters = &cRun
	if err := r.finish(ctx, o, rep); err != nil {
		return err
	}

	L, err := r.replayLayers(ctx, o)
	if err != nil {
		return fmt.Errorf("layer replay: %w", err)
	}
	if err := r.tr.writeSpans(filepath.Join(o.workdir, "spans-"+o.workload+".jsonl")); err != nil {
		return fmt.Errorf("writing spans: %w", err)
	}

	untraced := (cpu1 - cpu0) / float64(p0.rows)
	tracedNs := (cpu3 - cpu2) / float64(p1.rows)

	// Client: Send blocks only on a full in-flight window.
	sends := r.tr.spansNamed("client.Send")
	var sendNs int64
	for _, s := range sends {
		sendNs += s.End - s.Start
	}
	rep.set("client.send_wait_us", perRow(float64(sendNs), len(sends))/1e3, "us", len(sends))
	rep.set("client.dup_acks", float64(r.dups.Load()), "count", int(rep.Attempted))

	late0 := make([]float64, len(p0.times))
	for i, t := range p0.times {
		late0[i] = float64(t.lateness()) / 1e6
	}
	sort.Float64s(late0)
	late, _ := percentile(late0, 0.99)
	rep.set("loadgen.late_p99_ms", late.Value, "ms", late.Samples)
	rep.set("loadgen.backlog_max_rows", float64(p0.backlogMax), "rows", p0.rows)

	rep.set("wire.decode_ns_per_row", L.decode.nsPerRow(), "ns", L.decode.rows)
	rep.set("wire.ack_encode_ns_per_row", L.ackEncode.nsPerRow(), "ns", L.ackEncode.rows)
	rep.set("wire.ack_parse_ns_per_row", L.ackParse.nsPerRow(), "ns", L.ackParse.rows)
	rep.set("wire.in_bytes_per_row", perRow(float64(L.inBytes), L.decode.rows), "bytes", L.decode.rows)
	rep.set("wire.out_bytes_per_row", perRow(float64(L.outBytes), L.ackEncode.rows), "bytes", L.ackEncode.rows)
	rep.set("wire.fastpath_share", perRow(float64(L.fastLines), L.lines), "share", L.lines)
	rep.set("wire.allocs_per_row", perRow(float64(L.decode.allocs), L.decode.rows), "count", L.decode.rows)

	sort.Float64s(L.commitWait)
	rep.set("wal.append_ns_per_row", L.walAppend.nsPerRow(), "ns", L.walAppend.rows)
	rep.set("wal.commit_wait_us", median(L.commitWait), "us", len(L.commitWait))
	rep.set("wal.rows_per_fsync", L.walRows/math.Max(L.walSyncs, 1), "rows", int(L.walSyncs))
	rep.set("wal.bytes_per_row", L.walBytes/math.Max(L.walRows, 1), "bytes", int(L.walRows))
	rep.set("wal.replay_ns_per_row", L.walReplay.nsPerRow(), "ns", L.walReplay.rows)

	rep.set("core.tick_ns_per_row", L.coreTick.nsPerRow(), "ns", L.coreTick.rows)
	rep.set("core.imputations_per_row", perRow(float64(L.imputations), L.coreTick.rows), "count", L.coreTick.rows)
	rep.set("core.allocs_per_row", perRow(float64(L.coreTick.allocs), L.coreTick.rows), "count", L.coreTick.rows)
	rep.set("core.replay_tick_ns_per_row", L.coreReplay.nsPerRow(), "ns", L.coreReplay.rows)
	rep.set("core.restore_ms", median(L.restoreMs), "ms", len(L.restoreMs))
	rep.set("core.snapshot_ms", median(L.snapshotMs), "ms", len(L.snapshotMs))

	shardSelf := L.shardTick.nsPerRow() - L.coreTick.nsPerRow() - L.walAppend.nsPerRow()
	rep.set("shard.tick_ns_per_row", L.shardTick.nsPerRow(), "ns", L.shardTick.rows)
	rep.set("shard.self_ns_per_row", shardSelf, "ns", L.shardTick.rows)
	hydrateMs := median(L.hydrateCold) - median(L.hydrateWarm)
	rep.set("shard.hydrate_ms", hydrateMs, "ms", len(L.hydrateCold))
	rep.set("shard.hydrations_per_krow", 1e3*cRun.Hydrations/math.Max(cRun.TickRows, 1), "count", int(cRun.TickRows))
	rep.set("shard.evictions_per_krow", 1e3*cRun.Evictions/math.Max(cRun.TickRows, 1), "count", int(cRun.TickRows))

	lines := cRun.StageCount["decode"]
	for _, stage := range []string{"decode", "queue", "engine", "wal_commit", "ack"} {
		rep.set("server."+stage+"_us", 1e6*cRun.StageSum[stage]/math.Max(cRun.StageCount[stage], 1), "us", int(cRun.StageCount[stage]))
	}
	rep.set("server.rows_per_line", cRun.TickRows/math.Max(lines, 1), "rows", int(lines))
	rep.set("server.handler_self_us", r.handlerSelfUs(lines), "us", int(lines))

	// The layer lines are CPU per row from untraced single-goroutine replays;
	// the spans' own cost is the traced phase's CPU per row over the
	// untraced one's, so lines + tracing + residual = traced end-to-end.
	led := &ledger{
		Lines: []ledgerLine{
			{Layer: "wire", NsPerRow: L.decode.nsPerRow() + L.ackEncode.nsPerRow() + L.ackParse.nsPerRow(), Entrypoint: "ParseTickIn + AppendAck + ParseAck"},
			{Layer: "shard", NsPerRow: shardSelf, Entrypoint: "Manager.TickBatch − core − wal"},
			{Layer: "core", NsPerRow: L.coreTick.nsPerRow(), Entrypoint: "Engine.TickColumns"},
			{Layer: "wal", NsPerRow: L.walAppend.nsPerRow(), Entrypoint: "Log.AppendBatch"},
			// Hydration: the served run's hydrations per row times what one
			// costs in the replay (a TickBatch on a parked tenant minus a
			// warm one).
			{Layer: "hydration", NsPerRow: 1e6 * hydrateMs * cRun.Hydrations / math.Max(cRun.TickRows, 1), Entrypoint: "Manager.TickBatch on a parked tenant"},
		},
		E2ENsPerRow:   tracedNs,
		UntracedNs:    untraced,
		OverheadNs:    tracedNs - untraced,
		ResidualNames: "net/http + loopback + handler glue + client encode + WAL fsync + GC + generator",
	}
	led.SumNsPerRow, led.Residual = residual(tracedNs, led.OverheadNs, led.Lines)
	rep.Ledger = led
	rep.set("server.residual_ns_per_row", led.Residual, "ns", p1.rows)
	rep.set("go.alloc_bytes_per_row", (rt1.allocBytes-rt0.allocBytes)/float64(p0.rows), "bytes", p0.rows)
	rep.set("go.gc_cpu_share", (rt1.gcCPU-rt0.gcCPU)/math.Max(rt1.busyCPU()-rt0.busyCPU(), 1e-9), "share", p0.rows)
	rep.set("ledger.e2e_ns_per_row", tracedNs, "ns", p1.rows)
	rep.set("ledger.layer_sum_ns_per_row", led.SumNsPerRow, "ns", p1.rows)
	rep.set("ledger.trace_overhead_ns_per_row", led.OverheadNs, "ns", p1.rows)
	rep.Raw["hydrate_cold_ms"] = L.hydrateCold
	rep.Raw["hydrate_warm_ms"] = L.hydrateWarm
	rep.Raw["restore_ms"] = L.restoreMs
	rep.Raw["snapshot_ms"] = L.snapshotMs
	rep.Raw["traced_rows"] = p1.rows
	rep.Raw["untraced_rows"] = p0.rows
	return nil
}

// handlerSelfUs is the tick handlers' self time per line over the traced
// period: each "http ticks" request span minus the union of its body-read
// and ack-write children, which overlap (the handler reads on one
// goroutine while its writer goroutine writes acks). It is wall time: what
// the handlers spent on neither socket — decoding and waiting on the shard
// and the group commit.
func (r *runner) handlerSelfUs(lines float64) float64 {
	kids := r.tr.children()
	r.tr.mu.Lock()
	win := r.tr.window
	var self int64
	for i, s := range r.tr.spans {
		if s.Name != "http ticks" || s.End < 0 {
			continue
		}
		// Only the traced period has child spans: clip the request to it.
		iv := interval{max(s.Start, win.start), min(s.End, win.end)}
		if iv.end > iv.start {
			self += selfTime(iv, kids[int32(i)])
		}
	}
	r.tr.mu.Unlock()
	return float64(self) / 1e3 / math.Max(lines, 1)
}
