package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"sync"
	"time"

	"tkcm/internal/core"
	"tkcm/internal/server"
	"tkcm/internal/shard"
	"tkcm/internal/wal"
	"tkcm/internal/wire"
)

// Bounds on the single-goroutine replays, so a traced run stays short on
// every workload.
const (
	replayTenants   = 2    // tenants replayed through the layers
	replayRows      = 3000 // rows per tenant through core and shard
	walPacedFor     = time.Second
	hydrateCycles   = 8
	restoreRepeats  = 5
	snapshotRepeats = 3
)

// capturedLine is one served input line with its decoded rows.
type capturedLine struct {
	raw  []byte
	seq  uint64
	rows [][]float64
}

// splitLines returns the complete NDJSON objects in a capture: a capture
// can begin or end mid-line, and a fragment never starts with '{' (rows and
// values are arrays), so fragments are dropped.
func splitLines(s string) [][]byte {
	var out [][]byte
	for {
		i := strings.IndexByte(s, '\n')
		if i < 0 {
			return out // trailing partial line
		}
		if line := s[:i]; strings.HasPrefix(line, "{") {
			out = append(out, []byte(line))
		}
		s = s[i+1:]
	}
}

// decodeLines decodes captured tick lines, copying their rows out of the
// parser's scratch. Lines outside the fast parser's shape go through the
// same encoding/json fallback the server uses.
func decodeLines(raw [][]byte) ([]capturedLine, error) {
	var in wire.TickIn
	out := make([]capturedLine, 0, len(raw))
	for _, l := range raw {
		cl := capturedLine{raw: l}
		if wire.ParseTickIn(l, &in) {
			cl.seq = in.Seq
			if in.HasValues {
				cl.rows = [][]float64{append([]float64(nil), in.Values...)}
			}
			for _, r := range in.Rows {
				cl.rows = append(cl.rows, append([]float64(nil), r...))
			}
		} else {
			var j struct {
				Seq    uint64       `json:"seq"`
				Values []*float64   `json:"values"`
				Rows   [][]*float64 `json:"rows"`
			}
			if err := json.Unmarshal(l, &j); err != nil {
				return nil, fmt.Errorf("captured tick line: %w", err)
			}
			cl.seq = j.Seq
			conv := func(vs []*float64) []float64 {
				r := make([]float64, len(vs))
				for i, v := range vs {
					r[i] = math.NaN()
					if v != nil {
						r[i] = *v
					}
				}
				return r
			}
			if j.Values != nil {
				cl.rows = [][]float64{conv(j.Values)}
			}
			for _, r := range j.Rows {
				cl.rows = append(cl.rows, conv(r))
			}
		}
		if cl.seq == 0 || len(cl.rows) == 0 {
			return nil, fmt.Errorf("captured tick line without seq or rows: %.60q", l)
		}
		out = append(out, cl)
	}
	return out, nil
}

// layerSum accumulates one entry point's timed calls.
type layerSum struct {
	ns     int64
	rows   int
	allocs uint64
}

func (l *layerSum) nsPerRow() float64 { return perRow(float64(l.ns), l.rows) }

// timed runs fn, records its span and adds it to sum.
func (r *runner) timed(sum *layerSum, name string, tenant int, seq uint64, rows int, fn func()) {
	t0 := mono()
	fn()
	t1 := mono()
	r.tr.add(span{Name: name, Tenant: int32(tenant), Seq: seq, Parent: -1, Start: t0, End: t1, Rows: int32(rows)})
	sum.ns += t1 - t0
	sum.rows += rows
}

func mallocs() uint64 {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return ms.Mallocs
}

// layers holds every replayed entry point's totals.
type layers struct {
	decode, ackParse, ackEncode     layerSum
	fastLines, lines                int
	inBytes, outBytes               int
	coreTick, coreReplay, shardTick layerSum
	walAppend, walReplay            layerSum
	imputations                     int
	commitWait                      []float64 // µs
	walRows, walSyncs, walBytes     float64
	snapshotMs, restoreMs           []float64
	hydrateCold, hydrateWarm        []float64 // ms
}

// replayLayers replays the captured lines of up to replayTenants tenants on
// this goroutine through each layer's public entry points: wire codec, core
// engine, WAL and shard manager.
func (r *runner) replayLayers(ctx context.Context, o options) (*layers, error) {
	type capture struct {
		t     *tenant
		out   string
		lines []capturedLine
	}
	var caps []capture
	for _, t := range r.tenants {
		in, out := r.tr.in[t.id], r.tr.out[t.id]
		if in == nil || out == nil {
			continue
		}
		lines, err := decodeLines(splitLines(in.String()))
		if err != nil {
			return nil, err
		}
		if len(lines) > 0 {
			caps = append(caps, capture{t: t, out: out.String(), lines: lines})
		}
	}
	if len(caps) == 0 {
		return nil, fmt.Errorf("the traced phase captured no tick lines")
	}
	sort.SliceStable(caps, func(i, j int) bool { return len(caps[i].lines) > len(caps[j].lines) })
	if len(caps) > replayTenants {
		caps = caps[:replayTenants]
	}
	dir, err := os.MkdirTemp(o.workdir, "layers-")
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(dir)

	L := &layers{}
	for _, c := range caps {
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		if err := r.replayWire(L, c.t, c.lines, splitLines(c.out)); err != nil {
			return nil, err
		}
		lines := c.lines
		for n, i := 0, 0; i < len(lines); i++ {
			if n += len(lines[i].rows); n >= replayRows {
				lines = lines[:i+1]
				break
			}
		}
		snap, err := r.advanceEngine(L, c.t, lines[0].seq-1)
		if err != nil {
			return nil, err
		}
		dir := filepath.Join(dir, c.t.id)
		if err := os.MkdirAll(dir, 0o755); err != nil {
			return nil, err
		}
		steps := []func() error{
			func() error { return r.replayCore(L, c.t, snap, lines) },
			func() error { return r.replayRestore(L, snap, dir) },
			func() error { return r.replayWAL(ctx, L, c.t, lines, dir) },
			func() error { return r.replayShard(ctx, L, c.t, snap, lines, dir) },
			func() error { return r.replayHydrate(ctx, L, c.t, snap, lines, dir) },
		}
		for _, step := range steps {
			if err := step(); err != nil {
				return nil, err
			}
		}
	}
	return L, nil
}

// replayWire times the codec on exactly the served bytes: ParseTickIn on
// every input line, ParseAck on every ack line and AppendAck re-encoding it.
func (r *runner) replayWire(L *layers, t *tenant, lines []capturedLine, acks [][]byte) error {
	var in wire.TickIn
	m0 := mallocs()
	for _, l := range lines {
		var ok bool
		r.timed(&L.decode, "wire.ParseTickIn", t.idx, l.seq, len(l.rows), func() { ok = wire.ParseTickIn(l.raw, &in) })
		if ok {
			L.fastLines++
		}
		L.lines++
		L.inBytes += len(l.raw) + 1
	}
	var a wire.Ack
	buf := make([]byte, 0, 4096)
	for _, l := range acks {
		var ok bool
		r.timed(&L.ackParse, "wire.ParseAck", t.idx, 0, 1, func() { ok = wire.ParseAck(l, &a) })
		if !ok {
			continue // an in-stream error line; the served run reports it
		}
		r.timed(&L.ackEncode, "wire.AppendAck", t.idx, a.Seq, 1, func() {
			buf, _ = wire.AppendAck(buf[:0], a.Tick, a.Seq, a.Values, a.Imputed, a.Duplicate)
		})
		L.outBytes += len(l) + 1
	}
	L.decode.allocs += mallocs() - m0
	return nil
}

// advanceEngine builds tenant t's engine as it stood after seq upTo
// (untimed), then times Engine.Snapshot and returns the image.
func (r *runner) advanceEngine(L *layers, t *tenant, upTo uint64) ([]byte, error) {
	eng, err := core.NewEngine(refConfig(r.w), streamNames(r.w.streams), nil)
	if err != nil {
		return nil, err
	}
	defer eng.Close()
	const chunk = 256
	cols := make(core.Columns, r.w.streams)
	row := make([]float64, r.w.streams)
	for seq := uint64(1); seq <= upTo; {
		n := int(min(chunk, upTo-seq+1))
		for j := range cols {
			cols[j] = cols[j][:0]
		}
		for k := 0; k < n; k++ {
			r.g.row(t.idx, seq+uint64(k), row)
			for j, v := range row {
				cols[j] = append(cols[j], v)
			}
		}
		if _, _, err := eng.TickColumns(cols); err != nil {
			return nil, err
		}
		seq += uint64(n)
	}
	var img bytes.Buffer
	for i := 0; i < snapshotRepeats; i++ {
		img.Reset()
		var serr error
		var s layerSum
		r.timed(&s, "core.Snapshot", t.idx, upTo, 0, func() { serr = eng.Snapshot(&img) })
		if serr != nil {
			return nil, serr
		}
		L.snapshotMs = append(L.snapshotMs, float64(s.ns)/1e6)
	}
	return img.Bytes(), nil
}

func toColumns(rows [][]float64, cols core.Columns) core.Columns {
	width := len(rows[0])
	if cap(cols) < width {
		cols = make(core.Columns, width)
	}
	cols = cols[:width]
	for j := range cols {
		cols[j] = cols[j][:0]
		for _, row := range rows {
			cols[j] = append(cols[j], row[j])
		}
	}
	return cols
}

// replayCore times Engine.TickColumns on the served batches and row-at-a-
// time Engine.Tick (what hydration runs) on the same rows.
func (r *runner) replayCore(L *layers, t *tenant, snap []byte, lines []capturedLine) error {
	eng, err := core.RestoreEngineBytes(snap)
	if err != nil {
		return err
	}
	imp0 := eng.Stats.Imputations
	cols := make(core.Columns, r.w.streams)
	for _, l := range lines { // first pass sizes the column scratch
		cols = toColumns(l.rows, cols)
	}
	m0 := mallocs()
	for _, l := range lines {
		cols = toColumns(l.rows, cols)
		var terr error
		r.timed(&L.coreTick, "core.TickColumns", t.idx, l.seq, len(l.rows), func() { _, _, terr = eng.TickColumns(cols) })
		if terr != nil {
			eng.Close()
			return terr
		}
	}
	L.coreTick.allocs += mallocs() - m0
	L.imputations += eng.Stats.Imputations - imp0
	eng.Close()

	eng, err = core.RestoreEngineBytes(snap)
	if err != nil {
		return err
	}
	defer eng.Close()
	for _, l := range lines {
		for k, row := range l.rows {
			var terr error
			r.timed(&L.coreReplay, "core.Tick", t.idx, l.seq+uint64(k), 1, func() { _, _, terr = eng.Tick(row) })
			if terr != nil {
				return terr
			}
		}
	}
	return nil
}

// replayRestore times RestoreEngineFile on the snapshot image.
func (r *runner) replayRestore(L *layers, snap []byte, dir string) error {
	path := filepath.Join(dir, "restore.tkcm")
	if err := os.WriteFile(path, snap, 0o644); err != nil {
		return err
	}
	for i := 0; i < restoreRepeats; i++ {
		var eng *core.Engine
		var err error
		var s layerSum
		r.timed(&s, "core.RestoreEngineFile", -1, 0, 0, func() { eng, err = core.RestoreEngineFile(path) })
		if err != nil {
			return err
		}
		eng.Close()
		L.restoreMs = append(L.restoreMs, float64(s.ns)/1e6)
	}
	return nil
}

// replayWAL times Log.AppendBatch on the served batches, paced at the
// workload's rate for up to walPacedFor so the group commit sees the
// served pace; a second goroutine waits on each Commit like the server's
// ack writer does. Then it times ReplayTenantTail over what was appended.
func (r *runner) replayWAL(ctx context.Context, L *layers, t *tenant, lines []capturedLine, dir string) error {
	mgr := wal.NewManager(filepath.Join(dir, "wal-append"), wal.Options{SyncInterval: walSync, SegmentBytes: walSegment})
	defer mgr.Close()
	log, err := mgr.Open(t.id)
	if err != nil {
		return err
	}
	first := lines[0].seq
	if err := log.SetNextSeq(first); err != nil {
		return err
	}
	rate := r.w.rate
	if !r.w.cold() {
		rate /= float64(r.w.tenants)
	}
	type pending struct {
		c  wal.Commit
		at int64
	}
	waits := make(chan pending, len(lines))
	var waitErr error
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		for p := range waits {
			if err := p.c.Wait(); err != nil && waitErr == nil {
				waitErr = err
			}
			L.commitWait = append(L.commitWait, float64(mono()-p.at)/1e3)
		}
	}()
	s0 := mgr.Stats()
	start := mono()
	rows := 0
	for _, l := range lines {
		due := start + int64(float64(rows)/rate*1e9)
		if time.Duration(due-start) > walPacedFor {
			break
		}
		if d := time.Duration(due - mono()); d > 0 {
			time.Sleep(d)
		}
		var c wal.Commit
		var aerr error
		r.timed(&L.walAppend, "wal.AppendBatch", t.idx, l.seq, len(l.rows), func() { c, aerr = log.AppendBatch(l.seq, l.rows) })
		if aerr != nil {
			close(waits)
			wg.Wait()
			return aerr
		}
		waits <- pending{c: c, at: mono()}
		rows += len(l.rows)
	}
	close(waits)
	wg.Wait()
	if waitErr != nil {
		return waitErr
	}
	s1 := mgr.Stats()
	L.walRows += float64(rows)
	L.walSyncs += float64(s1.Syncs - s0.Syncs)
	L.walBytes += float64(s1.Bytes - s0.Bytes)

	var replayed uint64
	var rerr error
	r.timed(&L.walReplay, "wal.ReplayTenantTail", t.idx, first, rows, func() {
		replayed, rerr = mgr.ReplayTenantTail(t.id, first, func(uint64, []float64) error { return nil })
	})
	if rerr != nil {
		return rerr
	}
	if last := first + uint64(rows) - 1; rows > 0 && replayed != last {
		return fmt.Errorf("wal replay reached seq %d, appended through %d", replayed, last)
	}
	return ctx.Err()
}

// replayShard times Manager.TickBatch on a WAL-backed manager hosting the
// tenant's engine.
func (r *runner) replayShard(ctx context.Context, L *layers, t *tenant, snap []byte, lines []capturedLine, dir string) error {
	wm := wal.NewManager(filepath.Join(dir, "wal-shard"), wal.Options{SyncInterval: walSync, SegmentBytes: walSegment})
	defer wm.Close()
	m := shard.New(shard.Options{Shards: 1, QueueLen: shardQueueLen, WAL: wm})
	defer m.Close()
	eng, err := core.RestoreEngineBytes(snap)
	if err != nil {
		return err
	}
	if err := m.Attach(ctx, t.id, eng); err != nil {
		return err
	}
	var rsp shard.BatchResponse
	for _, l := range lines {
		var terr error
		r.timed(&L.shardTick, "shard.TickBatch", t.idx, l.seq, len(l.rows), func() { terr = m.TickBatch(ctx, t.id, l.seq, l.rows, &rsp) })
		if terr != nil {
			return terr
		}
	}
	return rsp.Durable.Wait()
}

// replayHydrate alternates a TickBatch that lands on the parked tenant
// (hydration: checkpoint restore plus WAL-tail replay) with one on the
// resident tenant, parking it again between cycles through a second tenant
// under a one-engine residency cap.
func (r *runner) replayHydrate(ctx context.Context, L *layers, t *tenant, snap []byte, lines []capturedLine, dir string) error {
	ck := filepath.Join(dir, "hydrate-ck")
	if err := os.MkdirAll(ck, 0o755); err != nil {
		return err
	}
	const other = "zz-other"
	for _, id := range []string{t.id, other} {
		if err := os.WriteFile(filepath.Join(ck, id+".tkcm"), snap, 0o644); err != nil {
			return err
		}
	}
	wm := wal.NewManager(filepath.Join(dir, "wal-hydrate"), wal.Options{SyncInterval: walSync, SegmentBytes: walSegment})
	defer wm.Close()
	m := shard.New(shard.Options{
		Shards: 1, QueueLen: shardQueueLen, WAL: wm, ResidentEngines: 1,
		Hydrate: server.CheckpointHydrator(ck), Parkable: server.CheckpointParkable(ck),
	})
	defer m.Close()
	for _, id := range []string{t.id, other} {
		eng, err := core.RestoreEngineBytes(snap)
		if err != nil {
			return err
		}
		if err := m.Attach(ctx, id, eng); err != nil {
			return err
		}
	}
	// Attaching other parked t. Cycle: cold tick on t, warm tick on t, one
	// unsequenced row to other (parks t again).
	var rsp shard.BatchResponse
	var dummy shard.BatchResponse
	h0 := m.Residency().Hydrations
	for i := 0; i+1 < len(lines) && i/2 < hydrateCycles; i += 2 {
		for k, dst := range []*[]float64{&L.hydrateCold, &L.hydrateWarm} {
			l := lines[i+k]
			var s layerSum
			var terr error
			r.timed(&s, "shard.TickBatch", t.idx, l.seq, len(l.rows), func() { terr = m.TickBatch(ctx, t.id, l.seq, l.rows, &rsp) })
			if terr != nil {
				return terr
			}
			*dst = append(*dst, float64(s.ns)/1e6)
			// Served bursts are acked — durable — before their tenant can
			// park again; the replay keeps that order.
			if err := rsp.Durable.Wait(); err != nil {
				return err
			}
		}
		if err := m.TickBatch(ctx, other, 0, lines[i].rows[:1], &dummy); err != nil {
			return err
		}
		if err := dummy.Durable.Wait(); err != nil {
			return err
		}
	}
	if got := m.Residency().Hydrations - h0; got == 0 {
		return fmt.Errorf("hydration replay: no hydrations happened")
	}
	return nil
}

// ledger is the traced per-layer table: each layer's self time per row,
// their sum, the tracing overhead, the traced end-to-end per-row cost and
// the residual.
type ledger struct {
	Lines         []ledgerLine `json:"lines"`
	SumNsPerRow   float64      `json:"sum_ns_per_row"`
	E2ENsPerRow   float64      `json:"e2e_ns_per_row"`
	Residual      float64      `json:"residual_ns_per_row"`
	UntracedNs    float64      `json:"untraced_e2e_ns_per_row"`
	OverheadNs    float64      `json:"trace_overhead_ns_per_row"`
	ResidualNames string       `json:"residual_covers"`
}

func (l *ledger) print(w io.Writer) {
	fmt.Fprintf(w, "  ledger (CPU ns per row; layer self times from single-goroutine replays)\n")
	for _, x := range l.Lines {
		fmt.Fprintf(w, "    %-12s %12.1f  %s\n", x.Layer, x.NsPerRow, x.Entrypoint)
	}
	fmt.Fprintf(w, "    %-12s %12.1f\n", "sum", l.SumNsPerRow)
	fmt.Fprintf(w, "    %-12s %12.1f  spans and byte capture (traced − untraced)\n", "tracing", l.OverheadNs)
	fmt.Fprintf(w, "    %-12s %12.1f  %s\n", "residual", l.Residual, l.ResidualNames)
	fmt.Fprintf(w, "    %-12s %12.1f  (traced; untraced %.1f)\n", "end-to-end", l.E2ENsPerRow, l.UntracedNs)
}
