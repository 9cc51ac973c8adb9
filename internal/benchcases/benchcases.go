// Package benchcases holds the pinned hot-path micro-benchmark bodies shared
// by the root bench_test.go wrappers (go test -bench) and the tkcm-bench
// "pinned" experiment (testing.Benchmark), which CI runs as a regression gate
// against the committed BENCH_engine.json. One definition guarantees the gate
// measures exactly what the named benchmarks measure.
//
// Every engine case streams the same deterministic daily-periodic workload:
// width 4, window 4032, stream 0 missing every 20th measured tick (the
// loadgen default 5% missing rate) — so the row-at-a-time baseline and the
// columnar batch path are directly comparable ns-per-tick numbers.
package benchcases

import (
	"bytes"
	"context"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"testing"
	"time"

	"tkcm"
	"tkcm/internal/core"
	"tkcm/internal/shard"
	"tkcm/internal/wal"
)

// Case is one pinned micro-benchmark: a stable name (the regression-gate
// key), the ingest batch size it runs at, and the benchmark body.
type Case struct {
	// Name keys the measurement in BENCH_engine.json's pinned rows.
	Name string
	// Batch is the ingest batch size (1 = row-at-a-time).
	Batch int
	// Fn is the benchmark body; ns/op is per tick (engine cases) or per
	// appended row (WAL cases).
	Fn func(b *testing.B)
}

// Cases returns the pinned micro-benchmarks, baseline first.
func Cases() []Case {
	return []Case{
		{Name: "engine-tick", Batch: 1, Fn: EngineTick},
		{Name: "engine-tick-columns-64", Batch: 64, Fn: func(b *testing.B) { EngineTickColumns(b, 64) }},
		{Name: "wal-append", Batch: 1, Fn: WALAppend},
		{Name: "wal-append-batch-64", Batch: 64, Fn: func(b *testing.B) { WALAppendBatch(b, 64) }},
		{Name: "shard-tick", Batch: 1, Fn: ShardTick},
		{Name: "shard-tick-cold", Batch: 1, Fn: ShardTickCold},
	}
}

// benchWidth/benchWindow fix the engine cases' shape.
const (
	benchWidth  = 4
	benchWindow = 4032
)

// fillTick writes the deterministic measurement of global tick t into
// dst[0:benchWidth]. Stream 0 goes missing every 20th tick once the window
// is warm.
func fillTick(t int, dst []float64) {
	ph := 2 * math.Pi * float64(t) / 288
	state := uint64(t)*2654435761 + 17
	noise := func() float64 {
		state ^= state << 13
		state ^= state >> 7
		state ^= state << 17
		return float64(state%1000) / 2000
	}
	dst[0] = math.Sin(ph) + noise()
	dst[1] = math.Sin(ph-1.0) + noise()
	dst[2] = math.Cos(ph+0.4) + noise()
	dst[3] = math.Sin(2*ph) + noise()
	if t >= benchWindow && t%20 == 0 {
		dst[0] = tkcm.Missing
	}
}

// newWarmEngine builds the shared engine and streams the first benchWindow
// (complete) ticks so every case measures the warm steady state.
func newWarmEngine(b *testing.B) *tkcm.Engine {
	b.Helper()
	cfg := tkcm.Config{K: 5, PatternLength: 72, D: 3, WindowLength: benchWindow}
	eng, err := tkcm.NewEngine(cfg, []string{"s", "r1", "r2", "r3"}, map[string]tkcm.ReferenceSet{
		"s": {Stream: "s", Candidates: []string{"r1", "r2", "r3"}},
	})
	if err != nil {
		b.Fatal(err)
	}
	row := make([]float64, benchWidth)
	for t := 0; t < benchWindow; t++ {
		fillTick(t, row)
		if _, _, err := eng.Tick(row); err != nil {
			b.Fatal(err)
		}
	}
	return eng
}

// EngineTick is the row-at-a-time baseline: one Tick per measured tick.
func EngineTick(b *testing.B) {
	eng := newWarmEngine(b)
	defer eng.Close()
	row := make([]float64, benchWidth)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		fillTick(benchWindow+i, row)
		if _, _, err := eng.Tick(row); err != nil {
			b.Fatal(err)
		}
	}
}

// EngineTickColumns streams the same workload through the columnar batch
// path, batch ticks per TickColumns call; ns/op stays per tick.
func EngineTickColumns(b *testing.B, batch int) {
	eng := newWarmEngine(b)
	defer eng.Close()
	buf := make([][]float64, benchWidth)
	for j := range buf {
		buf[j] = make([]float64, batch)
	}
	cols := make(tkcm.Columns, benchWidth)
	row := make([]float64, benchWidth)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i += batch {
		n := batch
		if rest := b.N - i; rest < n {
			n = rest
		}
		for t := 0; t < n; t++ {
			fillTick(benchWindow+i+t, row)
			for j := range buf {
				buf[j][t] = row[j]
			}
		}
		for j := range cols {
			cols[j] = buf[j][:n]
		}
		if _, _, err := eng.TickColumns(cols); err != nil {
			b.Fatal(err)
		}
	}
}

// walRows builds n identical width-8 rows for the WAL cases.
func walRows(n int) [][]float64 {
	rows := make([][]float64, n)
	for i := range rows {
		rows[i] = []float64{20.5, 19.25, 21, 20, 18.5, 22, 20.75, 19}
	}
	return rows
}

// syncEvery is the WAL cases' backpressure quantum: an explicit Sync (off
// the clock) every this many rows. Production appenders are throttled by
// Commit.Wait/MaxInFlight, so the log's in-memory backlog stays bounded; an
// unthrottled bench loop instead grows the append buffer without limit and
// ends up measuring growslice memmove. The off-clock sync recycles the
// double-buffer the way a draining flusher does, leaving the timed region
// to the append path itself (encode + CRC + group-commit bookkeeping).
const syncEvery = 4096

// newBenchLog opens a log in a throwaway directory. The group-commit window
// is effectively infinite — the cases sync explicitly, off the clock.
func newBenchLog(b *testing.B) (*wal.Log, func()) {
	b.Helper()
	dir, err := os.MkdirTemp("", "tkcm-walbench")
	if err != nil {
		b.Fatal(err)
	}
	l, err := wal.Open(dir, wal.Options{SyncInterval: time.Minute, SegmentBytes: 1 << 30})
	if err != nil {
		os.RemoveAll(dir)
		b.Fatal(err)
	}
	return l, func() {
		l.Close()
		os.RemoveAll(dir)
	}
}

// WALAppend is the per-row WAL baseline: a one-row AppendBatch, so one
// plain record, one CRC, one group-commit slot per row.
func WALAppend(b *testing.B) {
	l, done := newBenchLog(b)
	rows := walRows(1)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := l.AppendBatch(uint64(i+1), rows); err != nil {
			b.Fatal(err)
		}
		if (i+1)%syncEvery == 0 {
			b.StopTimer()
			if err := l.Sync(); err != nil {
				b.Fatal(err)
			}
			b.StartTimer()
		}
	}
	b.StopTimer()
	done()
}

// WALAppendBatch appends the same rows batch-at-a-time: one record, one CRC,
// one group-commit slot per batch; ns/op stays per row.
func WALAppendBatch(b *testing.B, batch int) {
	l, done := newBenchLog(b)
	rows := walRows(batch)
	seq := uint64(1)
	sinceSync := 0
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i += batch {
		n := batch
		if rest := b.N - i; rest < n {
			n = rest
		}
		if _, err := l.AppendBatch(seq, rows[:n]); err != nil {
			b.Fatal(err)
		}
		seq += uint64(n)
		if sinceSync += n; sinceSync >= syncEvery {
			sinceSync = 0
			b.StopTimer()
			if err := l.Sync(); err != nil {
				b.Fatal(err)
			}
			b.StartTimer()
		}
	}
	b.StopTimer()
	done()
}

// ShardTick measures the full shard-layer tick path — a one-row TickBatch:
// routing lookup, bounded-queue handoff, the shard goroutine's dispatch, and
// the engine tick — against the EngineTick baseline, so the serving overhead
// (including the stage clocks added for the latency histograms) is a pinned
// number rather than a guess. One shard, one tenant, warm window; ns/op is
// per tick.
func ShardTick(b *testing.B) {
	m := shard.New(shard.Options{Shards: 1, QueueLen: 64})
	defer m.Close()
	ctx := context.Background()
	cfg := tkcm.Config{K: 5, PatternLength: 72, D: 3, WindowLength: benchWindow}
	err := m.Create(ctx, "bench", cfg, []string{"s", "r1", "r2", "r3"}, map[string]tkcm.ReferenceSet{
		"s": {Stream: "s", Candidates: []string{"r1", "r2", "r3"}},
	})
	if err != nil {
		b.Fatal(err)
	}
	row := make([]float64, benchWidth)
	rows := [][]float64{row}
	var rsp shard.BatchResponse
	for t := 0; t < benchWindow; t++ {
		fillTick(t, row)
		if err := m.TickBatch(ctx, "bench", 0, rows, &rsp); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		fillTick(benchWindow+i, row)
		if err := m.TickBatch(ctx, "bench", 0, rows, &rsp); err != nil {
			b.Fatal(err)
		}
	}
}

// ShardTickCold measures the residency tier's worst case against ShardTick's
// warm baseline: every measured tick lands on a PARKED tenant, so ns/op is
// hydration (memory-mapped checkpoint restore + residency bookkeeping) plus
// the tick itself. Two tenants alternate under a one-engine budget — each
// tick hydrates its tenant and parks the other — and the re-checkpoint that
// keeps hydration valid for the next round happens off the clock, via temp
// file + rename so the live engine's mapped window is never overwritten in
// place.
func ShardTickCold(b *testing.B) {
	dir, err := os.MkdirTemp("", "tkcm-coldbench")
	if err != nil {
		b.Fatal(err)
	}
	defer os.RemoveAll(dir)
	ckpt := func(id string) string { return filepath.Join(dir, id+".ckpt") }
	m := shard.New(shard.Options{
		Shards: 1, QueueLen: 64, ResidentEngines: 1,
		Hydrate: func(id string) (*core.Engine, error) { return core.RestoreEngineFile(ckpt(id)) },
	})
	defer m.Close()
	ctx := context.Background()

	// One warm image seeds both tenants; attaching the second parks the
	// first, so the loop below starts with a parked tenant on deck.
	seed := newWarmEngine(b)
	var img bytes.Buffer
	if err := seed.Snapshot(&img); err != nil {
		b.Fatal(err)
	}
	seed.Close()
	ids := []string{"cold-a", "cold-b"}
	for _, id := range ids {
		if err := os.WriteFile(ckpt(id), img.Bytes(), 0o644); err != nil {
			b.Fatal(err)
		}
		eng, err := core.RestoreEngineFile(ckpt(id))
		if err != nil {
			b.Fatal(err)
		}
		if err := m.Attach(ctx, id, eng); err != nil {
			b.Fatal(err)
		}
	}

	// recheckpoint refreshes id's on-disk image (off the clock) so its next
	// eviction/hydration round-trips to the sequence it just reached.
	recheckpoint := func(id string) {
		f, err := os.CreateTemp(dir, "ck-*")
		if err != nil {
			b.Fatal(err)
		}
		if _, err := m.Snapshot(ctx, id, f); err != nil {
			b.Fatal(err)
		}
		if err := f.Close(); err != nil {
			b.Fatal(err)
		}
		if err := os.Rename(f.Name(), ckpt(id)); err != nil {
			b.Fatal(err)
		}
	}

	row := make([]float64, benchWidth)
	rows := [][]float64{row}
	var rsp shard.BatchResponse
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		id := ids[i%2]
		fillTick(benchWindow+i, row)
		if err := m.TickBatch(ctx, id, 0, rows, &rsp); err != nil {
			b.Fatal(fmt.Errorf("cold tick %d (%s): %w", i, id, err))
		}
		b.StopTimer()
		recheckpoint(id)
		b.StartTimer()
	}
}
