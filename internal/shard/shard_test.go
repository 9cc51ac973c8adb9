package shard

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"math"
	"strings"
	"sync"
	"testing"
	"time"

	"path/filepath"

	"tkcm/internal/core"
	"tkcm/internal/wal"
)

func testConfig() core.Config {
	return core.Config{K: 2, PatternLength: 3, D: 2, WindowLength: 24}
}

func testStreams() []string { return []string{"a", "b", "c", "d"} }

func testRow(t int, width int) []float64 {
	row := make([]float64, width)
	for i := range row {
		row[i] = 5 + math.Sin(float64(t)/4+float64(i))
	}
	return row
}

// tickRow is one row's outcome through the manager's tick operation: its
// RowResult plus the durability handle the batch shares.
type tickRow struct {
	RowResult
	Durable wal.Commit
}

// imputedMismatch reports how a row's imputed cells differ, in any bit,
// from want, a completed row of the same tick; nil when they match.
func imputedMismatch(got RowResult, want []float64) error {
	if len(got.Values) != len(got.Imputed) {
		return fmt.Errorf("%d values for imputed cells %v", len(got.Values), got.Imputed)
	}
	for x, c := range got.Imputed {
		if g, w := math.Float64bits(got.Values[x]), math.Float64bits(want[c]); g != w {
			return fmt.Errorf("stream %d: %v (%#x), want %v (%#x)", c, got.Values[x], g, want[c], w)
		}
	}
	return nil
}

func requireImputed(t *testing.T, tk int, got RowResult, want []float64) {
	t.Helper()
	if err := imputedMismatch(got, want); err != nil {
		t.Fatalf("tick %d: %v", tk, err)
	}
}

// tick feeds one row to the tenant as a one-row TickBatch.
func tick(ctx context.Context, m *Manager, id string, seq uint64, row []float64, rsp *tickRow) error {
	var b BatchResponse
	if err := m.TickBatch(ctx, id, seq, [][]float64{row}, &b); err != nil {
		return err
	}
	rsp.RowResult, rsp.Durable = b.Rows[0], b.Durable
	return nil
}

func TestManagerLifecycle(t *testing.T) {
	ctx := context.Background()
	m := New(Options{Shards: 3, QueueLen: 8})
	defer m.Close()

	if err := m.Create(ctx, "t1", testConfig(), testStreams(), nil); err != nil {
		t.Fatal(err)
	}
	if err := m.Create(ctx, "t1", testConfig(), testStreams(), nil); !errors.Is(err, ErrTenantExists) {
		t.Fatalf("duplicate create: %v", err)
	}
	if err := m.Create(ctx, "t2", testConfig(), testStreams(), nil); err != nil {
		t.Fatal(err)
	}

	var rsp tickRow
	for tk := 0; tk < 60; tk++ {
		row := testRow(tk, 4)
		if tk > 30 && tk%5 == 0 {
			row[1] = math.NaN()
		}
		if err := tick(ctx, m, "t1", 0, row, &rsp); err != nil {
			t.Fatalf("tick %d: %v", tk, err)
		}
		if rsp.Tick != tk {
			t.Fatalf("tick index %d, want %d", rsp.Tick, tk)
		}
		if len(rsp.Values) != len(rsp.Imputed) {
			t.Fatalf("tick %d: %d values for imputed cells %v", tk, len(rsp.Values), rsp.Imputed)
		}
		for x, v := range rsp.Values {
			if math.IsNaN(v) {
				t.Fatalf("tick %d: imputed cell %d still missing", tk, rsp.Imputed[x])
			}
		}
		if tk > 30 && tk%5 == 0 && (len(rsp.Imputed) != 1 || rsp.Imputed[0] != 1) {
			t.Fatalf("tick %d: imputed %v, want [1]", tk, rsp.Imputed)
		}
	}

	infos, err := m.Tenants(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if len(infos) != 2 || infos[0].ID != "t1" || infos[1].ID != "t2" {
		t.Fatalf("tenants %+v", infos)
	}
	if infos[0].Ticks != 60 {
		t.Fatalf("t1 ticks %d, want 60", infos[0].Ticks)
	}

	if err := tick(ctx, m, "nope", 0, testRow(0, 4), &rsp); !errors.Is(err, ErrNoTenant) {
		t.Fatalf("tick unknown tenant: %v", err)
	}
	if err := m.Delete(ctx, "t2"); err != nil {
		t.Fatal(err)
	}
	if err := m.Delete(ctx, "t2"); !errors.Is(err, ErrNoTenant) {
		t.Fatalf("double delete: %v", err)
	}

	var snap bytes.Buffer
	if _, err := m.Snapshot(ctx, "t1", &snap); err != nil {
		t.Fatal(err)
	}
	if _, err := core.RestoreEngine(&snap); err != nil {
		t.Fatalf("manager snapshot not restorable: %v", err)
	}
}

// TestManagerMatchesDirectEngine: a tenant driven through the manager must
// produce bit-identical rows to a directly driven engine on the same input.
func TestManagerMatchesDirectEngine(t *testing.T) {
	ctx := context.Background()
	m := New(Options{Shards: 2})
	defer m.Close()
	if err := m.Create(ctx, "t", testConfig(), testStreams(), nil); err != nil {
		t.Fatal(err)
	}
	direct, err := core.NewEngine(testConfig(), testStreams(), nil)
	if err != nil {
		t.Fatal(err)
	}

	var rsp tickRow
	for tk := 0; tk < 120; tk++ {
		row := testRow(tk, 4)
		if tk > 30 && tk%4 == 0 {
			row[0] = math.NaN()
		}
		want, _, err := direct.Tick(append([]float64(nil), row...))
		if err != nil {
			t.Fatal(err)
		}
		if err := tick(ctx, m, "t", 0, row, &rsp); err != nil {
			t.Fatal(err)
		}
		requireImputed(t, tk, rsp.RowResult, want)
	}
}

// TestManagerConcurrentTenants drives many tenants from many goroutines
// (meaningful under -race): per-tenant ordering is the caller's, cross-tenant
// work interleaves freely across shards.
func TestManagerConcurrentTenants(t *testing.T) {
	ctx := context.Background()
	m := New(Options{Shards: 4, QueueLen: 2})
	defer m.Close()

	const tenants, ticks = 9, 80
	ids := make([]string, tenants)
	for i := range ids {
		ids[i] = string(rune('a'+i)) + "-tenant"
		if err := m.Create(ctx, ids[i], testConfig(), testStreams(), nil); err != nil {
			t.Fatal(err)
		}
	}
	var wg sync.WaitGroup
	errc := make(chan error, tenants)
	for _, id := range ids {
		wg.Add(1)
		go func() {
			defer wg.Done()
			var rsp tickRow
			for tk := 0; tk < ticks; tk++ {
				row := testRow(tk, 4)
				if tk > 30 && tk%3 == 0 {
					row[2] = math.NaN()
				}
				if err := tick(ctx, m, id, 0, row, &rsp); err != nil {
					errc <- err
					return
				}
			}
		}()
	}
	wg.Wait()
	close(errc)
	for err := range errc {
		t.Fatal(err)
	}

	total := uint64(0)
	for _, s := range m.Stats() {
		total += s.Ticks
	}
	if total != tenants*ticks {
		t.Fatalf("ticks across shards %d, want %d", total, tenants*ticks)
	}
}

// TestManagerCloseDrains: Close must complete queued work, then reject new
// submissions with ErrClosed.
func TestManagerCloseDrains(t *testing.T) {
	ctx := context.Background()
	m := New(Options{Shards: 1, QueueLen: 4})
	if err := m.Create(ctx, "t", testConfig(), testStreams(), nil); err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	var mu sync.Mutex
	done := 0
	for i := 0; i < 16; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			var rsp tickRow
			if err := tick(ctx, m, "t", 0, testRow(i, 4), &rsp); err == nil {
				mu.Lock()
				done++
				mu.Unlock()
			} else if !errors.Is(err, ErrClosed) {
				t.Errorf("tick: %v", err)
			}
		}()
	}
	m.Close()
	wg.Wait()
	var rsp tickRow
	if err := tick(ctx, m, "t", 0, testRow(0, 4), &rsp); !errors.Is(err, ErrClosed) {
		t.Fatalf("tick after close: %v", err)
	}
	if err := m.Create(ctx, "u", testConfig(), testStreams(), nil); !errors.Is(err, ErrClosed) {
		t.Fatalf("create after close: %v", err)
	}
}

// TestManagerContextCancelUnderBackpressure: a submitter stuck on a full
// queue must observe its context.
func TestManagerContextCancelUnderBackpressure(t *testing.T) {
	m := New(Options{Shards: 1, QueueLen: 1})
	defer m.Close()
	ctx := context.Background()
	if err := m.Create(ctx, "t", testConfig(), testStreams(), nil); err != nil {
		t.Fatal(err)
	}

	// Stall the shard goroutine with a blocking op and wait until it is
	// actually executing it: launching the three submissions concurrently
	// would let them race into the queue in any order, and if the cancellable
	// one slipped in it would wait on its (never-run) op while the test waits
	// on errc before releasing the shard — a deadlock.
	entered := make(chan struct{})
	release := make(chan struct{})
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		m.do(ctx, "t", func(*shard) error { close(entered); <-release; return nil })
	}()
	<-entered
	// One queued request occupies the buffer slot; wait until it is visibly
	// enqueued before submitting the cancellable request.
	wg.Add(1)
	go func() {
		defer wg.Done()
		m.do(ctx, "t", func(*shard) error { return nil })
	}()
	for deadline := time.Now().Add(10 * time.Second); m.Stats()[0].QueueDepth != 1; {
		if time.Now().After(deadline) {
			t.Fatal("queued request never became visible (QueueDepth != 1)")
		}
		time.Sleep(time.Millisecond)
	}
	// With the shard blocked and the queue full, the next submission must
	// block and then honor cancellation.
	cctx, cancel := context.WithCancel(ctx)
	errc := make(chan error, 1)
	wg.Add(1)
	go func() {
		defer wg.Done()
		errc <- m.do(cctx, "t", func(*shard) error { return nil })
	}()
	cancel()
	if err := <-errc; !errors.Is(err, context.Canceled) {
		t.Fatalf("cancelled submission: err = %v, want context.Canceled", err)
	}
	close(release)
	wg.Wait()
}

// TestSequencedTickSemantics pins the exactly-once contract at the shard
// boundary: in-order seqs apply, already-applied seqs ack as duplicates
// without mutating the engine, and gaps are refused.
func TestSequencedTickSemantics(t *testing.T) {
	ctx := context.Background()
	walMgr := wal.NewManager(t.TempDir(), wal.Options{})
	defer walMgr.Close()
	m := New(Options{Shards: 2, WAL: walMgr})
	defer m.Close()
	if err := m.Create(ctx, "t", testConfig(), testStreams(), nil); err != nil {
		t.Fatal(err)
	}

	var rsp tickRow
	for seq := uint64(1); seq <= 5; seq++ {
		if err := tick(ctx, m, "t", seq, testRow(int(seq), 4), &rsp); err != nil {
			t.Fatalf("seq %d: %v", seq, err)
		}
		if rsp.Seq != seq || rsp.Duplicate {
			t.Fatalf("seq %d: rsp %+v", seq, rsp)
		}
		if err := rsp.Durable.Wait(); err != nil {
			t.Fatalf("seq %d durability: %v", seq, err)
		}
	}

	// Replaying an old seq acks idempotently and leaves the engine alone.
	if err := tick(ctx, m, "t", 3, testRow(3, 4), &rsp); err != nil {
		t.Fatal(err)
	}
	if !rsp.Duplicate || rsp.Seq != 3 {
		t.Fatalf("replayed seq 3: rsp %+v", rsp)
	}
	// The duplicate ack carries a verify handle: Wait must confirm the
	// original append is still on stable storage.
	if err := rsp.Durable.Wait(); err != nil {
		t.Fatalf("duplicate durability: %v", err)
	}
	info, err := m.Info(ctx, "t")
	if err != nil || info.Seq != 5 {
		t.Fatalf("info after duplicate: %+v, %v", info, err)
	}

	// A gap means lost rows: refuse it.
	if err := tick(ctx, m, "t", 9, testRow(9, 4), &rsp); !errors.Is(err, ErrSeqGap) {
		t.Fatalf("gap seq: err = %v, want ErrSeqGap", err)
	}
	// The WAL and the engine stayed in lockstep throughout.
	if err := tick(ctx, m, "t", 6, testRow(6, 4), &rsp); err != nil {
		t.Fatalf("seq 6 after gap refusal: %v", err)
	}
}

// TestAttachCheckpointNewerThanLog: restoring from a checkpoint newer than
// the WAL tail (the signature of a kill -9 between a checkpoint rename and
// the covering fsync) fast-forwards the log. The raise must not leave a
// sequence gap inside the old segment — a later reopen would read it as a
// torn tail and truncate every record appended after the restore.
func TestAttachCheckpointNewerThanLog(t *testing.T) {
	ctx := context.Background()
	walDir := t.TempDir()

	// Session 1: seqs 1..3 reach the log; the checkpoint that survives the
	// crash was taken at seq 5, ahead of the log tail.
	walMgr := wal.NewManager(walDir, wal.Options{})
	m := New(Options{Shards: 1, WAL: walMgr})
	if err := m.Create(ctx, "t", testConfig(), testStreams(), nil); err != nil {
		t.Fatal(err)
	}
	var rsp tickRow
	for seq := uint64(1); seq <= 3; seq++ {
		if err := tick(ctx, m, "t", seq, testRow(int(seq), 4), &rsp); err != nil {
			t.Fatalf("seq %d: %v", seq, err)
		}
		if err := rsp.Durable.Wait(); err != nil {
			t.Fatal(err)
		}
	}
	m.Close()
	if err := walMgr.Close(); err != nil {
		t.Fatal(err)
	}

	// The restored engine ran ahead of the log: seq 5.
	eng, err := core.NewEngine(testConfig(), testStreams(), nil)
	if err != nil {
		t.Fatal(err)
	}
	for seq := 1; seq <= 5; seq++ {
		if _, _, err := eng.Tick(testRow(seq, 4)); err != nil {
			t.Fatal(err)
		}
	}

	walMgr2 := wal.NewManager(walDir, wal.Options{})
	m2 := New(Options{Shards: 1, WAL: walMgr2})
	if err := m2.Attach(ctx, "t", eng); err != nil {
		t.Fatal(err)
	}
	for seq := uint64(6); seq <= 8; seq++ {
		if err := tick(ctx, m2, "t", seq, testRow(int(seq), 4), &rsp); err != nil {
			t.Fatalf("seq %d after attach: %v", seq, err)
		}
		if err := rsp.Durable.Wait(); err != nil {
			t.Fatalf("seq %d durability: %v", seq, err)
		}
	}
	m2.Close()
	if err := walMgr2.Close(); err != nil {
		t.Fatal(err)
	}

	// Full reopen + replay from the checkpoint boundary: every acked
	// post-restore row must still be there.
	walMgr3 := wal.NewManager(walDir, wal.Options{})
	defer walMgr3.Close()
	var seqs []uint64
	last, err := walMgr3.ReplayTenantTail("t", 6, func(seq uint64, values []float64) error {
		seqs = append(seqs, seq)
		return nil
	})
	if err != nil || last != 8 || len(seqs) != 3 || seqs[0] != 6 {
		t.Fatalf("replay after attach+reopen: last=%d seqs=%v err=%v", last, seqs, err)
	}
	l, err := walMgr3.Open("t")
	if err != nil {
		t.Fatal(err)
	}
	if got := l.NextSeq(); got != 9 {
		t.Fatalf("reopened NextSeq = %d, want 9", got)
	}
}

// TestTickRejectsInvalidRowBeforeWAL: a row the engine would refuse must
// not reach the log (the two sequence spaces may never diverge).
func TestTickRejectsInvalidRowBeforeWAL(t *testing.T) {
	ctx := context.Background()
	walDir := t.TempDir()
	walMgr := wal.NewManager(walDir, wal.Options{})
	defer walMgr.Close()
	m := New(Options{Shards: 1, WAL: walMgr})
	defer m.Close()
	if err := m.Create(ctx, "t", testConfig(), testStreams(), nil); err != nil {
		t.Fatal(err)
	}
	var rsp tickRow
	bad := []float64{1, math.Inf(1), 3, 4}
	if err := tick(ctx, m, "t", 0, bad, &rsp); err == nil {
		t.Fatal("±Inf row was accepted")
	}
	if err := tick(ctx, m, "t", 0, testRow(0, 4), &rsp); err != nil {
		t.Fatal(err)
	}
	last, err := wal.Replay(filepath.Join(walDir, "t"), 1, func(seq uint64, values []float64) error {
		for _, v := range values {
			if math.IsInf(v, 0) {
				t.Fatalf("rejected row reached the WAL: %v", values)
			}
		}
		return nil
	})
	if err != nil || last != 1 {
		t.Fatalf("replay: last=%d err=%v (want exactly the one valid row)", last, err)
	}
}

// TestCreateResetsStaleWAL: re-creating a tenant id whose old log directory
// survived (e.g. its checkpoint was lost) must start a fresh log, not
// resume the dead tenant's sequence numbers.
func TestCreateResetsStaleWAL(t *testing.T) {
	ctx := context.Background()
	walDir := t.TempDir()
	stale := wal.NewManager(walDir, wal.Options{})
	l, err := stale.Open("t")
	if err != nil {
		t.Fatal(err)
	}
	for seq := uint64(1); seq <= 7; seq++ {
		if _, err := l.AppendBatch(seq, [][]float64{{1}}); err != nil {
			t.Fatal(err)
		}
	}
	stale.Close()

	walMgr := wal.NewManager(walDir, wal.Options{})
	defer walMgr.Close()
	m := New(Options{Shards: 1, WAL: walMgr})
	defer m.Close()
	if err := m.Create(ctx, "t", testConfig(), testStreams(), nil); err != nil {
		t.Fatal(err)
	}
	var rsp tickRow
	if err := tick(ctx, m, "t", 1, testRow(1, 4), &rsp); err != nil {
		t.Fatalf("first tick of re-created tenant: %v", err)
	}
	if rsp.Seq != 1 {
		t.Fatalf("seq %d, want 1", rsp.Seq)
	}
}

// TestTickBatchMatchesTick: a tenant driven with TickBatch must produce
// bit-identical completed rows, sequence numbers, and imputation lists to a
// tenant driven row by row — with the WAL on, so the batched append path is
// exercised too.
func TestTickBatchMatchesTick(t *testing.T) {
	ctx := context.Background()
	walMgr := wal.NewManager(t.TempDir(), wal.Options{})
	defer walMgr.Close()
	m := New(Options{Shards: 2, WAL: walMgr})
	defer m.Close()
	if err := m.Create(ctx, "batched", testConfig(), testStreams(), nil); err != nil {
		t.Fatal(err)
	}
	if err := m.Create(ctx, "rowwise", testConfig(), testStreams(), nil); err != nil {
		t.Fatal(err)
	}

	const n, batch = 120, 16
	rows := make([][]float64, n)
	for tk := range rows {
		rows[tk] = testRow(tk, 4)
		if tk > 30 && tk%4 == 0 {
			rows[tk][0] = math.NaN()
		}
		if tk > 30 && tk%37 == 0 {
			for i := range rows[tk] { // entirely missing tick
				rows[tk][i] = math.NaN()
			}
		}
	}
	var rsp tickRow
	var brsp BatchResponse
	for a := 0; a < n; a += batch {
		b := a + batch
		if b > n {
			b = n
		}
		if err := m.TickBatch(ctx, "batched", uint64(a+1), rows[a:b], &brsp); err != nil {
			t.Fatalf("batch %d:%d: %v", a, b, err)
		}
		if err := brsp.Durable.Wait(); err != nil {
			t.Fatalf("batch %d:%d durability: %v", a, b, err)
		}
		if len(brsp.Rows) != b-a {
			t.Fatalf("batch %d:%d: %d results, want %d", a, b, len(brsp.Rows), b-a)
		}
		for r, got := range brsp.Rows {
			tk := a + r
			if err := tick(ctx, m, "rowwise", uint64(tk+1), rows[tk], &rsp); err != nil {
				t.Fatalf("rowwise tick %d: %v", tk, err)
			}
			if got.Duplicate || got.Seq != rsp.Seq || got.Tick != rsp.Tick {
				t.Fatalf("tick %d: batch rsp {seq %d tick %d dup %v}, rowwise {seq %d tick %d}",
					tk, got.Seq, got.Tick, got.Duplicate, rsp.Seq, rsp.Tick)
			}
			if len(got.Imputed) != len(rsp.Imputed) {
				t.Fatalf("tick %d: imputed %v vs %v", tk, got.Imputed, rsp.Imputed)
			}
			for i := range rsp.Imputed {
				if got.Imputed[i] != rsp.Imputed[i] {
					t.Fatalf("tick %d: imputed %v vs %v", tk, got.Imputed, rsp.Imputed)
				}
			}
			if len(got.Values) != len(got.Imputed) || len(rsp.Values) != len(rsp.Imputed) {
				t.Fatalf("tick %d: batch %d and rowwise %d values for imputed cells %v",
					tk, len(got.Values), len(rsp.Values), rsp.Imputed)
			}
			for x := range rsp.Values {
				if math.Float64bits(got.Values[x]) != math.Float64bits(rsp.Values[x]) {
					t.Fatalf("tick %d stream %d: batch %v, rowwise %v", tk, rsp.Imputed[x], got.Values[x], rsp.Values[x])
				}
			}
		}
	}
	bi, err := m.Info(ctx, "batched")
	if err != nil {
		t.Fatal(err)
	}
	ri, err := m.Info(ctx, "rowwise")
	if err != nil {
		t.Fatal(err)
	}
	if bi.Seq != ri.Seq || bi.Ticks != ri.Ticks {
		t.Fatalf("batched info %+v, rowwise %+v", bi, ri)
	}
}

// TestTickBatchSequencedSemantics pins the exactly-once contract for
// batches: a fully-replayed batch acks as duplicates, a batch straddling the
// engine's sequence number applies only the unseen suffix, and a batch
// skipping ahead is refused whole.
func TestTickBatchSequencedSemantics(t *testing.T) {
	ctx := context.Background()
	walMgr := wal.NewManager(t.TempDir(), wal.Options{})
	defer walMgr.Close()
	m := New(Options{Shards: 1, WAL: walMgr})
	defer m.Close()
	if err := m.Create(ctx, "t", testConfig(), testStreams(), nil); err != nil {
		t.Fatal(err)
	}
	rows := func(from, n int) [][]float64 {
		out := make([][]float64, n)
		for i := range out {
			out[i] = testRow(from+i, 4)
		}
		return out
	}
	var rsp BatchResponse
	if err := m.TickBatch(ctx, "t", 1, rows(1, 6), &rsp); err != nil {
		t.Fatal(err)
	}
	if err := rsp.Durable.Wait(); err != nil {
		t.Fatal(err)
	}

	// Full replay: every row acked as a duplicate, durability re-verified.
	if err := m.TickBatch(ctx, "t", 1, rows(1, 6), &rsp); err != nil {
		t.Fatal(err)
	}
	for r, got := range rsp.Rows {
		if !got.Duplicate || got.Seq != uint64(r+1) {
			t.Fatalf("row %d of replayed batch: %+v", r, got)
		}
	}
	if err := rsp.Durable.Wait(); err != nil {
		t.Fatalf("duplicate batch durability: %v", err)
	}

	// Straddling batch (seqs 4..9 against engine seq 6): 4..6 duplicate,
	// 7..9 applied.
	if err := m.TickBatch(ctx, "t", 4, rows(4, 6), &rsp); err != nil {
		t.Fatal(err)
	}
	for r, got := range rsp.Rows {
		seq := uint64(4 + r)
		if got.Seq != seq || got.Duplicate != (seq <= 6) {
			t.Fatalf("straddling row %d: %+v", r, got)
		}
		if len(got.Values) != len(got.Imputed) {
			t.Fatalf("straddling row %d: values do not match imputed cells: %+v", r, got)
		}
	}
	if err := rsp.Durable.Wait(); err != nil {
		t.Fatal(err)
	}
	info, err := m.Info(ctx, "t")
	if err != nil || info.Seq != 9 {
		t.Fatalf("info after straddling batch: %+v, %v", info, err)
	}

	// A gap refuses the whole batch and applies nothing.
	if err := m.TickBatch(ctx, "t", 11, rows(11, 3), &rsp); !errors.Is(err, ErrSeqGap) {
		t.Fatalf("gap batch: err = %v, want ErrSeqGap", err)
	}
	if info, _ := m.Info(ctx, "t"); info.Seq != 9 {
		t.Fatalf("gap batch advanced seq to %d", info.Seq)
	}

	// A straddling batch that leaves one live row (9 duplicate, 10 applied)
	// hands that row to the scalar engine tick, behind the duplicate ack.
	if err := m.TickBatch(ctx, "t", 9, rows(9, 2), &rsp); err != nil {
		t.Fatal(err)
	}
	if got := rsp.Rows[0]; !got.Duplicate || got.Seq != 9 {
		t.Fatalf("straddling duplicate row: %+v", got)
	}
	if got := rsp.Rows[1]; got.Duplicate || got.Seq != 10 || len(got.Values) != len(got.Imputed) {
		t.Fatalf("lone live row after a duplicate: %+v", got)
	}
	if err := rsp.Durable.Wait(); err != nil {
		t.Fatal(err)
	}
}

// TestTickBatchRejectsInvalidRowBeforeWAL: one bad row refuses the whole
// batch — nothing is logged, nothing applied, and the error names the row.
func TestTickBatchRejectsInvalidRowBeforeWAL(t *testing.T) {
	ctx := context.Background()
	walDir := t.TempDir()
	walMgr := wal.NewManager(walDir, wal.Options{})
	defer walMgr.Close()
	m := New(Options{Shards: 1, WAL: walMgr})
	defer m.Close()
	if err := m.Create(ctx, "t", testConfig(), testStreams(), nil); err != nil {
		t.Fatal(err)
	}
	batch := [][]float64{testRow(0, 4), testRow(1, 4), {1, math.Inf(1), 3, 4}, testRow(3, 4)}
	var rsp BatchResponse
	err := m.TickBatch(ctx, "t", 1, batch, &rsp)
	if err == nil || !strings.Contains(err.Error(), "batch row 2") {
		t.Fatalf("bad batch: err = %v, want one naming row 2", err)
	}
	if info, _ := m.Info(ctx, "t"); info.Seq != 0 {
		t.Fatalf("rejected batch advanced seq to %d", info.Seq)
	}
	if err := m.TickBatch(ctx, "t", 1, batch[:2], &rsp); err != nil {
		t.Fatal(err)
	}
	last, err := wal.Replay(filepath.Join(walDir, "t"), 1, func(seq uint64, values []float64) error {
		for _, v := range values {
			if math.IsInf(v, 0) {
				t.Fatalf("rejected batch reached the WAL: %v", values)
			}
		}
		return nil
	})
	if err != nil || last != 2 {
		t.Fatalf("replay: last=%d err=%v (want exactly the valid rows)", last, err)
	}
}

// TestTickBatchWALReplayAfterCrash is the kill -9 story for batched ingest:
// rows acked through batched appends must replay from the log into a state
// bit-identical to a never-crashed engine fed the same rows one at a time.
func TestTickBatchWALReplayAfterCrash(t *testing.T) {
	ctx := context.Background()
	walDir := t.TempDir()
	walMgr := wal.NewManager(walDir, wal.Options{})
	m := New(Options{Shards: 1, WAL: walMgr})
	if err := m.Create(ctx, "t", testConfig(), testStreams(), nil); err != nil {
		t.Fatal(err)
	}
	const n, batch = 90, 13
	rows := make([][]float64, n)
	for tk := range rows {
		rows[tk] = testRow(tk, 4)
		if tk > 30 && tk%5 == 0 {
			rows[tk][1] = math.NaN()
		}
	}
	var brsp BatchResponse
	for a := 0; a < n; a += batch {
		b := a + batch
		if b > n {
			b = n
		}
		if err := m.TickBatch(ctx, "t", uint64(a+1), rows[a:b], &brsp); err != nil {
			t.Fatal(err)
		}
		if err := brsp.Durable.Wait(); err != nil {
			t.Fatal(err)
		}
	}
	// kill -9: the manager and WAL handles just vanish (no checkpoint, no
	// clean close of the engines).
	m.Close()
	walMgr.Close()

	// Recovery: fresh engine, replay the log row by row (exactly what the
	// server's restore path does).
	recovered, err := core.NewEngine(testConfig(), testStreams(), nil)
	if err != nil {
		t.Fatal(err)
	}
	walMgr2 := wal.NewManager(walDir, wal.Options{})
	defer walMgr2.Close()
	last, err := walMgr2.ReplayTenantTail("t", 1, func(seq uint64, values []float64) error {
		if seq != recovered.Seq()+1 {
			t.Fatalf("replay seq %d, engine expects %d", seq, recovered.Seq()+1)
		}
		_, _, err := recovered.Tick(values)
		return err
	})
	if err != nil || last != n {
		t.Fatalf("replay: last=%d err=%v, want %d", last, err, n)
	}

	// Reference: the same rows, never crashed, fed one at a time.
	direct, err := core.NewEngine(testConfig(), testStreams(), nil)
	if err != nil {
		t.Fatal(err)
	}
	for tk := range rows {
		if _, _, err := direct.Tick(rows[tk]); err != nil {
			t.Fatal(err)
		}
	}
	if recovered.Stats != direct.Stats {
		t.Fatalf("recovered stats %+v, direct %+v", recovered.Stats, direct.Stats)
	}
	// Continued ingest stays bit-identical.
	for tk := n; tk < n+30; tk++ {
		row := testRow(tk, 4)
		if tk%3 == 0 {
			row[2] = math.NaN()
		}
		want, _, err := direct.Tick(append([]float64(nil), row...))
		if err != nil {
			t.Fatal(err)
		}
		got, _, err := recovered.Tick(row)
		if err != nil {
			t.Fatal(err)
		}
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("post-replay tick %d stream %d: %v != %v", tk, i, got[i], want[i])
			}
		}
	}
}
