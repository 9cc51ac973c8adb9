package shard

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"tkcm/internal/core"
	"tkcm/internal/wal"
)

// restoreSnapshot pulls the tenant's engine image out of the manager and
// rebuilds it, so tests can inspect window contents without reaching into
// shard internals.
func restoreSnapshot(t *testing.T, m *Manager, id string) *core.Engine {
	t.Helper()
	var buf bytes.Buffer
	if _, err := m.Snapshot(context.Background(), id, &buf); err != nil {
		t.Fatalf("snapshot of %q: %v", id, err)
	}
	eng, err := core.RestoreEngine(&buf)
	if err != nil {
		t.Fatalf("restoring snapshot of %q: %v", id, err)
	}
	return eng
}

// requireWindowsEqual compares every retained tick of every stream exactly:
// a migrated engine is the engine that left the source, and snapshot/restore
// preserves float bits, so there is no excuse for even one ULP of drift.
func requireWindowsEqual(t *testing.T, got, want *core.Engine, width int) {
	t.Helper()
	if got.Seq() != want.Seq() {
		t.Fatalf("seq %d, want %d", got.Seq(), want.Seq())
	}
	for i := 0; i < width; i++ {
		g := got.Window().Snapshot(i)
		w := want.Window().Snapshot(i)
		if len(g) != len(w) {
			t.Fatalf("stream %d: %d retained ticks, want %d", i, len(g), len(w))
		}
		for j := range w {
			if g[j] != w[j] && !(math.IsNaN(g[j]) && math.IsNaN(w[j])) {
				t.Fatalf("stream %d tick %d: %v, want %v", i, j, g[j], w[j])
			}
		}
	}
}

// hostedEngine reads, on the shard goroutine, which engine the tenant's
// shard hosts and which shard that is.
func hostedEngine(t *testing.T, m *Manager, id string) (*core.Engine, int) {
	t.Helper()
	var eng *core.Engine
	var on int
	if err := m.do(context.Background(), id, func(sh *shard) error {
		eng, on = sh.tenants[id], sh.id
		return nil
	}); err != nil {
		t.Fatalf("reading the engine of %q: %v", id, err)
	}
	return eng, on
}

// serverFeedRow is tick n of the server tests' stream (e2eRow there): four
// phase-shifted periodic streams, stream 0 missing every 4th row and
// stream 2 every 6th after row 10. Its near-tied anchors make an engine
// rebuilt from a snapshot impute differently, in the last ulps, from one
// that kept its profiler state.
func serverFeedRow(n int) []float64 {
	row := make([]float64, 4)
	for i := range row {
		ph := 2*math.Pi*float64(n)/16 + 1.1*float64(i) + 0.7
		row[i] = 10 + 3*math.Sin(ph) + math.Sin(2*ph)
	}
	if n > 10 && n%4 == 0 {
		row[0] = math.NaN()
	}
	if n > 10 && n%6 == 0 {
		row[2] = math.NaN()
	}
	return row
}

// TestMigrationImputesLikeNeverMigrated pins the migration half of
// "migrated ≡ uninterrupted" without relying on a race: for every migration
// point after rows 1..260, a tenant migrated once must impute rows 1..300
// bit for bit like an engine that never moved, and the destination must
// host the very engine that left the source.
func TestMigrationImputesLikeNeverMigrated(t *testing.T) {
	ctx := context.Background()
	const points, rows = 260, 300
	streams := []string{"s", "r1", "r2", "r3"}
	control, err := core.NewEngine(testConfig(), streams, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer control.Close()
	want := make([][]float64, rows+1)
	for n := 1; n <= rows; n++ {
		out, _, err := control.Tick(serverFeedRow(n))
		if err != nil {
			t.Fatal(err)
		}
		want[n] = append([]float64(nil), out...)
	}

	m := New(Options{Shards: 2})
	defer m.Close()
	var rsp tickRow
	for p := 1; p <= points; p++ {
		id := fmt.Sprintf("point-%d", p)
		if err := m.Create(ctx, id, testConfig(), streams, nil); err != nil {
			t.Fatal(err)
		}
		for n := 1; n <= rows; n++ {
			if err := tick(ctx, m, id, uint64(n), serverFeedRow(n), &rsp); err != nil {
				t.Fatalf("migrated after row %d: row %d: %v", p, n, err)
			}
			if err := imputedMismatch(rsp.RowResult, want[n]); err != nil {
				t.Errorf("migrated after row %d: seq %d: %v", p, rsp.Seq, err)
				break
			}
			if n != p {
				continue
			}
			before, src := hostedEngine(t, m, id)
			if _, err := m.Migrate(ctx, id, 1-src); err != nil {
				t.Fatalf("migrating after row %d: %v", p, err)
			}
			if after, on := hostedEngine(t, m, id); after != before || on != 1-src {
				t.Fatalf("migrated after row %d: shard %d hosts engine %p, shard %d sent %p", p, on, after, src, before)
			}
		}
		if err := m.Delete(ctx, id); err != nil {
			t.Fatal(err)
		}
	}
}

// breakTableDir replaces the routing table's directory with a regular
// file, so Table.save's MkdirAll fails — also for root, whom a chmod would
// not stop.
func breakTableDir(t *testing.T, dir string) {
	t.Helper()
	if err := os.RemoveAll(dir); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(dir, nil, 0o644); err != nil {
		t.Fatal(err)
	}
}

// TestMigrateRollsBackWhenRouteCannotPersist drives the rollback after the
// destination installed the engine: the route save fails, so the
// destination gives the engine back and the source re-installs that same
// engine, at the same seq, imputing as if nothing had happened.
func TestMigrateRollsBackWhenRouteCannotPersist(t *testing.T) {
	ctx := context.Background()
	dir := filepath.Join(t.TempDir(), "routing")
	tb, err := OpenTable(filepath.Join(dir, "routing.tkcmrt"), 2)
	if err != nil {
		t.Fatal(err)
	}
	m := New(Options{Routing: tb})
	defer m.Close()
	if err := m.Create(ctx, "rb", testConfig(), testStreams(), nil); err != nil {
		t.Fatal(err)
	}
	control, err := core.NewEngine(testConfig(), testStreams(), nil)
	if err != nil {
		t.Fatal(err)
	}
	defer control.Close()
	feed := func(from, to int) {
		t.Helper()
		var rsp tickRow
		for n := from; n <= to; n++ {
			row := testRow(n, 4)
			if n > 10 && n%3 == 0 {
				row[n%4] = math.NaN()
			}
			want, _, err := control.Tick(append([]float64(nil), row...))
			if err != nil {
				t.Fatal(err)
			}
			if err := tick(ctx, m, "rb", uint64(n), row, &rsp); err != nil {
				t.Fatalf("row %d: %v", n, err)
			}
			requireImputed(t, n, rsp.RowResult, want)
		}
	}
	feed(1, 40)

	breakTableDir(t, dir)
	before, src := hostedEngine(t, m, "rb")
	if _, err := m.Migrate(ctx, "rb", 1-src); err == nil || !strings.Contains(err.Error(), "persisting route") {
		t.Fatalf("migrate with an unwritable table: %v, want a persisting route error", err)
	}
	if m.Migrations() != 0 {
		t.Fatalf("a rolled-back migration counted: %d", m.Migrations())
	}
	info, err := m.Info(ctx, "rb")
	if err != nil {
		t.Fatal(err)
	}
	if info.Shard != src || info.Seq != 40 || !info.Resident {
		t.Fatalf("after rollback %+v, want resident on shard %d at seq 40", info, src)
	}
	if after, on := hostedEngine(t, m, "rb"); after != before || on != src {
		t.Fatalf("after rollback shard %d hosts engine %p, want shard %d's %p", on, after, src, before)
	}
	for _, st := range m.Stats() {
		want := int64(0)
		if st.Shard == src {
			want = 1
		}
		if st.Tenants != want || st.Resident != want {
			t.Fatalf("shard %d after rollback: %d tenants, %d resident, want %d", st.Shard, st.Tenants, st.Resident, want)
		}
	}
	feed(41, 120)
}

// TestMigrateRollbackAfterEvictionPressure: while the route save is in
// flight, the tenant sits on the destination, where another tenant's
// hydration puts the shard over its residency budget. The in-transit tenant
// must not be the one parked, or the rollback would find no engine to hand
// back.
func TestMigrateRollbackAfterEvictionPressure(t *testing.T) {
	ctx := context.Background()
	dir := filepath.Join(t.TempDir(), "routing")
	tb, err := OpenTable(filepath.Join(dir, "routing.tkcmrt"), 2)
	if err != nil {
		t.Fatal(err)
	}
	ckDir := t.TempDir()
	m := New(Options{
		Routing:         tb,
		WAL:             wal.NewManager(t.TempDir(), wal.Options{SyncInterval: time.Millisecond}),
		Hydrate:         fileHydrator(ckDir),
		ResidentEngines: 2, // one per shard
	})
	defer m.Close()
	createWithCheckpoint(t, m, ckDir, "mover")
	src := m.ShardOf("mover")
	other := ""
	for i := 0; other == ""; i++ {
		if id := fmt.Sprintf("other-%d", i); m.ShardOf(id) == 1-src {
			other = id
		}
	}
	createWithCheckpoint(t, m, ckDir, other)
	var rsp tickRow
	for n := 1; n <= 30; n++ {
		if err := tick(ctx, m, "mover", uint64(n), testRow(n, 4), &rsp); err != nil {
			t.Fatal(err)
		}
	}
	before, _ := hostedEngine(t, m, "mover")

	// Hold the table's save lock so the migration stops at the route save,
	// with the engine installed on the destination.
	breakTableDir(t, dir)
	tb.saveMu.Lock()
	migrated := make(chan error, 1)
	go func() {
		_, err := m.Migrate(ctx, "mover", 1-src)
		migrated <- err
	}()
	for installed := false; !installed; {
		time.Sleep(time.Millisecond)
		if err := m.submit(ctx, m.shards[1-src], func(sh *shard) error {
			_, installed = sh.tenants["mover"]
			return nil
		}); err != nil {
			t.Fatal(err)
		}
	}
	// The install parked the other tenant; ticking it hydrates it back and
	// puts the destination over budget with the mover as its coldest tenant.
	if err := tick(ctx, m, other, 1, testRow(1, 4), &rsp); err != nil {
		t.Fatal(err)
	}
	tb.saveMu.Unlock()
	if err := <-migrated; err == nil || !strings.Contains(err.Error(), "persisting route") {
		t.Fatalf("migrate with an unwritable table: %v, want a persisting route error", err)
	}
	if after, on := hostedEngine(t, m, "mover"); after != before || on != src {
		t.Fatalf("after rollback shard %d hosts engine %p, want shard %d's %p", on, after, src, before)
	}
	if err := tick(ctx, m, "mover", 31, testRow(31, 4), &rsp); err != nil || rsp.Seq != 31 {
		t.Fatalf("tick after rollback: seq %d, %v", rsp.Seq, err)
	}
}

// TestMigrateFullHandoffBuffer fills the handoff buffer: with the source
// shard blocked, handoffLen ticks park and the rest wait for the flip. All
// of them must land, on the destination, in the one engine.
func TestMigrateFullHandoffBuffer(t *testing.T) {
	ctx := context.Background()
	m := New(Options{Shards: 2})
	defer m.Close()
	if err := m.Create(ctx, "hb", testConfig(), testStreams(), nil); err != nil {
		t.Fatal(err)
	}
	src := m.ShardOf("hb")
	entered, release := make(chan struct{}), make(chan struct{})
	blocked := make(chan error, 1)
	go func() {
		blocked <- m.submit(ctx, m.shards[src], func(*shard) error { close(entered); <-release; return nil })
	}()
	<-entered
	migrated := make(chan error, 1)
	go func() {
		_, err := m.Migrate(ctx, "hb", 1-src)
		migrated <- err
	}()
	var mig *migration
	for mig == nil {
		time.Sleep(time.Millisecond)
		mig = m.migrating.Load()
	}

	const ticks = handoffLen + 8
	var wg sync.WaitGroup
	errc := make(chan error, ticks)
	for i := 0; i < ticks; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			var rsp tickRow
			if err := tick(ctx, m, "hb", 0, testRow(i, 4), &rsp); err != nil {
				errc <- err
			}
		}()
	}
	for parked := 0; parked < handoffLen; {
		time.Sleep(time.Millisecond)
		mig.mu.Lock()
		parked = len(mig.parked)
		mig.mu.Unlock()
	}
	close(release)
	if err := <-blocked; err != nil {
		t.Fatal(err)
	}
	if err := <-migrated; err != nil {
		t.Fatalf("migrate: %v", err)
	}
	wg.Wait()
	close(errc)
	for err := range errc {
		t.Fatalf("tick during migration: %v", err)
	}
	info, err := m.Info(ctx, "hb")
	if err != nil {
		t.Fatal(err)
	}
	if info.Shard != 1-src || info.Seq != ticks {
		t.Fatalf("after migration %+v, want shard %d at seq %d", info, 1-src, ticks)
	}
}

func TestMigrateMovesTenantLive(t *testing.T) {
	ctx := context.Background()
	m := New(Options{Shards: 3, QueueLen: 8})
	defer m.Close()
	if err := m.Create(ctx, "mt", testConfig(), testStreams(), nil); err != nil {
		t.Fatal(err)
	}
	control, err := core.NewEngine(testConfig(), testStreams(), nil)
	if err != nil {
		t.Fatal(err)
	}
	defer control.Close()

	feed := func(from, to int) {
		var rsp tickRow
		for tk := from; tk < to; tk++ {
			row := testRow(tk, 4)
			if tk > 10 && tk%4 == 0 {
				row[2] = math.NaN()
			}
			if err := tick(ctx, m, "mt", 0, row, &rsp); err != nil {
				t.Fatalf("tick %d: %v", tk, err)
			}
			row = testRow(tk, 4)
			if tk > 10 && tk%4 == 0 {
				row[2] = math.NaN()
			}
			if _, _, err := control.Tick(row); err != nil {
				t.Fatalf("control tick %d: %v", tk, err)
			}
		}
	}

	feed(0, 40)
	src, err := m.Info(ctx, "mt")
	if err != nil {
		t.Fatal(err)
	}
	dst := (src.Shard + 1) % 3
	gotSrc, err := m.Migrate(ctx, "mt", dst)
	if err != nil {
		t.Fatalf("migrate: %v", err)
	}
	if gotSrc != src.Shard {
		t.Fatalf("migrate reported source %d, want %d", gotSrc, src.Shard)
	}
	info, err := m.Info(ctx, "mt")
	if err != nil {
		t.Fatal(err)
	}
	if info.Shard != dst {
		t.Fatalf("tenant hosted on shard %d after migration to %d", info.Shard, dst)
	}
	if info.Seq != 40 {
		t.Fatalf("seq %d after migration, want 40", info.Seq)
	}
	// The migrations counter and routing table must both reflect the move.
	if m.Migrations() != 1 {
		t.Fatalf("migrations counter %d, want 1", m.Migrations())
	}
	if got := m.routing.ShardFor("mt"); got != dst {
		t.Fatalf("routing table says shard %d, want %d", got, dst)
	}

	// Ticks keep flowing on the destination and the tenant behaves exactly
	// like an engine that never moved.
	feed(40, 80)
	requireWindowsEqual(t, restoreSnapshot(t, m, "mt"), control, 4)

	// Migrating onto the current shard is a verified no-op.
	if _, err := m.Migrate(ctx, "mt", dst); err != nil {
		t.Fatalf("same-shard migrate: %v", err)
	}
	if m.Migrations() != 1 {
		t.Fatalf("no-op migration bumped the counter to %d", m.Migrations())
	}
}

func TestMigrateErrors(t *testing.T) {
	ctx := context.Background()
	m := New(Options{Shards: 2})
	defer m.Close()
	if _, err := m.Migrate(ctx, "ghost", 5); err == nil {
		t.Fatal("out-of-range destination accepted")
	}
	if _, err := m.Migrate(ctx, "ghost", 1); !errors.Is(err, ErrNoTenant) {
		t.Fatalf("migrating unknown tenant: %v", err)
	}
	// A failed migration leaves no residue: the next operation resolves
	// normally (nothing parked, no migration marker).
	if err := m.Create(ctx, "ghost", testConfig(), testStreams(), nil); err != nil {
		t.Fatal(err)
	}
	var rsp tickRow
	if err := tick(ctx, m, "ghost", 0, testRow(0, 4), &rsp); err != nil {
		t.Fatal(err)
	}
}

// TestMigrateUnderSequencedLoad is the manager-level liveness + exactly-once
// property: a sequenced writer streams without pause while the tenant
// ping-pongs between shards. Every row must be acked exactly once, in
// order, and the final engine must be indistinguishable from one that never
// moved.
func TestMigrateUnderSequencedLoad(t *testing.T) {
	ctx := context.Background()
	m := New(Options{Shards: 4, QueueLen: 8})
	defer m.Close()
	if err := m.Create(ctx, "hot", testConfig(), testStreams(), nil); err != nil {
		t.Fatal(err)
	}

	const total = 600
	rowFor := func(n int) []float64 {
		row := testRow(n, 4)
		if n > 20 && n%3 == 0 {
			row[1] = math.NaN()
		}
		return row
	}

	var acked atomic.Uint64
	tickErr := make(chan error, 1)
	done := make(chan struct{})
	go func() {
		defer close(done)
		var rsp tickRow
		for n := 1; n <= total; n++ {
			if err := tick(ctx, m, "hot", uint64(n), rowFor(n), &rsp); err != nil {
				tickErr <- err
				return
			}
			if rsp.Seq != uint64(n) || rsp.Duplicate {
				tickErr <- errors.New("ack out of order or duplicated")
				return
			}
			acked.Store(uint64(n))
		}
		tickErr <- nil
	}()

	// Ping-pong the tenant across all four shards until the writer is done,
	// pacing on writer progress: back-to-back migrations with no pause form
	// a channel wake ping-pong with the shard goroutines that can starve
	// every other goroutine on a GOMAXPROCS=1 box (runnext scheduling) —
	// real migrations are endpoint- or rebalancer-paced, so the test paces
	// too, on ack progress rather than wall time to stay deterministic.
	migrations := 0
	for {
		select {
		case <-done:
		default:
			if _, err := m.Migrate(ctx, "hot", migrations%4); err != nil {
				t.Fatalf("migration %d: %v", migrations, err)
			}
			migrations++
			before := acked.Load()
			for acked.Load() == before {
				select {
				case <-done:
				case <-time.After(100 * time.Microsecond):
					continue
				}
				break
			}
			continue
		}
		break
	}
	if err := <-tickErr; err != nil {
		t.Fatal(err)
	}
	if migrations == 0 {
		t.Fatal("no migrations ran during the stream")
	}

	control, err := core.NewEngine(testConfig(), testStreams(), nil)
	if err != nil {
		t.Fatal(err)
	}
	defer control.Close()
	for n := 1; n <= total; n++ {
		if _, _, err := control.Tick(rowFor(n)); err != nil {
			t.Fatal(err)
		}
	}
	requireWindowsEqual(t, restoreSnapshot(t, m, "hot"), control, 4)
}

// TestMigrateWithWALKeepsDurabilityAndDedup drives the durability contract
// across a flip: appends stay contiguous in the tenant's log, rows
// replayed after the migration are acked as duplicates whose durability
// handle verifies, and a fresh manager restores the full history.
func TestMigrateWithWALKeepsDurabilityAndDedup(t *testing.T) {
	ctx := context.Background()
	dir := t.TempDir()
	wm := wal.NewManager(filepath.Join(dir, "wal"), wal.Options{SyncInterval: time.Millisecond})
	defer wm.Close()
	m := New(Options{Shards: 2, WAL: wm})
	if err := m.Create(ctx, "w1", testConfig(), testStreams(), nil); err != nil {
		t.Fatal(err)
	}

	var rsp tickRow
	for n := 1; n <= 30; n++ {
		if err := tick(ctx, m, "w1", uint64(n), testRow(n, 4), &rsp); err != nil {
			t.Fatal(err)
		}
		if err := rsp.Durable.Wait(); err != nil {
			t.Fatal(err)
		}
	}
	src, _ := m.Info(ctx, "w1")
	if _, err := m.Migrate(ctx, "w1", 1-src.Shard); err != nil {
		t.Fatal(err)
	}

	// A client replaying across the flip: rows 21..30 again → duplicates
	// whose durability promise still verifies; 31 onward applies normally.
	for n := 21; n <= 30; n++ {
		if err := tick(ctx, m, "w1", uint64(n), testRow(n, 4), &rsp); err != nil {
			t.Fatalf("replayed row %d: %v", n, err)
		}
		if !rsp.Duplicate {
			t.Fatalf("replayed row %d not deduplicated", n)
		}
		if err := rsp.Durable.Wait(); err != nil {
			t.Fatalf("replayed row %d durability: %v", n, err)
		}
	}
	for n := 31; n <= 60; n++ {
		if err := tick(ctx, m, "w1", uint64(n), testRow(n, 4), &rsp); err != nil {
			t.Fatalf("row %d after migration: %v", n, err)
		}
		if rsp.Duplicate || rsp.Seq != uint64(n) {
			t.Fatalf("row %d: duplicate=%v seq=%d", n, rsp.Duplicate, rsp.Seq)
		}
		if err := rsp.Durable.Wait(); err != nil {
			t.Fatal(err)
		}
	}
	// Sequence gaps are still refused after the flip.
	if err := tick(ctx, m, "w1", 99, testRow(99, 4), &rsp); !errors.Is(err, ErrSeqGap) {
		t.Fatalf("gap after migration: %v", err)
	}
	m.Close()

	// The log must replay the complete, contiguous history onto a fresh
	// engine — migration left no seam.
	eng, err := core.NewEngine(testConfig(), testStreams(), nil)
	if err != nil {
		t.Fatal(err)
	}
	replayed := 0
	last, err := wal.Replay(filepath.Join(dir, "wal", "w1"), 1, func(seq uint64, values []float64) error {
		replayed++
		_, _, err := eng.Tick(values)
		return err
	})
	if err != nil {
		t.Fatal(err)
	}
	if last != 60 || replayed != 60 {
		t.Fatalf("replay reached seq %d over %d records, want 60/60", last, replayed)
	}
	control, err := core.NewEngine(testConfig(), testStreams(), nil)
	if err != nil {
		t.Fatal(err)
	}
	defer control.Close()
	for n := 1; n <= 60; n++ {
		if _, _, err := control.Tick(testRow(n, 4)); err != nil {
			t.Fatal(err)
		}
	}
	requireWindowsEqual(t, eng, control, 4)
	eng.Close()
}

// TestMigratePersistedRouteSurvivesReopen pins the restart contract: a
// migration's route outlives the manager via the table file, and a new
// manager over the same table hosts the tenant on the migrated shard.
func TestMigratePersistedRouteSurvivesReopen(t *testing.T) {
	ctx := context.Background()
	path := filepath.Join(t.TempDir(), "routing.tkcmrt")
	tb, err := OpenTable(path, 3)
	if err != nil {
		t.Fatal(err)
	}
	m := New(Options{Routing: tb, QueueLen: 8})
	if err := m.Create(ctx, "pr", testConfig(), testStreams(), nil); err != nil {
		t.Fatal(err)
	}
	info, _ := m.Info(ctx, "pr")
	dst := (info.Shard + 1) % 3
	if _, err := m.Migrate(ctx, "pr", dst); err != nil {
		t.Fatal(err)
	}
	var snap bytes.Buffer
	if _, err := m.Snapshot(ctx, "pr", &snap); err != nil {
		t.Fatal(err)
	}
	m.Close()

	tb2, err := OpenTable(path, 3)
	if err != nil {
		t.Fatal(err)
	}
	m2 := New(Options{Routing: tb2, QueueLen: 8})
	defer m2.Close()
	eng, err := core.RestoreEngine(&snap)
	if err != nil {
		t.Fatal(err)
	}
	if err := m2.Attach(ctx, "pr", eng); err != nil {
		t.Fatal(err)
	}
	got, err := m2.Info(ctx, "pr")
	if err != nil {
		t.Fatal(err)
	}
	if got.Shard != dst {
		t.Fatalf("after reopen, tenant on shard %d, want migrated shard %d", got.Shard, dst)
	}
}

// TestMigrateConcurrentOpsDoNotError floods the manager with mixed
// operations (ticks, info, list, snapshot) for several tenants while one of
// them migrates repeatedly: nothing may fail, and nothing may deadlock.
func TestMigrateConcurrentOpsDoNotError(t *testing.T) {
	ctx := context.Background()
	m := New(Options{Shards: 3, QueueLen: 4})
	defer m.Close()
	for _, id := range []string{"c1", "c2", "c3"} {
		if err := m.Create(ctx, id, testConfig(), testStreams(), nil); err != nil {
			t.Fatal(err)
		}
	}
	stop := make(chan struct{})
	var wg sync.WaitGroup
	errc := make(chan error, 8)
	for _, id := range []string{"c1", "c2", "c3"} {
		wg.Add(1)
		go func(id string) {
			defer wg.Done()
			var rsp tickRow
			for n := 0; ; n++ {
				select {
				case <-stop:
					return
				default:
				}
				if err := tick(ctx, m, id, 0, testRow(n, 4), &rsp); err != nil {
					errc <- err
					return
				}
				if _, err := m.Info(ctx, id); err != nil {
					errc <- err
					return
				}
			}
		}(id)
	}
	// A listing racing the moves must never lose a tenant to the transit
	// window: mid-migration the engine is in no shard map, and Tenants
	// resolves it through the park path instead of omitting it.
	wg.Add(1)
	go func() {
		defer wg.Done()
		for {
			select {
			case <-stop:
				return
			default:
			}
			infos, err := m.Tenants(ctx)
			if err != nil {
				errc <- err
				return
			}
			if len(infos) != 3 {
				errc <- fmt.Errorf("listing during migration returned %d tenants, want 3", len(infos))
				return
			}
		}
	}()
	for i := 0; i < 12; i++ {
		if _, err := m.Migrate(ctx, "c1", i%3); err != nil {
			t.Fatalf("migration %d: %v", i, err)
		}
		// Pace the moves so the tick goroutines get scheduled between them
		// (see TestMigrateUnderSequencedLoad on runnext starvation).
		time.Sleep(time.Millisecond)
	}
	close(stop)
	wg.Wait()
	select {
	case err := <-errc:
		t.Fatalf("concurrent op failed during migrations: %v", err)
	default:
	}
}
