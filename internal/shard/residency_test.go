package shard

import (
	"bytes"
	"context"
	"errors"
	"math"
	"os"
	"path/filepath"
	"testing"
	"time"

	"tkcm/internal/core"
	"tkcm/internal/wal"
)

// fileHydrator restores a tenant engine from <dir>/<id>.ckpt — the test
// stand-in for the serving layer's checkpoint-directory hydrator, using the
// same mmap-backed restore path.
func fileHydrator(dir string) func(string) (*core.Engine, error) {
	return func(id string) (*core.Engine, error) {
		return core.RestoreEngineFile(filepath.Join(dir, id+".ckpt"))
	}
}

// writeCheckpoint snapshots tenant id into the hydrator's directory — the
// base checkpoint eviction relies on.
func writeCheckpoint(t *testing.T, m *Manager, dir, id string) {
	t.Helper()
	var img bytes.Buffer
	if _, err := m.Snapshot(context.Background(), id, &img); err != nil {
		t.Fatalf("checkpoint %s: %v", id, err)
	}
	if err := os.WriteFile(filepath.Join(dir, id+".ckpt"), img.Bytes(), 0o644); err != nil {
		t.Fatal(err)
	}
}

// residencyManager builds a single-shard manager with a WAL, a file
// hydrator, and a resident-engine cap — the standard churn fixture.
func residencyManager(t *testing.T, cap int) (*Manager, string) {
	t.Helper()
	ckDir := t.TempDir()
	m := New(Options{
		Shards:          1,
		WAL:             wal.NewManager(t.TempDir(), wal.Options{SyncInterval: time.Millisecond}),
		Hydrate:         fileHydrator(ckDir),
		ResidentEngines: cap,
	})
	return m, ckDir
}

// createWithCheckpoint creates tenant id and writes its base checkpoint —
// the invariant production maintains (a tenant is evictable from birth).
func createWithCheckpoint(t *testing.T, m *Manager, ckDir, id string) {
	t.Helper()
	if err := m.Create(context.Background(), id, testConfig(), testStreams(), nil); err != nil {
		t.Fatal(err)
	}
	writeCheckpoint(t, m, ckDir, id)
}

// TestHydrationStreamEquivalence is the residency property test: a
// sequenced stream pushed through repeated evict→hydrate cycles must produce
// ack values and a final window bit-identical to a never-evicted engine —
// including a duplicate-seq replay straddling a hydration boundary.
func TestHydrationStreamEquivalence(t *testing.T) {
	ctx := context.Background()
	m, ckDir := residencyManager(t, 1) // one resident slot: every swap is an evict+hydrate
	defer m.Close()
	createWithCheckpoint(t, m, ckDir, "prop")
	createWithCheckpoint(t, m, ckDir, "pest")

	direct, err := core.NewEngine(testConfig(), testStreams(), nil)
	if err != nil {
		t.Fatal(err)
	}
	defer direct.Close()

	var rsp, pestRsp tickRow
	const n = 160
	for seq := uint64(1); seq <= n; seq++ {
		row := testRow(int(seq), 4)
		if seq%7 == 0 {
			row[2] = math.NaN()
		}
		want, _, err := direct.Tick(append([]float64(nil), row...))
		if err != nil {
			t.Fatal(err)
		}
		// Touching the pest first forces prop out of the single resident
		// slot, so every prop tick below crosses a hydration boundary.
		if err := tick(ctx, m, "pest", 0, testRow(int(seq), 4), &pestRsp); err != nil {
			t.Fatalf("pest tick %d: %v", seq, err)
		}
		if err := tick(ctx, m, "prop", seq, row, &rsp); err != nil {
			t.Fatalf("prop tick %d: %v", seq, err)
		}
		if err := rsp.Durable.Wait(); err != nil {
			t.Fatalf("prop tick %d durability: %v", seq, err)
		}
		if rsp.Seq != seq || rsp.Duplicate {
			t.Fatalf("tick %d: seq %d duplicate=%v", seq, rsp.Seq, rsp.Duplicate)
		}
		requireImputed(t, int(seq), rsp.RowResult, want)
		if seq%31 == 0 {
			// Duplicate replay across a hydration boundary: evict prop again,
			// then re-send an already-acked sequence number. The hydrated
			// engine must ack it idempotently, with durability re-verified.
			if err := tick(ctx, m, "pest", 0, testRow(int(seq), 4), &pestRsp); err != nil {
				t.Fatal(err)
			}
			if err := tick(ctx, m, "prop", seq, row, &rsp); err != nil {
				t.Fatalf("duplicate replay of seq %d: %v", seq, err)
			}
			if !rsp.Duplicate {
				t.Fatalf("replayed seq %d not acked as duplicate", seq)
			}
			if err := rsp.Durable.Wait(); err != nil {
				t.Fatalf("duplicate seq %d durability: %v", seq, err)
			}
		}
	}

	r := m.Residency()
	if r.Hydrations < 100 {
		t.Fatalf("only %d hydrations — the churn fixture is not exercising the boundary", r.Hydrations)
	}
	if r.Evictions < r.Hydrations {
		t.Fatalf("evictions %d < hydrations %d", r.Evictions, r.Hydrations)
	}

	// The final windows must match bit for bit.
	var img bytes.Buffer
	if _, err := m.Snapshot(ctx, "prop", &img); err != nil {
		t.Fatal(err)
	}
	got, err := core.RestoreEngine(&img)
	if err != nil {
		t.Fatal(err)
	}
	defer got.Close()
	if got.Seq() != direct.Seq() || got.Stats != direct.Stats {
		t.Fatalf("final state: seq %d stats %+v, want seq %d stats %+v", got.Seq(), got.Stats, direct.Seq(), direct.Stats)
	}
	gw, dw := got.Window(), direct.Window()
	for i := 0; i < dw.Width(); i++ {
		for j := 0; j < dw.Filled(); j++ {
			if math.Float64bits(gw.At(i, j)) != math.Float64bits(dw.At(i, j)) {
				t.Fatalf("final window stream %d index %d: %v, want %v", i, j, gw.At(i, j), dw.At(i, j))
			}
		}
	}
}

// TestEvictionLRUOrder pins the eviction order: least-recently-used parks
// first, and a TickBatch counts as ONE touch — batch size must not distort
// recency.
func TestEvictionLRUOrder(t *testing.T) {
	ctx := context.Background()
	m, ckDir := residencyManager(t, 2)
	defer m.Close()
	for _, id := range []string{"a", "b", "c"} {
		createWithCheckpoint(t, m, ckDir, id)
	}
	// Creation order a,b,c with cap 2 already parked a (the coldest).
	requireResidency(t, m, ctx, map[string]bool{"a": false, "b": true, "c": true})

	// Touch b via a large batch (one touch), then hydrate a: the LRU tail is
	// now c — if each batch row counted as a touch, the order would be the
	// same, but a later single-tick on c must outrank the whole batch.
	var brsp BatchResponse
	rows := make([][]float64, 16)
	for i := range rows {
		rows[i] = testRow(i, 4)
	}
	if err := m.TickBatch(ctx, "b", 0, rows, &brsp); err != nil {
		t.Fatal(err)
	}
	var rsp tickRow
	if err := tick(ctx, m, "c", 0, testRow(0, 4), &rsp); err != nil {
		t.Fatal(err)
	}
	// Recency now c > b: hydrating a must evict b, not c.
	if err := tick(ctx, m, "a", 0, testRow(0, 4), &rsp); err != nil {
		t.Fatal(err)
	}
	requireResidency(t, m, ctx, map[string]bool{"a": true, "b": false, "c": true})

	r := m.Residency()
	if r.Resident != 2 || r.Parked != 1 {
		t.Fatalf("residency %+v, want 2 resident / 1 parked", r)
	}
}

func requireResidency(t *testing.T, m *Manager, ctx context.Context, want map[string]bool) {
	t.Helper()
	for id, resident := range want {
		info, err := m.Info(ctx, id)
		if err != nil {
			t.Fatalf("info %s: %v", id, err)
		}
		if info.Resident != resident {
			t.Fatalf("tenant %s resident=%v, want %v", id, info.Resident, resident)
		}
	}
}

// TestParkedTenantServesMetadata: Info and Tenants answer for a parked
// tenant from its footprint — sequence number, tick counts and stream names
// intact — without triggering a hydration.
func TestParkedTenantServesMetadata(t *testing.T) {
	ctx := context.Background()
	m, ckDir := residencyManager(t, 1)
	defer m.Close()
	createWithCheckpoint(t, m, ckDir, "a")
	var rsp tickRow
	for seq := uint64(1); seq <= 30; seq++ {
		if err := tick(ctx, m, "a", seq, testRow(int(seq), 4), &rsp); err != nil {
			t.Fatal(err)
		}
	}
	createWithCheckpoint(t, m, ckDir, "b") // parks a
	before := m.Residency().Hydrations

	info, err := m.Info(ctx, "a")
	if err != nil {
		t.Fatal(err)
	}
	if info.Resident || info.Seq != 30 || info.Ticks != 30 || len(info.Streams) != 4 {
		t.Fatalf("parked info %+v", info)
	}
	all, err := m.Tenants(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if len(all) != 2 {
		t.Fatalf("listed %d tenants, want 2", len(all))
	}
	for _, ti := range all {
		if ti.ID == "a" && (ti.Resident || ti.Seq != 30) {
			t.Fatalf("parked listing %+v", ti)
		}
	}
	if got := m.Residency().Hydrations; got != before {
		t.Fatalf("metadata queries hydrated (%d -> %d)", before, got)
	}
}

// TestDeleteParkedTenant: deleting a parked tenant needs no hydration — the
// footprint, route and WAL go away, and the id is immediately reusable.
func TestDeleteParkedTenant(t *testing.T) {
	ctx := context.Background()
	m, ckDir := residencyManager(t, 1)
	defer m.Close()
	createWithCheckpoint(t, m, ckDir, "a")
	createWithCheckpoint(t, m, ckDir, "b") // parks a
	before := m.Residency()

	if err := m.Delete(ctx, "a"); err != nil {
		t.Fatal(err)
	}
	if _, err := m.Info(ctx, "a"); !errors.Is(err, ErrNoTenant) {
		t.Fatalf("deleted parked tenant still answers: %v", err)
	}
	if got := m.Residency(); got.Hydrations != before.Hydrations {
		t.Fatalf("delete of a parked tenant hydrated it (%d -> %d)", before.Hydrations, got.Hydrations)
	}
	if err := m.Create(ctx, "a", testConfig(), testStreams(), nil); err != nil {
		t.Fatalf("recreate after parked delete: %v", err)
	}
	var rsp tickRow
	if err := tick(ctx, m, "a", 1, testRow(0, 4), &rsp); err != nil || rsp.Seq != 1 {
		t.Fatalf("fresh tenant after parked delete: seq %d err %v", rsp.Seq, err)
	}
}

// TestHydrationFailureFailStops: a parked tenant whose checkpoint is gone or
// corrupt latches ErrTenantFailed on first touch — every subsequent
// operation reports it, the tenant is never silently re-created, and only
// Delete clears the latch.
func TestHydrationFailureFailStops(t *testing.T) {
	ctx := context.Background()
	m, ckDir := residencyManager(t, 1)
	defer m.Close()
	createWithCheckpoint(t, m, ckDir, "a")
	var rsp tickRow
	for seq := uint64(1); seq <= 10; seq++ {
		if err := tick(ctx, m, "a", seq, testRow(int(seq), 4), &rsp); err != nil {
			t.Fatal(err)
		}
	}
	createWithCheckpoint(t, m, ckDir, "b") // parks a

	// Corrupt the parked tenant's checkpoint.
	path := filepath.Join(ckDir, "a.ckpt")
	img, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	img[len(img)/2] ^= 0x5a
	if err := os.WriteFile(path, img, 0o644); err != nil {
		t.Fatal(err)
	}

	if err := tick(ctx, m, "a", 11, testRow(11, 4), &rsp); !errors.Is(err, ErrTenantFailed) {
		t.Fatalf("tick against corrupt checkpoint: %v, want ErrTenantFailed", err)
	}
	// Latched: a later op reports the same failure without retrying restore.
	if _, err := m.Snapshot(ctx, "a", &bytes.Buffer{}); !errors.Is(err, ErrTenantFailed) {
		t.Fatalf("snapshot after latch: %v", err)
	}
	if got := m.FailedTenants(); len(got) != 1 || got[0] != "a" {
		t.Fatalf("failed tenants %v, want [a]", got)
	}
	info, err := m.Info(ctx, "a")
	if err != nil || !info.Failed {
		t.Fatalf("failed tenant info %+v err %v", info, err)
	}
	// Not silently re-created: the id still exists.
	if err := m.Create(ctx, "a", testConfig(), testStreams(), nil); !errors.Is(err, ErrTenantExists) {
		t.Fatalf("create over fail-stopped tenant: %v", err)
	}
	// Delete clears the latch; the id is reusable.
	if err := m.Delete(ctx, "a"); err != nil {
		t.Fatal(err)
	}
	if got := m.FailedTenants(); len(got) != 0 {
		t.Fatalf("failed tenants after delete: %v", got)
	}
	if err := m.Create(ctx, "a", testConfig(), testStreams(), nil); err != nil {
		t.Fatalf("recreate after fail-stop delete: %v", err)
	}
}

// TestHydrationRefusesRewoundEngine: a checkpoint that restores but cannot
// reach the parked sequence number (stale image + truncated-away WAL would
// rewind acked ticks) must fail-stop, not serve the rewound engine.
func TestHydrationRefusesRewoundEngine(t *testing.T) {
	ctx := context.Background()
	ckDir := t.TempDir()
	// No WAL: the checkpoint alone must carry the full state, so a stale one
	// is detectable purely by the sequence check.
	m := New(Options{Shards: 1, Hydrate: fileHydrator(ckDir), ResidentEngines: 1})
	defer m.Close()
	if err := m.Create(ctx, "a", testConfig(), testStreams(), nil); err != nil {
		t.Fatal(err)
	}
	var rsp tickRow
	for seq := uint64(1); seq <= 10; seq++ {
		if err := tick(ctx, m, "a", seq, testRow(int(seq), 4), &rsp); err != nil {
			t.Fatal(err)
		}
	}
	writeCheckpoint(t, m, ckDir, "a") // checkpoint at seq 10
	for seq := uint64(11); seq <= 20; seq++ {
		if err := tick(ctx, m, "a", seq, testRow(int(seq), 4), &rsp); err != nil {
			t.Fatal(err)
		}
	}
	if err := m.Create(ctx, "b", testConfig(), testStreams(), nil); err != nil {
		t.Fatal(err) // parks a at seq 20; its checkpoint only reaches 10
	}
	err := tick(ctx, m, "a", 21, testRow(21, 4), &rsp)
	if !errors.Is(err, ErrTenantFailed) {
		t.Fatalf("hydration of a rewound engine: %v, want ErrTenantFailed", err)
	}
}

// TestMigrateParkedTenant: a parked tenant migrates by hydrating inside the
// capture step — the engine that moves is the full engine, and the tenant
// lands resident on the destination with its state intact.
func TestMigrateParkedTenant(t *testing.T) {
	ctx := context.Background()
	ckDir := t.TempDir()
	m := New(Options{
		Shards:          2,
		WAL:             wal.NewManager(t.TempDir(), wal.Options{SyncInterval: time.Millisecond}),
		Hydrate:         fileHydrator(ckDir),
		ResidentEngines: 2, // 1 per shard
		Routing:         NewTable(2),
	})
	defer m.Close()
	createWithCheckpoint(t, m, ckDir, "mover")
	var rsp tickRow
	for seq := uint64(1); seq <= 25; seq++ {
		if err := tick(ctx, m, "mover", seq, testRow(int(seq), 4), &rsp); err != nil {
			t.Fatal(err)
		}
	}
	src := m.ShardOf("mover")
	// Park it: a second tenant on the same shard takes the only slot.
	for _, id := range []string{"filler0", "filler1", "filler2"} {
		createWithCheckpoint(t, m, ckDir, id)
	}
	info, err := m.Info(ctx, "mover")
	if err != nil {
		t.Fatal(err)
	}
	if info.Resident {
		t.Skip("fillers landed elsewhere; mover never parked") // hash-routing dependent; avoid a false failure
	}
	dst := 1 - src
	if _, err := m.Migrate(ctx, "mover", dst); err != nil {
		t.Fatalf("migrating parked tenant: %v", err)
	}
	info, err = m.Info(ctx, "mover")
	if err != nil {
		t.Fatal(err)
	}
	if info.Shard != dst || info.Seq != 25 || !info.Resident {
		t.Fatalf("post-migration info %+v, want shard %d seq 25 resident", info, dst)
	}
	if err := tick(ctx, m, "mover", 26, testRow(26, 4), &rsp); err != nil || rsp.Seq != 26 {
		t.Fatalf("tick after parked migration: seq %d err %v", rsp.Seq, err)
	}
}

// TestResidencyBytesCap: the bytes budget evicts like the count budget,
// sized by Engine.MemoryBytes.
func TestResidencyBytesCap(t *testing.T) {
	ctx := context.Background()
	ckDir := t.TempDir()
	eng, err := core.NewEngine(testConfig(), testStreams(), nil)
	if err != nil {
		t.Fatal(err)
	}
	one := eng.MemoryBytes()
	eng.Close()
	m := New(Options{
		Shards:        1,
		WAL:           wal.NewManager(t.TempDir(), wal.Options{SyncInterval: time.Millisecond}),
		Hydrate:       fileHydrator(ckDir),
		ResidentBytes: one + one/2, // room for one engine, not two
	})
	defer m.Close()
	createWithCheckpoint(t, m, ckDir, "a")
	createWithCheckpoint(t, m, ckDir, "b")
	requireResidency(t, m, ctx, map[string]bool{"a": false, "b": true})
}
