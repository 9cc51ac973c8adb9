package server

import (
	"context"
	"errors"
	"net/http"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"tkcm/internal/shard"
	"tkcm/internal/wal"
)

// newWALTestServer builds a server with both persistence legs over dir.
func newWALTestServer(t *testing.T, dir string) (*Server, *shard.Manager, *wal.Manager) {
	t.Helper()
	wm := wal.NewManager(filepath.Join(dir, "wal"), wal.Options{SyncInterval: time.Millisecond})
	m := shard.New(shard.Options{Shards: 2, QueueLen: 16, WAL: wm})
	s := New(Options{
		Manager:       m,
		CheckpointDir: filepath.Join(dir, "ck"),
		WAL:           wm,
		Log:           quietLog(),
	})
	t.Cleanup(func() {
		m.Close()
		wm.Close()
	})
	return s, m, wm
}

// TestPruneRemovesOrphanArtifacts covers the prune backstops one by one:
// a checkpoint with no tenant, a stale checkpoint temp file, a stale
// routing-table temp file, and a write-ahead log with no tenant all vanish
// on the next CheckpointAll; the routing table itself, a fresh routing-table
// temp and files of hosted tenants stay. Temps are planted under the names
// before and after durable.Replace named them after their target.
func TestPruneRemovesOrphanArtifacts(t *testing.T) {
	dir := t.TempDir()
	s, m, wm := newWALTestServer(t, dir)
	ctx := context.Background()
	ckDir := filepath.Join(dir, "ck")

	if err := m.Create(ctx, "alive", testCoreConfig(), []string{"s", "r1", "r2", "r3"}, nil); err != nil {
		t.Fatal(err)
	}
	if _, err := s.CheckpointAll(ctx); err != nil {
		t.Fatal(err)
	}

	// Plant every species of orphan.
	orphans := []string{
		"ghost.tkcm",        // checkpoint of an unhosted tenant
		"alive.tmp-12345",   // crashed checkpointTenant temp
		"routing-99999.tmp", // crashed routing-table save temp (old)
	}
	for _, name := range orphans {
		if err := os.WriteFile(filepath.Join(ckDir, name), []byte("x"), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	// Routing temps are reaped by age (a fresh one may be a save in
	// flight): age the orphan past the threshold, and plant a fresh one
	// that must survive.
	old := time.Now().Add(-2 * time.Hour)
	if err := os.Chtimes(filepath.Join(ckDir, "routing-99999.tmp"), old, old); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(filepath.Join(ckDir, "routing-11111.tmp"), []byte("x"), 0o644); err != nil {
		t.Fatal(err)
	}
	// The routing table file must survive pruning (it is not a checkpoint).
	routingPath := filepath.Join(ckDir, "routing.tkcmrt")
	if err := os.WriteFile(routingPath, []byte("placeholder"), 0o644); err != nil {
		t.Fatal(err)
	}
	// The same species under the temp names durable.Replace gives
	// (<target>.tmp-<random>): the checkpoint temp goes at once, the
	// routing temps only once they are an hour old.
	replaceTemps := map[string]bool{ // name → survives
		"alive.tkcm.tmp-12345":     false,
		"routing.tkcmrt.tmp-99999": false,
		"routing.tkcmrt.tmp-11111": true,
	}
	for name := range replaceTemps {
		if err := os.WriteFile(filepath.Join(ckDir, name), []byte("x"), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	if err := os.Chtimes(filepath.Join(ckDir, "routing.tkcmrt.tmp-99999"), old, old); err != nil {
		t.Fatal(err)
	}
	// An orphan WAL directory: a tenant with logs but no checkpoint/engine.
	if _, err := wm.Open("wal-ghost"); err != nil {
		t.Fatal(err)
	}
	if _, err := wm.AppendBatch("wal-ghost", 1, [][]float64{{1, 2}}); err != nil {
		t.Fatal(err)
	}
	if err := wm.Get("wal-ghost").Sync(); err != nil {
		t.Fatal(err)
	}
	// Close the manager's handle so prune's Remove can delete the directory
	// out from under nobody.
	if err := wm.Remove("wal-ghost"); err != nil {
		t.Fatal(err)
	}
	if err := os.MkdirAll(filepath.Join(dir, "wal", "wal-ghost"), 0o755); err != nil {
		t.Fatal(err)
	}

	if _, err := s.CheckpointAll(ctx); err != nil {
		t.Fatal(err)
	}

	for _, name := range orphans {
		if _, err := os.Stat(filepath.Join(ckDir, name)); !errors.Is(err, os.ErrNotExist) {
			t.Errorf("orphan %s survived pruning (err=%v)", name, err)
		}
	}
	if _, err := os.Stat(routingPath); err != nil {
		t.Errorf("routing table was pruned: %v", err)
	}
	if _, err := os.Stat(filepath.Join(ckDir, "routing-11111.tmp")); err != nil {
		t.Errorf("fresh routing temp (possible save in flight) was pruned: %v", err)
	}
	if _, err := os.Stat(filepath.Join(ckDir, "alive.tkcm")); err != nil {
		t.Errorf("live checkpoint was pruned: %v", err)
	}
	for name, survives := range replaceTemps {
		_, err := os.Stat(filepath.Join(ckDir, name))
		if survives && err != nil {
			t.Errorf("fresh temp %s (possible save in flight) was pruned: %v", name, err)
		}
		if !survives && !errors.Is(err, os.ErrNotExist) {
			t.Errorf("stale temp %s survived pruning (err=%v)", name, err)
		}
	}
	if _, err := os.Stat(filepath.Join(dir, "wal", "wal-ghost")); !errors.Is(err, os.ErrNotExist) {
		t.Errorf("orphan WAL directory survived pruning (err=%v)", err)
	}
	if _, err := os.Stat(filepath.Join(dir, "wal", "alive")); err != nil {
		t.Errorf("live WAL was pruned: %v", err)
	}
}

// TestCheckpointAllCountsPartialFailure: one tenant's snapshot failing must
// not stop the others, and the error counter must tick.
func TestCheckpointAllCountsPartialFailure(t *testing.T) {
	dir := t.TempDir()
	m := shard.New(shard.Options{Shards: 2, QueueLen: 16})
	defer m.Close()
	s := New(Options{Manager: m, CheckpointDir: filepath.Join(dir, "nested", "ck"), Log: quietLog()})
	ctx := context.Background()
	for _, id := range []string{"p1", "p2"} {
		if err := m.Create(ctx, id, testCoreConfig(), []string{"s", "r1", "r2", "r3"}, nil); err != nil {
			t.Fatal(err)
		}
	}
	// First checkpoint succeeds and creates the directory.
	if n, err := s.CheckpointAll(ctx); err != nil || n != 2 {
		t.Fatalf("checkpoint: n=%d err=%v", n, err)
	}
	if got := s.checkpoints.Load(); got != 2 {
		t.Fatalf("checkpoints counter %d, want 2", got)
	}

	// Sabotage: delete one tenant's engine out from under the listing by
	// deleting it between the listing and its snapshot — instead, simulate
	// failure more directly by making the checkpoint dir read-only.
	if err := os.Chmod(filepath.Join(dir, "nested", "ck"), 0o555); err != nil {
		t.Fatal(err)
	}
	defer os.Chmod(filepath.Join(dir, "nested", "ck"), 0o755)
	n, err := s.CheckpointAll(ctx)
	if err == nil {
		t.Skip("running as privileged user; read-only dir does not fail writes")
	}
	if n != 0 {
		t.Fatalf("read-only dir wrote %d checkpoints", n)
	}
	if got := s.checkpointErrs.Load(); got == 0 {
		t.Fatal("checkpoint error counter did not tick")
	}
}

// TestCheckpointAllWithoutDirErrors covers the unconfigured-persistence
// guard on both the method and the endpoint.
func TestCheckpointAllWithoutDirErrors(t *testing.T) {
	m := shard.New(shard.Options{Shards: 1})
	defer m.Close()
	s := New(Options{Manager: m, Log: quietLog()})
	if _, err := s.CheckpointAll(context.Background()); err == nil {
		t.Fatal("CheckpointAll without a directory succeeded")
	}
	// StartCheckpointLoop and StartRebalancer are no-ops without config —
	// Shutdown must still complete cleanly.
	s.StartCheckpointLoop()
	s.StartRebalancer()
	if err := s.Shutdown(context.Background()); err != nil {
		t.Fatal(err)
	}
	// Shutdown is idempotent.
	if err := s.Shutdown(context.Background()); err != nil {
		t.Fatal(err)
	}
}

// TestRestoreSkipsInvalidCheckpointNames: files in the checkpoint directory
// whose names cannot be tenant ids (path traversal, pattern violations) are
// skipped with a warning, not restored, not fatal.
func TestRestoreSkipsInvalidCheckpointNames(t *testing.T) {
	dir := t.TempDir()
	ckDir := filepath.Join(dir, "ck")
	if err := os.MkdirAll(ckDir, 0o755); err != nil {
		t.Fatal(err)
	}
	// Legal tenant id characters but an illegal leading dash.
	if err := os.WriteFile(filepath.Join(ckDir, "-bad.tkcm"), []byte("junk"), 0o644); err != nil {
		t.Fatal(err)
	}
	m := shard.New(shard.Options{Shards: 1})
	defer m.Close()
	s := New(Options{Manager: m, CheckpointDir: ckDir, Log: quietLog()})
	n, err := s.RestoreFromCheckpoints(context.Background())
	if err != nil {
		t.Fatalf("restore: %v", err)
	}
	if n != 0 {
		t.Fatalf("restored %d tenants from invalid files", n)
	}
}

// TestRestoreUnreadableCheckpointFails: a corrupt snapshot for a valid
// tenant id must abort the restore loudly — serving a fresh engine under an
// id with durable state would be silent data loss.
func TestRestoreUnreadableCheckpointFails(t *testing.T) {
	dir := t.TempDir()
	ckDir := filepath.Join(dir, "ck")
	if err := os.MkdirAll(ckDir, 0o755); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(filepath.Join(ckDir, "valid-id.tkcm"), []byte("not a snapshot"), 0o644); err != nil {
		t.Fatal(err)
	}
	m := shard.New(shard.Options{Shards: 1})
	defer m.Close()
	s := New(Options{Manager: m, CheckpointDir: ckDir, Log: quietLog()})
	if _, err := s.RestoreFromCheckpoints(context.Background()); err == nil {
		t.Fatal("restore of a corrupt checkpoint succeeded")
	}
}

// TestWALWithoutCheckpointNotRestored: a WAL directory whose tenant has no
// checkpoint is warned about and left alone — the server cannot invent the
// tenant's config, but it must not delete evidence either (prune only runs
// under CheckpointAll, where the operator has live state).
func TestWALWithoutCheckpointNotRestored(t *testing.T) {
	dir := t.TempDir()
	s, _, wm := newWALTestServer(t, dir)
	if _, err := wm.Open("orphan"); err != nil {
		t.Fatal(err)
	}
	if err := wm.Close(); err != nil {
		t.Fatal(err)
	}
	n, err := s.RestoreFromCheckpoints(context.Background())
	if err != nil {
		t.Fatalf("restore with orphan WAL: %v", err)
	}
	if n != 0 {
		t.Fatalf("restored %d tenants, want 0", n)
	}
	if _, err := os.Stat(filepath.Join(dir, "wal", "orphan")); err != nil {
		t.Fatalf("restore deleted the orphan WAL: %v", err)
	}
}

// TestDeleteTenantPrunesRoutingAssignment: deleting a migrated tenant drops
// its explicit routing entry, so a future tenant under the same id follows
// the default hash route.
func TestDeleteTenantPrunesRoutingAssignment(t *testing.T) {
	s, ts := newTestServer(t, t.TempDir())
	defer s.m.Close()
	defer ts.Close()
	ctx := context.Background()
	resp := createTenant(t, ts.URL, "dr", testTenantBody)
	resp.Body.Close()
	info, err := s.m.Info(ctx, "dr")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := s.m.Migrate(ctx, "dr", (info.Shard+1)%3); err != nil {
		t.Fatal(err)
	}
	if len(s.m.RoutingInfo().Assignments) != 1 {
		t.Fatal("migration did not record an assignment")
	}
	req, _ := http.NewRequest(http.MethodDelete, ts.URL+"/v1/tenants/dr", nil)
	dresp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	dresp.Body.Close()
	if dresp.StatusCode != http.StatusOK {
		t.Fatalf("delete: %d", dresp.StatusCode)
	}
	if n := len(s.m.RoutingInfo().Assignments); n != 0 {
		t.Fatalf("delete left %d routing assignments", n)
	}
}

// TestPruneSkipsTmpDashTenantIDs pins the suffix-first prune ordering: a
// hosted tenant whose id contains ".tmp-" keeps its checkpoint.
func TestPruneSkipsTmpDashTenantIDs(t *testing.T) {
	dir := t.TempDir()
	m := shard.New(shard.Options{Shards: 2, QueueLen: 16})
	defer m.Close()
	ckDir := filepath.Join(dir, "ck")
	s := New(Options{Manager: m, CheckpointDir: ckDir, Log: quietLog()})
	ctx := context.Background()
	const oddID = "x.tmp-tenant"
	if err := m.Create(ctx, oddID, testCoreConfig(), []string{"s", "r1", "r2", "r3"}, nil); err != nil {
		t.Fatal(err)
	}
	if _, err := s.CheckpointAll(ctx); err != nil {
		t.Fatal(err)
	}
	if _, err := s.CheckpointAll(ctx); err != nil { // second run exercises prune against the existing file
		t.Fatal(err)
	}
	if _, err := os.Stat(filepath.Join(ckDir, oddID+checkpointExt)); err != nil {
		t.Fatalf("checkpoint of %q was pruned: %v", oddID, err)
	}
	if !strings.HasSuffix(oddID+checkpointExt, checkpointExt) {
		t.Fatal("sanity")
	}
}
