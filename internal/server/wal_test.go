package server

import (
	"bytes"
	"context"
	"math"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"tkcm/internal/core"
	"tkcm/internal/durable"
	"tkcm/internal/shard"
	"tkcm/internal/wal"
)

// newWALServer assembles a WAL-enabled stack over the given directories.
func newHTTPServer(t *testing.T, s *Server) *httptest.Server {
	t.Helper()
	ts := httptest.NewServer(s.Handler())
	t.Cleanup(ts.Close)
	return ts
}

// segmentSyncFS is the host FS whose WAL segment fsyncs first run hook: a
// sleeping hook stretches the group-commit window, an erroring one fails
// the fsync and latches the log fail-stopped.
type segmentSyncFS struct {
	durable.OS
	hook func() error
}

func (fs segmentSyncFS) OpenFile(name string, flag int, perm os.FileMode) (durable.File, error) {
	f, err := fs.OS.OpenFile(name, flag, perm)
	if err != nil || !strings.HasSuffix(name, ".wal") {
		return f, err
	}
	return hookedSync{f, fs.hook}, nil
}

type hookedSync struct {
	durable.File
	hook func() error
}

func (f hookedSync) Sync() error {
	if err := f.hook(); err != nil {
		return err
	}
	return f.File.Sync()
}

func newWALServer(t *testing.T, ckDir, walDir string, walOpts wal.Options) (*Server, *shard.Manager, *wal.Manager) {
	t.Helper()
	walMgr := wal.NewManager(walDir, walOpts)
	m := shard.New(shard.Options{Shards: 2, QueueLen: 16, WAL: walMgr})
	s := New(Options{Manager: m, CheckpointDir: ckDir, WAL: walMgr, Log: quietLog()})
	return s, m, walMgr
}

// TestWALRecoveryWithoutGracefulShutdown simulates a crash: the first stack
// is abandoned with no drain and no final checkpoint — only the tenant's
// base image (written at creation) and the WAL survive. The second stack
// must replay every acked row and match a direct engine bit-for-bit within
// the restore tolerance.
func TestWALRecoveryWithoutGracefulShutdown(t *testing.T) {
	ckDir, walDir := t.TempDir(), t.TempDir()
	walOpts := wal.Options{SyncInterval: time.Millisecond}
	s1, m1, wal1 := newWALServer(t, ckDir, walDir, walOpts)
	ts1 := newHTTPServer(t, s1)

	if resp := createTenant(t, ts1.URL, "crash", testTenantBody); resp.StatusCode != 201 {
		t.Fatalf("create: %d", resp.StatusCode)
	}
	// The base image must exist before the first tick is ever acked.
	if _, err := os.Stat(filepath.Join(ckDir, "crash.tkcm")); err != nil {
		t.Fatalf("base checkpoint missing after create: %v", err)
	}

	direct, err := core.NewEngine(testCoreConfig(), []string{"s", "r1", "r2", "r3"}, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer direct.Close()

	st := openTickStream(t, ts1.URL, "crash")
	const rows = 40
	for n := 0; n < rows; n++ {
		row := []float64{20.5 + float64(n%4), 19.2, 21.4, 20.9}
		if n > 10 && n%2 == 0 {
			row[0] = math.NaN()
		}
		if _, err := st.send(row); err != nil {
			t.Fatalf("tick %d: %v", n, err)
		}
		if _, _, err := direct.Tick(row); err != nil {
			t.Fatal(err)
		}
	}
	// Crash: tear the HTTP front off and abandon the stack — no BeginDrain,
	// no Shutdown, no CheckpointAll. Closing the stream and the WAL manager
	// only releases handles; every acked row above is already fsynced.
	st.close()
	ts1.Close()
	wal1.Close()
	_ = m1

	s2, m2, wal2 := newWALServer(t, ckDir, walDir, walOpts)
	defer m2.Close()
	defer wal2.Close()
	n, err := s2.RestoreFromCheckpoints(context.Background())
	if err != nil {
		t.Fatalf("restore: %v", err)
	}
	if n != 1 {
		t.Fatalf("restored %d tenants, want 1", n)
	}
	info, err := m2.Info(context.Background(), "crash")
	if err != nil {
		t.Fatal(err)
	}
	if info.Seq != rows {
		t.Fatalf("recovered seq %d, want %d (acked rows lost)", info.Seq, rows)
	}
	// Window equivalence against the uninterrupted direct engine.
	var buf bytes.Buffer
	if _, err := m2.Snapshot(context.Background(), "crash", &buf); err != nil {
		t.Fatal(err)
	}
	restored, err := core.RestoreEngine(&buf)
	if err != nil {
		t.Fatal(err)
	}
	defer restored.Close()
	for i := 0; i < 4; i++ {
		got, want := restored.Window().Snapshot(i), direct.Window().Snapshot(i)
		if len(got) != len(want) {
			t.Fatalf("stream %d: %d ticks, want %d", i, len(got), len(want))
		}
		for j := range want {
			if math.Abs(got[j]-want[j]) > 1e-9 {
				t.Fatalf("stream %d tick %d: %v != %v", i, j, got[j], want[j])
			}
		}
	}
}

// TestRestoreFailsOnCorruptWALSegment flips a byte in a non-final WAL
// segment: acked rows behind it are unreadable, and the restore must
// refuse to serve a silently rolled-back tenant.
func TestRestoreFailsOnCorruptWALSegment(t *testing.T) {
	ckDir, walDir := t.TempDir(), t.TempDir()
	// Tiny segments force several rotations over a short stream.
	walOpts := wal.Options{SegmentBytes: 256}
	s1, m1, wal1 := newWALServer(t, ckDir, walDir, walOpts)
	ts1 := newHTTPServer(t, s1)
	if resp := createTenant(t, ts1.URL, "corrupt", testTenantBody); resp.StatusCode != 201 {
		t.Fatalf("create: %d", resp.StatusCode)
	}
	st := openTickStream(t, ts1.URL, "corrupt")
	for n := 0; n < 30; n++ {
		if _, err := st.send([]float64{20, 19, 21, 20.5}); err != nil {
			t.Fatal(err)
		}
	}
	st.close()
	ts1.Close()
	wal1.Close()
	_ = m1

	tenantDir := filepath.Join(walDir, "corrupt")
	segs, err := os.ReadDir(tenantDir)
	if err != nil || len(segs) < 2 {
		t.Fatalf("want ≥2 segments, got %v (%v)", segs, err)
	}
	first := filepath.Join(tenantDir, segs[0].Name())
	raw, err := os.ReadFile(first)
	if err != nil {
		t.Fatal(err)
	}
	raw[len(raw)-2] ^= 0xff
	if err := os.WriteFile(first, raw, 0o644); err != nil {
		t.Fatal(err)
	}

	s2, m2, wal2 := newWALServer(t, ckDir, walDir, walOpts)
	defer m2.Close()
	defer wal2.Close()
	if _, err := s2.RestoreFromCheckpoints(context.Background()); err == nil {
		t.Fatal("restore over a corrupt WAL segment succeeded; acked rows were silently dropped")
	}
}

// TestCheckpointTruncatesWAL verifies the log is reclaimed once a
// checkpoint covers it.
func TestCheckpointTruncatesWAL(t *testing.T) {
	ckDir, walDir := t.TempDir(), t.TempDir()
	walOpts := wal.Options{SegmentBytes: 256}
	s, m, walMgr := newWALServer(t, ckDir, walDir, walOpts)
	defer m.Close()
	defer walMgr.Close()
	ts := newHTTPServer(t, s)
	if resp := createTenant(t, ts.URL, "trunc", testTenantBody); resp.StatusCode != 201 {
		t.Fatalf("create: %d", resp.StatusCode)
	}
	st := openTickStream(t, ts.URL, "trunc")
	for n := 0; n < 30; n++ {
		if _, err := st.send([]float64{20, 19, 21, 20.5}); err != nil {
			t.Fatal(err)
		}
	}
	st.close()
	before := walMgr.Get("trunc").Segments()
	if before < 2 {
		t.Fatalf("want ≥2 segments before checkpoint, got %d", before)
	}
	if _, err := s.CheckpointAll(context.Background()); err != nil {
		t.Fatal(err)
	}
	if after := walMgr.Get("trunc").Segments(); after >= before {
		t.Fatalf("checkpoint reclaimed nothing: %d -> %d segments", before, after)
	}
	if st := walMgr.Stats(); st.Truncations == 0 {
		t.Fatal("truncation counter did not move")
	}
}

// TestDeleteRemovesWAL: a deleted tenant's log must not resurrect it.
func TestDeleteRemovesWAL(t *testing.T) {
	ckDir, walDir := t.TempDir(), t.TempDir()
	s, m, walMgr := newWALServer(t, ckDir, walDir, wal.Options{})
	defer m.Close()
	defer walMgr.Close()
	ts := newHTTPServer(t, s)
	if resp := createTenant(t, ts.URL, "bye", testTenantBody); resp.StatusCode != 201 {
		t.Fatalf("create: %d", resp.StatusCode)
	}
	st := openTickStream(t, ts.URL, "bye")
	if _, err := st.send([]float64{20, 19, 21, 20.5}); err != nil {
		t.Fatal(err)
	}
	st.close()
	req, _ := http.NewRequest("DELETE", ts.URL+"/v1/tenants/bye", nil)
	resp, err := http.DefaultClient.Do(req)
	if err != nil || resp.StatusCode != 200 {
		t.Fatalf("delete: %v %v", resp, err)
	}
	if _, err := os.Stat(filepath.Join(walDir, "bye")); !os.IsNotExist(err) {
		t.Fatalf("WAL dir survived delete: %v", err)
	}
	if _, err := os.Stat(filepath.Join(ckDir, "bye.tkcm")); !os.IsNotExist(err) {
		t.Fatalf("checkpoint survived delete: %v", err)
	}
}

// TestRestoreRefusesImageOlderThanLog: a tenant checkpointed at seq 10 has
// its log truncated to records 11..; putting its seq-0 base image back must
// not tick records 11.. into an engine at seq 0 (a window with ten ticks
// missing). The replay refuses the first record that does not follow the
// engine's seq, and names both.
func TestRestoreRefusesImageOlderThanLog(t *testing.T) {
	ckDir, walDir := t.TempDir(), t.TempDir()
	// Five one-row records per segment (8 B magic + 5 × (52 B record + 84 B
	// commit)), so the checkpoint at seq 10 retires exactly seqs 1..10.
	walOpts := wal.Options{SegmentBytes: 8 + 5*(52+84)}
	s1, m1, wal1 := newWALServer(t, ckDir, walDir, walOpts)
	ts1 := newHTTPServer(t, s1)
	if resp := createTenant(t, ts1.URL, "hole", testTenantBody); resp.StatusCode != 201 {
		t.Fatalf("create: %d", resp.StatusCode)
	}
	image := filepath.Join(ckDir, "hole.tkcm")
	base, err := os.ReadFile(image)
	if err != nil {
		t.Fatal(err)
	}
	st := openTickStream(t, ts1.URL, "hole")
	send := func(from, to int) {
		for n := from; n <= to; n++ {
			if _, err := st.send([]float64{20 + float64(n%3), 19, 21, 20.5}); err != nil {
				t.Fatalf("row %d: %v", n, err)
			}
		}
	}
	send(1, 10)
	if _, err := s1.CheckpointAll(context.Background()); err != nil {
		t.Fatal(err)
	}
	send(11, 30)
	st.close()
	ts1.Close()
	m1.Close()
	wal1.Close()
	if _, err := os.Stat(filepath.Join(walDir, "hole", "seg-00000000000000000001.wal")); !os.IsNotExist(err) {
		t.Fatalf("checkpoint at seq 10 left the log untruncated: %v", err)
	}
	if err := os.WriteFile(image, base, 0o644); err != nil {
		t.Fatal(err)
	}

	s2, m2, wal2 := newWALServer(t, ckDir, walDir, walOpts)
	defer m2.Close()
	defer wal2.Close()
	_, err = s2.RestoreFromCheckpoints(context.Background())
	if err == nil || !strings.Contains(err.Error(), "record 11") || !strings.Contains(err.Error(), "engine seq 0") {
		t.Fatalf("restore of an image older than the log's base: %v, want an error naming record 11 and engine seq 0", err)
	}
}
