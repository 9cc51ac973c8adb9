package main

import (
	"bytes"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"tkcm/internal/core"
	"tkcm/internal/wal"
)

// buildTenant writes a realistic data layout for one tenant: a checkpoint
// covering the first rows and a keyed WAL carrying the rest, closed cleanly.
func buildTenant(t *testing.T, ckDir, walDir, id string, key []byte, total int) {
	t.Helper()
	eng, err := core.NewEngine(core.Config{K: 2, PatternLength: 3, D: 2, WindowLength: 24},
		[]string{"a", "b"}, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer eng.Close()
	l, err := wal.Open(filepath.Join(walDir, id), wal.Options{Key: key})
	if err != nil {
		t.Fatal(err)
	}
	ckAt := total / 2
	for n := 1; n <= total; n++ {
		row := []float64{20 + float64(n%5), 19.5}
		if _, _, err := eng.Tick(row); err != nil {
			t.Fatal(err)
		}
		if _, err := l.AppendBatch(uint64(n), [][]float64{row}); err != nil {
			t.Fatal(err)
		}
		if n == ckAt {
			f, err := os.Create(filepath.Join(ckDir, id+".tkcm"))
			if err != nil {
				t.Fatal(err)
			}
			if err := eng.Snapshot(f); err != nil {
				t.Fatal(err)
			}
			f.Close()
		}
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
}

func TestVerifyCleanDirectoriesAndTamperDetection(t *testing.T) {
	ckDir, walDir := t.TempDir(), t.TempDir()
	keyPath := filepath.Join(t.TempDir(), "key")
	if err := os.WriteFile(keyPath, []byte("cli-test-key\n"), 0o600); err != nil {
		t.Fatal(err)
	}
	key, err := wal.LoadKeyFile(keyPath)
	if err != nil {
		t.Fatal(err)
	}
	const total = 12
	buildTenant(t, ckDir, walDir, "t1", key, total)
	buildTenant(t, ckDir, walDir, "t2", key, total)

	args := []string{"-checkpoint-dir", ckDir, "-wal-dir", walDir, "-integrity-key-file", keyPath}
	var out, errw bytes.Buffer
	if code := run(args, &out, &errw); code != 0 {
		t.Fatalf("clean audit exited %d: %s%s", code, out.String(), errw.String())
	}
	for _, want := range []string{
		"tenant t1: durable through seq 12",
		"tenant t2: durable through seq 12",
	} {
		if !strings.Contains(out.String(), want) {
			t.Fatalf("output missing %q:\n%s", want, out.String())
		}
	}

	// Single-tenant mode.
	out.Reset()
	if code := run(append(args, "-tenant", "t1"), &out, &errw); code != 0 {
		t.Fatalf("single-tenant audit exited %d: %s", code, errw.String())
	}
	if strings.Contains(out.String(), "tenant t2") {
		t.Fatalf("-tenant t1 audited t2 too:\n%s", out.String())
	}

	// Tamper with one byte of t2's log: the audit must fail it, still pass
	// t1, and exit non-zero.
	segDir := filepath.Join(walDir, "t2")
	entries, err := os.ReadDir(segDir)
	if err != nil || len(entries) == 0 {
		t.Fatalf("reading %s: %v", segDir, err)
	}
	var seg string
	for _, ent := range entries {
		if strings.HasSuffix(ent.Name(), ".wal") {
			seg = filepath.Join(segDir, ent.Name())
		}
	}
	raw, err := os.ReadFile(seg)
	if err != nil {
		t.Fatal(err)
	}
	raw[len(raw)/2] ^= 0x01
	if err := os.WriteFile(seg, raw, 0o644); err != nil {
		t.Fatal(err)
	}
	out.Reset()
	errw.Reset()
	if code := run(args, &out, &errw); code != 1 {
		t.Fatalf("audit of tampered log exited %d, want 1\n%s%s", code, out.String(), errw.String())
	}
	if !strings.Contains(out.String(), "tenant t2: FAIL") {
		t.Fatalf("tampered tenant not failed:\n%s", out.String())
	}
	if !strings.Contains(out.String(), "tenant t1: durable through seq 12") {
		t.Fatalf("clean tenant dragged down by tampered one:\n%s", out.String())
	}
	if !strings.Contains(errw.String(), "1 of 2 tenants FAILED") {
		t.Fatalf("summary missing:\n%s", errw.String())
	}

	// Wrong key: everything fails (commit HMACs no longer verify).
	wrongKey := filepath.Join(t.TempDir(), "wrong")
	if err := os.WriteFile(wrongKey, []byte("not-the-key"), 0o600); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(seg, append(raw[:len(raw)/2], append([]byte{raw[len(raw)/2] ^ 0x01}, raw[len(raw)/2+1:]...)...), 0o644); err != nil {
		t.Fatal(err)
	}
	out.Reset()
	errw.Reset()
	if code := run([]string{"-checkpoint-dir", ckDir, "-wal-dir", walDir, "-integrity-key-file", wrongKey}, &out, &errw); code != 1 {
		t.Fatalf("audit under wrong key exited %d, want 1\n%s", code, out.String())
	}

	// No directories at all is a usage error.
	if code := run(nil, &out, &errw); code != 2 {
		t.Fatalf("no-args run exited %d, want 2", code)
	}
}

func TestVerifyGapNotCoveredByCheckpointFails(t *testing.T) {
	ckDir, walDir := t.TempDir(), t.TempDir()
	// A WAL whose sequence jumps (SetNextSeq after a restore) with NO
	// checkpoint covering the gap: rows 4..9 are provably in neither place.
	l, err := wal.Open(filepath.Join(walDir, "gap"), wal.Options{})
	if err != nil {
		t.Fatal(err)
	}
	for n := 1; n <= 3; n++ {
		if _, err := l.AppendBatch(uint64(n), [][]float64{{1}}); err != nil {
			t.Fatal(err)
		}
	}
	if err := l.SetNextSeq(10); err != nil {
		t.Fatal(err)
	}
	if _, err := l.AppendBatch(10, [][]float64{{1}}); err != nil {
		t.Fatal(err)
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	var out, errw bytes.Buffer
	if code := run([]string{"-checkpoint-dir", ckDir, "-wal-dir", walDir}, &out, &errw); code != 1 {
		t.Fatalf("uncovered gap exited %d, want 1\n%s", code, out.String())
	}
	if !strings.Contains(out.String(), "in no checkpoint") {
		t.Fatalf("gap failure not explained:\n%s", out.String())
	}
}
