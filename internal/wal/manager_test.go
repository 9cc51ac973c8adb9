package wal

import (
	"errors"
	"os"
	"path/filepath"
	"sort"
	"testing"
	"time"
)

// TestManagerOpenIsIdempotent: opening the same tenant twice returns the
// same log, and Get observes it without opening.
func TestManagerOpenIsIdempotent(t *testing.T) {
	m := NewManager(t.TempDir(), Options{})
	defer m.Close()
	if m.Get("a") != nil {
		t.Fatal("Get before Open returned a log")
	}
	l1, err := m.Open("a")
	if err != nil {
		t.Fatal(err)
	}
	l2, err := m.Open("a")
	if err != nil {
		t.Fatal(err)
	}
	if l1 != l2 {
		t.Fatal("second Open returned a different log")
	}
	if m.Get("a") != l1 {
		t.Fatal("Get returned a different log than Open")
	}
}

// TestManagerAppendRequiresOpen: appending to a tenant that was never
// opened fails instead of silently creating a log.
func TestManagerAppendRequiresOpen(t *testing.T) {
	m := NewManager(t.TempDir(), Options{})
	defer m.Close()
	if _, err := m.AppendBatch("nope", 1, [][]float64{{1}}); err == nil {
		t.Fatal("append without open succeeded")
	}
	// Truncate of an unopened tenant is an explicit no-op.
	if err := m.Truncate("nope", 10); err != nil {
		t.Fatalf("truncate without open: %v", err)
	}
	// Replay of a tenant with no directory replays nothing.
	n, err := m.ReplayTenantTail("nope", 1, func(uint64, []float64) error {
		t.Fatal("callback ran for a tenant with no log")
		return nil
	})
	if err != nil || n != 0 {
		t.Fatalf("replay of missing tenant: n=%d err=%v", n, err)
	}
}

// TestManagerTenantsListsDirectories: Tenants reflects what is on disk —
// open or not — which is exactly what the restore path walks.
func TestManagerTenantsListsDirectories(t *testing.T) {
	dir := t.TempDir()
	m := NewManager(filepath.Join(dir, "wal"), Options{})
	defer m.Close()

	// No root directory yet: empty listing, no error.
	ids, err := m.Tenants()
	if err != nil || len(ids) != 0 {
		t.Fatalf("empty manager: ids=%v err=%v", ids, err)
	}

	for _, id := range []string{"b", "a", "c"} {
		if _, err := m.Open(id); err != nil {
			t.Fatal(err)
		}
	}
	// A stray file in the root must not be listed as a tenant.
	if err := os.WriteFile(filepath.Join(dir, "wal", "stray.txt"), nil, 0o644); err != nil {
		t.Fatal(err)
	}
	ids, err = m.Tenants()
	if err != nil {
		t.Fatal(err)
	}
	sort.Strings(ids)
	if len(ids) != 3 || ids[0] != "a" || ids[1] != "b" || ids[2] != "c" {
		t.Fatalf("tenants %v, want [a b c]", ids)
	}
}

// TestManagerStatsAggregate: the manager's counters sum activity across all
// tenant logs — appends, syncs, bytes, truncations, and the open-log gauge.
func TestManagerStatsAggregate(t *testing.T) {
	m := NewManager(t.TempDir(), Options{SegmentBytes: 256})
	defer m.Close()
	for _, id := range []string{"s1", "s2"} {
		if _, err := m.Open(id); err != nil {
			t.Fatal(err)
		}
		for seq := uint64(1); seq <= 20; seq++ {
			if _, err := m.AppendBatch(id, seq, [][]float64{{1, 2, 3, 4}}); err != nil {
				t.Fatal(err)
			}
		}
		if err := m.Get(id).Sync(); err != nil {
			t.Fatal(err)
		}
	}
	st := m.Stats()
	if st.Appends != 40 {
		t.Fatalf("appends %d, want 40", st.Appends)
	}
	if st.Syncs == 0 {
		t.Fatal("no syncs counted")
	}
	if st.Bytes == 0 {
		t.Fatal("no bytes counted")
	}
	if st.OpenLogs != 2 {
		t.Fatalf("open logs %d, want 2", st.OpenLogs)
	}
	// Truncate across rotated segments ticks the truncation counter.
	if err := m.Truncate("s1", 20); err != nil {
		t.Fatal(err)
	}
	if st := m.Stats(); st.Truncations == 0 {
		t.Fatal("no truncations counted after truncate over rotated segments")
	}
}

// TestManagerRemoveIsIdempotent: removing a tenant that has no log (or was
// already removed) is not an error; removing an open one closes it first.
func TestManagerRemoveIsIdempotent(t *testing.T) {
	root := t.TempDir()
	m := NewManager(root, Options{})
	defer m.Close()
	if err := m.Remove("never-existed"); err != nil {
		t.Fatalf("removing a tenant with no log: %v", err)
	}
	l, err := m.Open("r1")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := m.AppendBatch("r1", 1, [][]float64{{9}}); err != nil {
		t.Fatal(err)
	}
	if err := m.Remove("r1"); err != nil {
		t.Fatal(err)
	}
	if _, err := os.Stat(filepath.Join(root, "r1")); !errors.Is(err, os.ErrNotExist) {
		t.Fatalf("tenant directory survived Remove: %v", err)
	}
	// The closed log refuses further use.
	if _, err := appendRow(l, 2, []float64{1}); !errors.Is(err, ErrClosed) {
		t.Fatalf("append to removed log: %v", err)
	}
	if err := m.Remove("r1"); err != nil {
		t.Fatalf("double remove: %v", err)
	}
}

// TestManagerCloseClosesAllLogs: Close releases every open log exactly
// once and leaves the manager unusable-but-safe.
func TestManagerCloseClosesAllLogs(t *testing.T) {
	m := NewManager(t.TempDir(), Options{SyncInterval: time.Millisecond})
	var logs []*Log
	for _, id := range []string{"c1", "c2", "c3"} {
		l, err := m.Open(id)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := m.AppendBatch(id, 1, [][]float64{{1}}); err != nil {
			t.Fatal(err)
		}
		logs = append(logs, l)
	}
	if err := m.Close(); err != nil {
		t.Fatal(err)
	}
	for i, l := range logs {
		if _, err := appendRow(l, 2, []float64{2}); !errors.Is(err, ErrClosed) {
			t.Fatalf("log %d alive after manager close: %v", i, err)
		}
	}
	// Close is idempotent.
	if err := m.Close(); err != nil {
		t.Fatal(err)
	}
}

// TestManagerReplayTenantRoundtrip: records appended through the manager
// replay through the manager, observing fromSeq.
func TestManagerReplayTenantRoundtrip(t *testing.T) {
	m := NewManager(t.TempDir(), Options{})
	defer m.Close()
	if _, err := m.Open("rt"); err != nil {
		t.Fatal(err)
	}
	for seq := uint64(1); seq <= 10; seq++ {
		if _, err := m.AppendBatch("rt", seq, [][]float64{{float64(seq), -float64(seq)}}); err != nil {
			t.Fatal(err)
		}
	}
	var got []uint64
	last, err := m.ReplayTenantTail("rt", 4, func(seq uint64, values []float64) error {
		if values[0] != float64(seq) || values[1] != -float64(seq) {
			t.Fatalf("seq %d: values %v", seq, values)
		}
		got = append(got, seq)
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if last != 10 || len(got) != 7 || got[0] != 4 {
		t.Fatalf("replay from 4: last=%d got=%v", last, got)
	}
}
