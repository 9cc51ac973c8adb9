package wal

import (
	"encoding/binary"
	"errors"
	"hash/crc32"
	"math"
	"os"
	"path/filepath"
	"testing"
	"time"
)

// collectTail replays the open log's tail from fromSeq into memory.
func collectTail(t *testing.T, l *Log, fromSeq uint64) (seqs []uint64, rows [][]float64) {
	t.Helper()
	last, err := l.ReplayTail(fromSeq, func(seq uint64, values []float64) error {
		seqs = append(seqs, seq)
		rows = append(rows, append([]float64(nil), values...))
		return nil
	})
	if err != nil {
		t.Fatalf("replay tail: %v", err)
	}
	if len(seqs) > 0 && last != seqs[len(seqs)-1] {
		t.Fatalf("ReplayTail returned last=%d, delivered through %d", last, seqs[len(seqs)-1])
	}
	return seqs, rows
}

// TestReplayTailMatchesReplay: the open-log fast path must deliver exactly
// what the offline Replay delivers, across segment rotations and for every
// starting point — including from inside a sealed segment and past the end.
func TestReplayTailMatchesReplay(t *testing.T) {
	dir := t.TempDir()
	l, err := Open(dir, Options{SyncInterval: time.Millisecond, SegmentBytes: 256})
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	const n = 60
	for i := 1; i <= n; i++ {
		c, err := appendRow(l, uint64(i), []float64{float64(i), float64(-i)})
		if err != nil {
			t.Fatalf("append %d: %v", i, err)
		}
		if err := c.Wait(); err != nil {
			t.Fatalf("commit %d: %v", i, err)
		}
	}
	if l.Segments() < 2 {
		t.Fatalf("want rotation, have %d segments", l.Segments())
	}
	for _, from := range []uint64{1, 2, n / 2, n, n + 1} {
		gotSeqs, gotRows := collectTail(t, l, from)
		wantSeqs, wantRows := collect(t, dir, from)
		if len(gotSeqs) != len(wantSeqs) {
			t.Fatalf("from %d: tail delivered %d rows, Replay %d", from, len(gotSeqs), len(wantSeqs))
		}
		for i := range wantSeqs {
			if gotSeqs[i] != wantSeqs[i] {
				t.Fatalf("from %d row %d: seq %d, want %d", from, i, gotSeqs[i], wantSeqs[i])
			}
			for j := range wantRows[i] {
				if gotRows[i][j] != wantRows[i][j] {
					t.Fatalf("from %d row %d value %d: %v, want %v", from, i, j, gotRows[i][j], wantRows[i][j])
				}
			}
		}
	}
}

// TestReplayTailForcesPendingBatch: records sitting in the group-commit
// buffer — appended, possibly acked, but not yet fsynced — must be made
// durable and delivered, not lost to the eviction/hydration race.
func TestReplayTailForcesPendingBatch(t *testing.T) {
	dir := t.TempDir()
	l, err := Open(dir, Options{SyncInterval: time.Hour}) // flusher will not fire
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	if _, err := appendRow(l, 1, []float64{42}); err != nil {
		t.Fatal(err)
	}
	seqs, _ := collectTail(t, l, 1)
	if len(seqs) != 1 || seqs[0] != 1 {
		t.Fatalf("tail delivered %v, want the buffered record", seqs)
	}
	if l.DurableThrough() != 1 {
		t.Fatalf("durable watermark %d after tail replay, want 1", l.DurableThrough())
	}
}

func TestReplayTailClosed(t *testing.T) {
	dir := t.TempDir()
	l, err := Open(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	l.Close()
	if _, err := l.ReplayTail(1, nil); !errors.Is(err, ErrClosed) {
		t.Fatalf("replay tail on closed log: %v, want ErrClosed", err)
	}
}

// TestManagerReplayTenantTail covers both manager arms: an open log takes
// the fast path, a never-opened tenant falls back to offline Replay.
func TestManagerReplayTenantTail(t *testing.T) {
	m := NewManager(t.TempDir(), Options{SyncInterval: time.Millisecond})
	defer m.Close()
	l, err := m.Open("alpha")
	if err != nil {
		t.Fatal(err)
	}
	c, err := appendRow(l, 1, []float64{7})
	if err != nil {
		t.Fatal(err)
	}
	if err := c.Wait(); err != nil {
		t.Fatal(err)
	}
	var got int
	if _, err := m.ReplayTenantTail("alpha", 1, func(uint64, []float64) error { got++; return nil }); err != nil {
		t.Fatal(err)
	}
	if got != 1 {
		t.Fatalf("open-log tail replay delivered %d records, want 1", got)
	}
	if _, err := m.ReplayTenantTail("ghost", 1, func(uint64, []float64) error { return nil }); err != nil {
		t.Fatalf("fallback replay of absent tenant: %v", err)
	}
}

// TestReplayTailProvesSealedSegments: a value rewritten in a sealed segment,
// with its record CRC fixed up, passes every framing check. Open reads no
// sealed segment, so hydration's ReplayTail is where the pinned Merkle root
// must catch it — the rewritten value must never reach fn.
func TestReplayTailProvesSealedSegments(t *testing.T) {
	dir := filepath.Join(t.TempDir(), "t")
	l, err := Open(dir, Options{SegmentBytes: 64}) // one record per segment
	if err != nil {
		t.Fatal(err)
	}
	for seq := uint64(1); seq <= 4; seq++ {
		if _, err := appendRow(l, seq, []float64{float64(seq), -float64(seq)}); err != nil {
			t.Fatal(err)
		}
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	// seg-1's only record: magic(8) | len(4) crc(4) | seq(8) count(4) values.
	path := filepath.Join(dir, segmentName(1))
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	payload := raw[16 : 16+12+16]
	binary.LittleEndian.PutUint64(payload[12:], math.Float64bits(999))
	binary.LittleEndian.PutUint32(raw[12:16], crc32.ChecksumIEEE(payload))
	if err := os.WriteFile(path, raw, 0o644); err != nil {
		t.Fatal(err)
	}

	l, err = Open(dir, Options{})
	if err != nil {
		t.Fatalf("open: %v", err)
	}
	defer l.Close()
	_, err = l.ReplayTail(1, func(seq uint64, values []float64) error {
		if values[0] == 999 {
			t.Fatalf("seq %d: hydration delivered the rewritten value", seq)
		}
		return nil
	})
	if !errors.Is(err, ErrCorrupt) {
		t.Fatalf("ReplayTail over a rewritten sealed segment: %v, want ErrCorrupt", err)
	}
	if _, err := Replay(dir, 1, func(uint64, []float64) error { return nil }); !errors.Is(err, ErrCorrupt) {
		t.Fatalf("Replay: %v, want ErrCorrupt", err)
	}
	if _, err := VerifyTenant(dir, nil); !errors.Is(err, ErrCorrupt) {
		t.Fatalf("VerifyTenant: %v, want ErrCorrupt", err)
	}
}
