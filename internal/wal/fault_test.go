package wal

import (
	"errors"
	"strings"
	"testing"
	"time"
)

// The fault-injection seam (Options.failWrite / failSync / failCreate /
// failHead) exercises the fail-stop latch on every I/O edge the sync path
// has: once any write, fsync, rotation or head save fails, the log must
// refuse further appends, truncations and sequence changes — and what is
// already on disk must still audit clean.

func TestFailSyncLatchesLog(t *testing.T) {
	dir := t.TempDir()
	boom := errors.New("injected fsync failure")
	arm := false
	l, err := Open(dir, Options{failSync: func() error {
		if arm {
			return boom
		}
		return nil
	}})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := appendRow(l, 1, []float64{1}); err != nil {
		t.Fatalf("append 1: %v", err)
	}
	arm = true
	if _, err := appendRow(l, 2, []float64{2}); !errors.Is(err, boom) {
		t.Fatalf("append during injected fsync failure: err = %v, want %v", err, boom)
	}
	if l.Failed() == nil {
		t.Fatal("log did not latch after failed sync")
	}
	if _, err := appendRow(l, 3, []float64{3}); err == nil || !strings.Contains(err.Error(), "log failed") {
		t.Fatalf("append after latch: err = %v, want fail-fast", err)
	}
	if err := l.Truncate(1); err == nil || !strings.Contains(err.Error(), "refusing truncate") {
		t.Fatalf("truncate after latch: err = %v, want refusal", err)
	}
	if err := l.SetNextSeq(100); err == nil || !strings.Contains(err.Error(), "refusing seq change") {
		t.Fatalf("SetNextSeq after latch: err = %v, want refusal", err)
	}
	if _, err := l.ReplState(); err == nil {
		t.Fatal("ReplState after latch: want refusal (a failed log must not feed replication)")
	}
	// The durable prefix written before the fault still audits clean.
	rep, err := VerifyTenant(dir, nil)
	if err != nil {
		t.Fatalf("verify after latch: %v", err)
	}
	if rep.DurableThrough < 1 {
		t.Fatalf("DurableThrough = %d, want >= 1", rep.DurableThrough)
	}
}

func TestFailWriteLosesOnlyUnackedBatch(t *testing.T) {
	dir := t.TempDir()
	boom := errors.New("injected write failure")
	arm := false
	l, err := Open(dir, Options{failWrite: func() error {
		if arm {
			return boom
		}
		return nil
	}})
	if err != nil {
		t.Fatal(err)
	}
	for i := 1; i <= 3; i++ {
		if _, err := appendRow(l, uint64(i), []float64{float64(i)}); err != nil {
			t.Fatalf("append %d: %v", i, err)
		}
	}
	arm = true
	if _, err := appendRow(l, 4, []float64{4}); !errors.Is(err, boom) {
		t.Fatalf("append during injected write failure: err = %v, want %v", err, boom)
	}
	if got := l.DurableThrough(); got != 3 {
		t.Fatalf("DurableThrough after failed write = %d, want 3", got)
	}
	// Nothing of the failed batch reached the file: the audit proves exactly
	// the acked prefix.
	rep, err := VerifyTenant(dir, nil)
	if err != nil {
		t.Fatalf("verify: %v", err)
	}
	if rep.DurableThrough != 3 {
		t.Fatalf("audited DurableThrough = %d, want 3", rep.DurableThrough)
	}
}

func TestFailedRotationRecoversOnReopen(t *testing.T) {
	dir := t.TempDir()
	boom := errors.New("injected segment-create failure")
	arm := false
	l, err := Open(dir, Options{SegmentBytes: 64, failCreate: func(string) error {
		if arm {
			return boom
		}
		return nil
	}})
	if err != nil {
		t.Fatal(err)
	}
	arm = true
	// One record overflows the 64-byte threshold: the sync succeeds (the
	// record is acked and durable) but the rotation's segment create fails
	// after the head — now naming the next segment — was anchored.
	_, err = appendRow(l, 1, []float64{1, 2, 3})
	if !errors.Is(err, boom) {
		t.Fatalf("append triggering failed rotation: err = %v, want %v", err, boom)
	}
	if got := l.DurableThrough(); got != 1 {
		t.Fatalf("DurableThrough = %d, want 1 (the batch was synced before the rotation)", got)
	}
	if l.Failed() == nil {
		t.Fatal("log did not latch after failed rotation")
	}
	// Abandon without Close: this is exactly the rotation crash window the
	// head anchors. Reopen must recreate the missing active segment and
	// continue, losing nothing acked.
	l2, err := Open(dir, Options{})
	if err != nil {
		t.Fatalf("reopen after failed rotation: %v", err)
	}
	if got := l2.NextSeq(); got != 2 {
		t.Fatalf("NextSeq after reopen = %d, want 2", got)
	}
	if _, err := appendRow(l2, 2, []float64{4}); err != nil {
		t.Fatalf("append after reopen: %v", err)
	}
	if err := l2.Close(); err != nil {
		t.Fatal(err)
	}
	seqs, _ := collect(t, dir, 1)
	if len(seqs) != 2 || seqs[0] != 1 || seqs[1] != 2 {
		t.Fatalf("replayed seqs %v, want [1 2]", seqs)
	}
	if _, err := VerifyTenant(dir, nil); err != nil {
		t.Fatalf("verify after recovery: %v", err)
	}
}

func TestFailedHeadSaveDuringTruncateIsRetryable(t *testing.T) {
	dir := t.TempDir()
	boom := errors.New("injected head-save failure")
	arm := false
	l, err := Open(dir, Options{SegmentBytes: 64, failHead: func() error {
		if arm {
			return boom
		}
		return nil
	}})
	if err != nil {
		t.Fatal(err)
	}
	for i := 1; i <= 6; i++ {
		if _, err := appendRow(l, uint64(i), []float64{float64(i), float64(i)}); err != nil {
			t.Fatalf("append %d: %v", i, err)
		}
	}
	before := l.Segments()
	if before < 2 {
		t.Fatalf("want at least 2 segments before truncate, have %d", before)
	}
	arm = true
	if err := l.Truncate(3); !errors.Is(err, boom) {
		t.Fatalf("truncate with injected head failure: err = %v, want %v", err, boom)
	}
	// The failure happened before anything was unlinked or latched: the log
	// keeps serving, and the same truncation succeeds once the fault clears.
	if l.Failed() != nil {
		t.Fatalf("truncate head failure latched the log: %v", l.Failed())
	}
	if got := l.Segments(); got != before {
		t.Fatalf("segments after failed truncate = %d, want %d (nothing unlinked)", got, before)
	}
	arm = false
	if err := l.Truncate(3); err != nil {
		t.Fatalf("retried truncate: %v", err)
	}
	if got := l.Segments(); got >= before {
		t.Fatalf("segments after retried truncate = %d, want < %d", got, before)
	}
	if _, err := appendRow(l, 7, []float64{7, 7}); err != nil {
		t.Fatalf("append after truncate: %v", err)
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	if _, err := VerifyTenant(dir, nil); err != nil {
		t.Fatalf("verify: %v", err)
	}
}

// TestEmptySyncKeepsBuffersApart: a sync that finds nothing pending must
// still leave the append buffer and the recycled spare on different arrays.
// Otherwise the next group commit hands the flusher an array that appends
// keep writing into: here the failWrite hook, which runs between hashing a
// batch and writing it, appends seq 4 over the frames of seq 3, and replay
// loses acked records.
func TestEmptySyncKeepsBuffersApart(t *testing.T) {
	dir := t.TempDir()
	var l *Log
	arm := false
	l, err := Open(dir, Options{SyncInterval: time.Hour, failWrite: func() error {
		if arm {
			arm = false
			if _, err := appendRow(l, 4, []float64{4, 40}); err != nil {
				return err
			}
		}
		return nil
	}})
	if err != nil {
		t.Fatal(err)
	}
	for seq := uint64(1); seq <= 2; seq++ {
		if _, err := appendRow(l, seq, []float64{float64(seq), float64(10 * seq)}); err != nil {
			t.Fatalf("append %d: %v", seq, err)
		}
		if err := l.Sync(); err != nil {
			t.Fatalf("sync %d: %v", seq, err)
		}
	}
	if err := l.Sync(); err != nil {
		t.Fatalf("empty sync: %v", err)
	}
	if _, err := appendRow(l, 3, []float64{3, 30}); err != nil {
		t.Fatalf("append 3: %v", err)
	}
	arm = true
	if err := l.Sync(); err != nil {
		t.Fatalf("sync 3: %v", err)
	}
	if err := l.Close(); err != nil {
		t.Fatalf("close: %v", err)
	}
	seqs, _ := collect(t, dir, 1)
	if len(seqs) != 4 || seqs[0] != 1 || seqs[3] != 4 {
		t.Fatalf("replayed seqs %v, want 1..4", seqs)
	}
}
