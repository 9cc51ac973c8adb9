package wal

import (
	"errors"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"tkcm/internal/durable"
)

// The fault tests run a log over faultFS, which fails one file operation on
// demand, to exercise the fail-stop latch on every I/O edge the sync path
// has: once any write, fsync, rotation or head save fails, the log must
// refuse further appends, truncations and sequence changes — and what is
// already on disk must still audit clean.

// faultFS is the host FS with a hook that runs before the operations the
// fault tests fail or count: "create" (a file or a temp file), "write",
// "sync" (a file's or a directory's fsync), "rename" and "readdir", each
// with the path it acts on (a temp's pattern for "create", the target for
// "rename"). The hook's error is the operation's.
type faultFS struct {
	durable.OS
	hook func(op, path string) error
}

func (fs faultFS) OpenFile(name string, flag int, perm os.FileMode) (durable.File, error) {
	if flag&os.O_CREATE != 0 {
		if err := fs.hook("create", name); err != nil {
			return nil, err
		}
	}
	f, err := fs.OS.OpenFile(name, flag, perm)
	if err != nil {
		return nil, err
	}
	return faultFile{f, fs.hook}, nil
}

func (fs faultFS) CreateTemp(dir, pattern string) (durable.File, error) {
	if err := fs.hook("create", filepath.Join(dir, pattern)); err != nil {
		return nil, err
	}
	f, err := fs.OS.CreateTemp(dir, pattern)
	if err != nil {
		return nil, err
	}
	return faultFile{f, fs.hook}, nil
}

func (fs faultFS) Rename(oldpath, newpath string) error {
	if err := fs.hook("rename", newpath); err != nil {
		return err
	}
	return fs.OS.Rename(oldpath, newpath)
}

func (fs faultFS) ReadDir(name string) ([]os.DirEntry, error) {
	if err := fs.hook("readdir", name); err != nil {
		return nil, err
	}
	return fs.OS.ReadDir(name)
}

type faultFile struct {
	durable.File
	hook func(op, path string) error
}

func (f faultFile) Write(p []byte) (int, error) {
	if err := f.hook("write", f.Name()); err != nil {
		return 0, err
	}
	return f.File.Write(p)
}

func (f faultFile) Sync() error {
	if err := f.hook("sync", f.Name()); err != nil {
		return err
	}
	return f.File.Sync()
}

// failWhen returns an FS that fails op with err on every path match accepts
// while *armed holds.
func failWhen(armed *bool, op string, match func(path string) bool, err error) faultFS {
	return faultFS{hook: func(o, path string) error {
		if *armed && o == op && match(path) {
			return err
		}
		return nil
	}}
}

func isSegment(path string) bool { return strings.HasSuffix(path, segSuffix) }

func TestFailSyncLatchesLog(t *testing.T) {
	dir := t.TempDir()
	boom := errors.New("injected fsync failure")
	arm := false
	l, err := Open(dir, Options{FS: failWhen(&arm, "sync", isSegment, boom)})
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
	l, err := Open(dir, Options{FS: failWhen(&arm, "write", isSegment, boom)})
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
	l, err := Open(dir, Options{SegmentBytes: 64, FS: failWhen(&arm, "create", isSegment, boom)})
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
	isHeadTemp := func(path string) bool { return strings.Contains(path, HeadFileName) }
	l, err := Open(dir, Options{SegmentBytes: 64, FS: failWhen(&arm, "create", isHeadTemp, boom)})
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

// headSaveFaults are the two head-save steps after the temp is written: the
// rename over the head (the old head stays), and the directory fsync after
// it (the new head is in place, but the save reports failure).
var headSaveFaults = []struct {
	name    string
	op      string
	path    func(dir string) string // what the failing operation acts on
	renamed bool
}{
	{"rename", "rename", func(dir string) string { return filepath.Join(dir, HeadFileName) }, false},
	{"dirsync", "sync", func(dir string) string { return dir }, true},
}

// failHeadSave returns an FS that fails fault's step of every head save in
// dir with err while *armed holds.
func failHeadSave(armed *bool, dir string, fault int, err error) faultFS {
	f := headSaveFaults[fault]
	return failWhen(armed, f.op, func(path string) bool { return path == f.path(dir) }, err)
}

// TestFailedHeadRenameOrDirSyncDuringRotation: a rotation whose head save
// fails at the rename or the directory fsync latches the log, and a reopen
// loses no acked record. When the rename landed, the head names an active
// segment the rotation never created, and the reopen creates it.
func TestFailedHeadRenameOrDirSyncDuringRotation(t *testing.T) {
	for i, fault := range headSaveFaults {
		t.Run(fault.name, func(t *testing.T) {
			dir := filepath.Join(t.TempDir(), "t")
			boom := errors.New("injected head-save failure")
			arm := false
			l, err := Open(dir, Options{SegmentBytes: 64, FS: failHeadSave(&arm, dir, i, boom)})
			if err != nil {
				t.Fatal(err)
			}
			arm = true
			if _, err := appendRow(l, 1, []float64{1, 2, 3}); !errors.Is(err, boom) {
				t.Fatalf("append triggering the rotation: err = %v, want %v", err, boom)
			}
			if got := l.DurableThrough(); got != 1 {
				t.Fatalf("DurableThrough = %d, want 1 (the batch was synced before the rotation)", got)
			}
			if l.Failed() == nil {
				t.Fatal("log did not latch after the failed head save")
			}
			// Abandon without Close, as a crash would.
			l2, err := Open(dir, Options{})
			if err != nil {
				t.Fatalf("reopen: %v", err)
			}
			if _, err := os.Stat(filepath.Join(dir, segmentName(2))); fault.renamed && err != nil {
				t.Fatalf("reopen did not create the active segment the head names: %v", err)
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
			if seqs, _ := collect(t, dir, 1); len(seqs) != 2 || seqs[0] != 1 || seqs[1] != 2 {
				t.Fatalf("replayed seqs %v, want [1 2]", seqs)
			}
			if _, err := VerifyTenant(dir, nil); err != nil {
				t.Fatalf("verify after recovery: %v", err)
			}
		})
	}
}

// TestFailedHeadRenameOrDirSyncDuringTruncate: a truncation whose head save
// fails at the rename or the directory fsync unlinks nothing and does not
// latch, and the retry succeeds. A reopen instead of the retry finds the
// segments below a head whose rename landed as truncation leftovers, and
// removes them.
func TestFailedHeadRenameOrDirSyncDuringTruncate(t *testing.T) {
	for i, fault := range headSaveFaults {
		for _, retry := range []bool{true, false} {
			name := fault.name + "/reopen"
			if retry {
				name = fault.name + "/retry"
			}
			t.Run(name, func(t *testing.T) {
				dir := filepath.Join(t.TempDir(), "t")
				boom := errors.New("injected head-save failure")
				arm := false
				l, err := Open(dir, Options{SegmentBytes: 64, FS: failHeadSave(&arm, dir, i, boom)})
				if err != nil {
					t.Fatal(err)
				}
				for i := 1; i <= 6; i++ {
					if _, err := appendRow(l, uint64(i), []float64{float64(i), float64(i)}); err != nil {
						t.Fatalf("append %d: %v", i, err)
					}
				}
				before := l.Segments()
				arm = true
				if err := l.Truncate(3); !errors.Is(err, boom) {
					t.Fatalf("truncate: err = %v, want %v", err, boom)
				}
				arm = false
				if l.Failed() != nil {
					t.Fatalf("failed truncate latched the log: %v", l.Failed())
				}
				if got := l.Segments(); got != before {
					t.Fatalf("segments after failed truncate = %d, want %d (nothing unlinked)", got, before)
				}
				if retry {
					if err := l.Truncate(3); err != nil {
						t.Fatalf("retried truncate: %v", err)
					}
					if got := l.Segments(); got >= before {
						t.Fatalf("segments after retried truncate = %d, want < %d", got, before)
					}
					if err := l.Close(); err != nil {
						t.Fatal(err)
					}
				} else {
					// Abandon without Close, as a crash would.
					l2, err := Open(dir, Options{})
					if err != nil {
						t.Fatalf("reopen: %v", err)
					}
					got := l2.Segments()
					if fault.renamed && got >= before {
						t.Fatalf("segments after reopen = %d, want < %d (below-base leftovers removed)", got, before)
					}
					if !fault.renamed && got != before {
						t.Fatalf("segments after reopen = %d, want %d (the old head keeps them)", got, before)
					}
					if err := l2.Close(); err != nil {
						t.Fatal(err)
					}
				}
				rep, err := VerifyTenant(dir, nil)
				if err != nil {
					t.Fatalf("verify: %v", err)
				}
				if rep.DurableThrough != 6 {
					t.Fatalf("audited DurableThrough = %d, want 6", rep.DurableThrough)
				}
			})
		}
	}
}

// TestEmptySyncKeepsBuffersApart: a sync that finds nothing pending must
// still leave the append buffer and the recycled spare on different arrays.
// Otherwise the next group commit hands the flusher an array that appends
// keep writing into: here the segment write hook, which runs between
// hashing a batch and writing it, appends seq 4 over the frames of seq 3,
// and replay loses acked records.
func TestEmptySyncKeepsBuffersApart(t *testing.T) {
	dir := t.TempDir()
	var l *Log
	arm := false
	l, err := Open(dir, Options{SyncInterval: time.Hour, FS: faultFS{hook: func(op, path string) error {
		if arm && op == "write" && isSegment(path) {
			arm = false
			if _, err := appendRow(l, 4, []float64{4, 40}); err != nil {
				return err
			}
		}
		return nil
	}}})
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

// TestIdleCloseKeepsHead: Close saves the head only when the head it would
// write differs from the one on disk. An idle Open → Close leaves the head
// file itself in place (a hard link taken before still names it); after an
// append, Close anchors the new durable watermark.
func TestIdleCloseKeepsHead(t *testing.T) {
	dir := filepath.Join(t.TempDir(), "t")
	l, err := Open(dir, Options{SegmentBytes: 64}) // rotates after every record
	if err != nil {
		t.Fatal(err)
	}
	for seq := uint64(1); seq <= 3; seq++ {
		if _, err := appendRow(l, seq, []float64{float64(seq)}); err != nil {
			t.Fatal(err)
		}
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	head := filepath.Join(dir, HeadFileName)
	link := filepath.Join(filepath.Dir(dir), "head-link")
	if err := os.Link(head, link); err != nil {
		t.Fatal(err)
	}
	sameFile := func() bool {
		a, aerr := os.Stat(head)
		b, berr := os.Stat(link)
		if aerr != nil || berr != nil {
			t.Fatalf("stat: %v, %v", aerr, berr)
		}
		return os.SameFile(a, b)
	}
	if l, err = Open(dir, Options{}); err != nil {
		t.Fatal(err)
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	if !sameFile() {
		t.Fatal("an idle Open → Close rewrote the head")
	}
	if l, err = Open(dir, Options{}); err != nil {
		t.Fatal(err)
	}
	if _, err := appendRow(l, 4, []float64{4, 4}); err != nil {
		t.Fatal(err)
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	if sameFile() {
		t.Fatal("Close after an append kept the old head")
	}
	h, _, err := loadHead(durable.OS{}, dir)
	if err != nil {
		t.Fatal(err)
	}
	if h.durableSeq != 4 {
		t.Fatalf("head durable watermark = %d after Close, want 4", h.durableSeq)
	}
	if _, err := VerifyTenant(dir, nil); err != nil {
		t.Fatalf("verify: %v", err)
	}
}

// TestOpenReapsHeadTemps: a crash between a head save's temp create and its
// rename leaves the temp behind; Open removes it, reading the directory
// once.
func TestOpenReapsHeadTemps(t *testing.T) {
	dir := filepath.Join(t.TempDir(), "t")
	l, err := Open(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := appendRow(l, 1, []float64{1}); err != nil {
		t.Fatal(err)
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	tmp := filepath.Join(dir, HeadFileName+".tmp-123")
	if err := os.WriteFile(tmp, []byte("torn head"), 0o600); err != nil {
		t.Fatal(err)
	}
	reads := 0
	l, err = Open(dir, Options{FS: faultFS{hook: func(op, path string) error {
		if op == "readdir" {
			reads++
		}
		return nil
	}}})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := os.Stat(tmp); !errors.Is(err, os.ErrNotExist) {
		t.Fatalf("head temp survived Open (err = %v)", err)
	}
	if reads != 1 {
		t.Fatalf("Open read the directory %d times, want 1", reads)
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	if seqs, _ := collect(t, dir, 1); len(seqs) != 1 || seqs[0] != 1 {
		t.Fatalf("replayed seqs %v, want [1]", seqs)
	}
}
