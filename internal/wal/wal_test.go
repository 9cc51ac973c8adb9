package wal

import (
	"bytes"
	"encoding/binary"
	"errors"
	"hash/crc32"
	"math"
	"os"
	"path/filepath"
	"testing"
	"time"

	"tkcm/internal/durable"
)

// collect replays dir from fromSeq into memory.
func collect(t *testing.T, dir string, fromSeq uint64) (seqs []uint64, rows [][]float64) {
	t.Helper()
	_, err := Replay(dir, fromSeq, func(seq uint64, values []float64) error {
		seqs = append(seqs, seq)
		rows = append(rows, append([]float64(nil), values...))
		return nil
	})
	if err != nil {
		t.Fatalf("replay: %v", err)
	}
	return seqs, rows
}

// appendRow appends one row as a one-row AppendBatch (a plain record).
func appendRow(l *Log, seq uint64, values []float64) (Commit, error) {
	return l.AppendBatch(seq, [][]float64{values})
}

// listSegments returns dir's segments on the host FS, sorted by first seq.
func listSegments(dir string) ([]segment, error) {
	segs, _, err := listLogDir(durable.OS{}, dir)
	return segs, err
}

func TestAppendReplayRoundtrip(t *testing.T) {
	dir := t.TempDir()
	l, err := Open(dir, Options{SyncInterval: time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	want := [][]float64{
		{1, 2, 3},
		{4, math.NaN(), 6},
		{},
		{7.5},
	}
	var commits []Commit
	for i, row := range want {
		c, err := appendRow(l, uint64(i+1), row)
		if err != nil {
			t.Fatalf("append %d: %v", i, err)
		}
		commits = append(commits, c)
	}
	for i, c := range commits {
		if err := c.Wait(); err != nil {
			t.Fatalf("commit %d: %v", i, err)
		}
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}

	seqs, rows := collect(t, dir, 1)
	if len(rows) != len(want) {
		t.Fatalf("replayed %d rows, want %d", len(rows), len(want))
	}
	for i := range want {
		if seqs[i] != uint64(i+1) {
			t.Fatalf("row %d: seq %d, want %d", i, seqs[i], i+1)
		}
		if len(rows[i]) != len(want[i]) {
			t.Fatalf("row %d: %d values, want %d", i, len(rows[i]), len(want[i]))
		}
		for j := range want[i] {
			if math.IsNaN(want[i][j]) != math.IsNaN(rows[i][j]) ||
				(!math.IsNaN(want[i][j]) && rows[i][j] != want[i][j]) {
				t.Fatalf("row %d value %d: got %v, want %v", i, j, rows[i][j], want[i][j])
			}
		}
	}
}

func TestAppendEnforcesSequence(t *testing.T) {
	dir := t.TempDir()
	l, err := Open(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	if _, err := appendRow(l, 5, []float64{1}); !errors.Is(err, ErrOutOfOrder) {
		t.Fatalf("append seq 5 on fresh log: err = %v, want ErrOutOfOrder", err)
	}
	if _, err := appendRow(l, 1, []float64{1}); err != nil {
		t.Fatal(err)
	}
	if _, err := appendRow(l, 1, []float64{1}); !errors.Is(err, ErrOutOfOrder) {
		t.Fatalf("duplicate seq: err = %v, want ErrOutOfOrder", err)
	}
	if err := l.SetNextSeq(1); !errors.Is(err, ErrOutOfOrder) {
		t.Fatalf("lowering next seq: err = %v, want ErrOutOfOrder", err)
	}
	if err := l.SetNextSeq(100); err != nil {
		t.Fatal(err)
	}
	if _, err := appendRow(l, 100, []float64{2}); err != nil {
		t.Fatal(err)
	}
}

func TestReopenContinuesSequence(t *testing.T) {
	dir := t.TempDir()
	l, err := Open(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	for i := 1; i <= 10; i++ {
		if _, err := appendRow(l, uint64(i), []float64{float64(i)}); err != nil {
			t.Fatal(err)
		}
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	l, err = Open(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if got := l.NextSeq(); got != 11 {
		t.Fatalf("reopened NextSeq = %d, want 11", got)
	}
	if _, err := appendRow(l, 11, []float64{11}); err != nil {
		t.Fatal(err)
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	seqs, _ := collect(t, dir, 1)
	if len(seqs) != 11 || seqs[10] != 11 {
		t.Fatalf("replayed seqs %v, want 1..11", seqs)
	}
}

func TestRotationAndTruncate(t *testing.T) {
	dir := t.TempDir()
	// Tiny segments: every few records rotate.
	l, err := Open(dir, Options{SegmentBytes: 128})
	if err != nil {
		t.Fatal(err)
	}
	const n = 50
	for i := 1; i <= n; i++ {
		if _, err := appendRow(l, uint64(i), []float64{float64(i), float64(-i)}); err != nil {
			t.Fatal(err)
		}
	}
	if segs := l.Segments(); segs < 3 {
		t.Fatalf("expected multiple segments, got %d", segs)
	}
	seqs, _ := collect(t, dir, 1)
	if len(seqs) != n {
		t.Fatalf("replayed %d rows across segments, want %d", len(seqs), n)
	}

	// Truncating at seq 30 must drop early segments but keep everything > 30.
	before := l.Segments()
	if err := l.Truncate(30); err != nil {
		t.Fatal(err)
	}
	if after := l.Segments(); after >= before {
		t.Fatalf("truncate reclaimed nothing: %d -> %d segments", before, after)
	}
	seqs, _ = collect(t, dir, 31)
	if len(seqs) == 0 || seqs[0] != 31 || seqs[len(seqs)-1] != n {
		t.Fatalf("post-truncate replay from 31: seqs %v", seqs)
	}
	// Records below the truncation point that share a surviving segment may
	// remain; a replay from 1 must still be contiguous from its first seq.
	if _, err := Replay(dir, 1, func(uint64, []float64) error { return nil }); err != nil {
		t.Fatalf("full replay after truncate: %v", err)
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
}

func TestTornFinalRecordIsHealed(t *testing.T) {
	dir := t.TempDir()
	l, err := Open(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	for i := 1; i <= 5; i++ {
		if _, err := appendRow(l, uint64(i), []float64{float64(i)}); err != nil {
			t.Fatal(err)
		}
	}
	// Abandon the log WITHOUT Close — a crash. (A clean Close anchors the
	// durable watermark in the head, after which a shortened segment is
	// tampering, not a torn tail, and is rejected as ErrCorrupt.)

	// Tear the tail: chop a few bytes off the segment, shearing the last
	// commit frame mid-write.
	segs, err := listSegments(dir)
	if err != nil || len(segs) != 1 {
		t.Fatalf("segments: %v, %v", segs, err)
	}
	path := filepath.Join(dir, segs[0].name)
	fi, err := os.Stat(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.Truncate(path, fi.Size()-5); err != nil {
		t.Fatal(err)
	}

	// Replay tolerates the torn tail: rows 1..4 survive, row 5 is gone.
	seqs, _ := collect(t, dir, 1)
	if len(seqs) != 4 || seqs[3] != 4 {
		t.Fatalf("replay after torn tail: seqs %v, want 1..4", seqs)
	}

	// Reopen heals the tail and appending seq 5 again works.
	l, err = Open(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if got := l.NextSeq(); got != 5 {
		t.Fatalf("NextSeq after torn tail = %d, want 5", got)
	}
	if _, err := appendRow(l, 5, []float64{55}); err != nil {
		t.Fatal(err)
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	seqs, rows := collect(t, dir, 1)
	if len(seqs) != 5 || rows[4][0] != 55 {
		t.Fatalf("replay after heal: seqs %v rows %v", seqs, rows)
	}
}

func TestCorruptMidSegmentFailsReplay(t *testing.T) {
	dir := t.TempDir()
	// Force several segments, then flip a payload byte in the FIRST one:
	// acknowledged data in later segments becomes unreachable, which must be
	// an error, not a silent skip.
	l, err := Open(dir, Options{SegmentBytes: 128})
	if err != nil {
		t.Fatal(err)
	}
	for i := 1; i <= 40; i++ {
		if _, err := appendRow(l, uint64(i), []float64{float64(i)}); err != nil {
			t.Fatal(err)
		}
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	segs, err := listSegments(dir)
	if err != nil || len(segs) < 2 {
		t.Fatalf("want ≥2 segments, got %v (%v)", segs, err)
	}
	path := filepath.Join(dir, segs[0].name)
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	data[len(data)-1] ^= 0xff
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}
	_, err = Replay(dir, 1, func(uint64, []float64) error { return nil })
	if !errors.Is(err, ErrCorrupt) {
		t.Fatalf("replay over corrupt first segment: err = %v, want ErrCorrupt", err)
	}
	// A replay starting past the corrupt segment still works.
	if _, err := Replay(dir, segs[1].firstSeq, func(uint64, []float64) error { return nil }); err != nil {
		t.Fatalf("replay from %d: %v", segs[1].firstSeq, err)
	}
}

func TestGroupCommitBatchesSyncs(t *testing.T) {
	dir := t.TempDir()
	m := NewManager(dir, Options{SyncInterval: 20 * time.Millisecond})
	l, err := m.Open("t")
	if err != nil {
		t.Fatal(err)
	}
	const n = 100
	commits := make([]Commit, 0, n)
	for i := 1; i <= n; i++ {
		c, err := appendRow(l, uint64(i), []float64{1})
		if err != nil {
			t.Fatal(err)
		}
		commits = append(commits, c)
	}
	for _, c := range commits {
		if err := c.Wait(); err != nil {
			t.Fatal(err)
		}
	}
	st := m.Stats()
	if st.Appends != n {
		t.Fatalf("appends = %d, want %d", st.Appends, n)
	}
	// All appends landed within one 20ms window, so the batch count must be
	// far below the record count (tolerate a few windows for slow CI).
	if st.Syncs >= n/2 {
		t.Fatalf("group commit did not batch: %d syncs for %d appends", st.Syncs, n)
	}
	if err := m.Close(); err != nil {
		t.Fatal(err)
	}
}

// TestEncodeBuffersFollowRecentCommits: after one large group commit, a few
// small ones leave both encode buffers near the small commits' size, because
// a written buffer that carried less than a quarter of its capacity is
// dropped, not recycled. A run of equal large commits keeps its two buffers:
// their capacities do not drop from one sync to the next.
func TestEncodeBuffersFollowRecentCommits(t *testing.T) {
	l, err := Open(t.TempDir(), Options{}) // strict: every append is one commit
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	batch := func(rows, width int) [][]float64 {
		b := make([][]float64, rows)
		for i := range b {
			b[i] = make([]float64, width)
		}
		return b
	}
	// commit appends one batch and returns the bytes its sync wrote and the
	// two buffers' capacities, smaller first.
	seq := uint64(1)
	commit := func(b [][]float64) (written int64, caps [2]int) {
		t.Helper()
		l.syncMu.Lock()
		before := l.segSize
		l.syncMu.Unlock()
		if _, err := l.AppendBatch(seq, b); err != nil {
			t.Fatalf("append %d: %v", seq, err)
		}
		seq += uint64(len(b))
		l.syncMu.Lock()
		l.mu.Lock()
		written = l.segSize - before
		caps = [2]int{min(cap(l.buf), cap(l.spare)), max(cap(l.buf), cap(l.spare))}
		l.mu.Unlock()
		l.syncMu.Unlock()
		return written, caps
	}

	if _, caps := commit(batch(256, 16)); caps[1] < 32<<10 {
		t.Fatalf("a 256×16 commit left buffers of %v bytes, want one ≥ 32 KiB", caps)
	}
	var written int64
	var caps [2]int
	for i := 0; i < 4; i++ {
		written, caps = commit(batch(1, 16))
	}
	if bound := max(spareFloor, 4*int(written)); caps[1] > bound {
		t.Fatalf("after small commits of %d bytes the buffers hold %v bytes, want ≤ %d each", written, caps, bound)
	}

	var prev [2]int
	for i := 0; i < 8; i++ {
		written, caps = commit(batch(64, 16))
		if i >= 1 && caps[0] < int(written) {
			t.Fatalf("commit %d: buffers of %v bytes for %d-byte commits", i, caps, written)
		}
		if i >= 2 && (caps[0] < prev[0] || caps[1] < prev[1]) {
			t.Fatalf("commit %d: buffer capacities dropped from %v to %v between equal %d-byte commits", i, prev, caps, written)
		}
		prev = caps
	}
}

func TestManagerRemoveDeletesDir(t *testing.T) {
	dir := t.TempDir()
	m := NewManager(dir, Options{})
	l, err := m.Open("gone")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := appendRow(l, 1, []float64{1}); err != nil {
		t.Fatal(err)
	}
	if err := m.Remove("gone"); err != nil {
		t.Fatal(err)
	}
	if _, err := os.Stat(filepath.Join(dir, "gone")); !os.IsNotExist(err) {
		t.Fatalf("tenant dir survived Remove: %v", err)
	}
	if err := m.Remove("never-existed"); err != nil {
		t.Fatalf("removing unknown tenant: %v", err)
	}
	tenants, err := m.Tenants()
	if err != nil || len(tenants) != 0 {
		t.Fatalf("tenants after remove: %v (%v)", tenants, err)
	}
	m.Close()
}

// TestTornTailBadLength covers a tear that lands in the framing itself,
// leaving an implausible length field rather than a short read.
func TestTornTailBadLength(t *testing.T) {
	dir := t.TempDir()
	l, err := Open(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := appendRow(l, 1, []float64{1, 2}); err != nil {
		t.Fatal(err)
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	segs, _ := listSegments(dir)
	path := filepath.Join(dir, segs[0].name)
	f, err := os.OpenFile(path, os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		t.Fatal(err)
	}
	// Garbage header claiming a huge payload.
	var hdr [8]byte
	binary.LittleEndian.PutUint32(hdr[0:4], 1<<31)
	if _, err := f.Write(hdr[:]); err != nil {
		t.Fatal(err)
	}
	f.Close()

	seqs, _ := collect(t, dir, 1)
	if len(seqs) != 1 {
		t.Fatalf("replay past bad-length tail: seqs %v, want just 1", seqs)
	}
	l, err = Open(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if got := l.NextSeq(); got != 2 {
		t.Fatalf("NextSeq = %d, want 2", got)
	}
	l.Close()
}

// TestSetNextSeqReopenPreservesAckedRecords pins the checkpoint-newer-than-
// log recovery path: raising the sequence past the tail of a NON-empty
// active segment (e.g. after a kill -9 between a checkpoint rename and the
// covering fsync) must not leave a sequence gap inside that segment — the
// next Open would read the jump as a torn tail and truncate every record
// after it, silently dropping fsynced, acknowledged ticks.
func TestSetNextSeqReopenPreservesAckedRecords(t *testing.T) {
	dir := t.TempDir()
	l, err := Open(dir, Options{}) // strict: every append is synced
	if err != nil {
		t.Fatal(err)
	}
	for i := 1; i <= 3; i++ {
		if _, err := appendRow(l, uint64(i), []float64{float64(i)}); err != nil {
			t.Fatal(err)
		}
	}
	// A checkpoint covering seq 99 justified the jump.
	if err := l.SetNextSeq(100); err != nil {
		t.Fatal(err)
	}
	if segs := l.Segments(); segs != 2 {
		t.Fatalf("segments after raise over non-empty tail = %d, want 2 (rotation)", segs)
	}
	for i := 100; i <= 102; i++ {
		if _, err := appendRow(l, uint64(i), []float64{float64(i)}); err != nil {
			t.Fatal(err)
		}
	}
	if got := l.DurableThrough(); got != 102 {
		t.Fatalf("DurableThrough = %d, want 102", got)
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}

	// Reopen: nothing acked may have been truncated away.
	l, err = Open(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if got := l.NextSeq(); got != 103 {
		t.Fatalf("reopened NextSeq = %d, want 103", got)
	}
	if _, err := appendRow(l, 103, []float64{103}); err != nil {
		t.Fatal(err)
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	// Replay from the checkpoint boundary — the only fromSeq recovery uses.
	seqs, rows := collect(t, dir, 100)
	if len(seqs) != 4 || seqs[0] != 100 || seqs[3] != 103 || rows[3][0] != 103 {
		t.Fatalf("replay from 100 after reopen: seqs %v", seqs)
	}
	// The pre-jump records also survived in their own segment.
	seqs, _ = collect(t, dir, 101)
	if len(seqs) != 3 {
		t.Fatalf("replay from 101: seqs %v", seqs)
	}
}

// TestSetNextSeqEmptySegmentNoRotation: raising inside an empty active
// segment needs no new file — the segment name is only a lower bound.
func TestSetNextSeqEmptySegmentNoRotation(t *testing.T) {
	dir := t.TempDir()
	l, err := Open(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if err := l.SetNextSeq(50); err != nil {
		t.Fatal(err)
	}
	if segs := l.Segments(); segs != 1 {
		t.Fatalf("segments after raise in empty log = %d, want 1", segs)
	}
	if _, err := appendRow(l, 50, []float64{1}); err != nil {
		t.Fatal(err)
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	l, err = Open(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if got := l.NextSeq(); got != 51 {
		t.Fatalf("reopened NextSeq = %d, want 51", got)
	}
	l.Close()
}

// TestDurableCommitVerifies: the duplicate-ack handle forces the pending
// batch out when the seq is not yet covered, and refuses to promise
// durability for a record the log never made stable.
func TestDurableCommitVerifies(t *testing.T) {
	dir := t.TempDir()
	// A long interval so the batch is still pending when Wait runs.
	l, err := Open(dir, Options{SyncInterval: time.Hour})
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	if _, err := appendRow(l, 1, []float64{1}); err != nil {
		t.Fatal(err)
	}
	if got := l.DurableThrough(); got != 0 {
		t.Fatalf("DurableThrough before sync = %d, want 0", got)
	}
	if err := l.DurableCommit(1).Wait(); err != nil {
		t.Fatalf("DurableCommit(1).Wait: %v", err)
	}
	if got := l.DurableThrough(); got != 1 {
		t.Fatalf("DurableThrough after verify = %d, want 1", got)
	}
	// Already-covered seqs wait for nothing and never error.
	if err := l.DurableCommit(1).Wait(); err != nil {
		t.Fatal(err)
	}
	// A seq the log has never seen cannot be promised durable.
	if err := l.DurableCommit(5).Wait(); err == nil {
		t.Fatal("DurableCommit(5).Wait() = nil for a record that was never appended")
	}
}

// TestReplayDetectsMissingMiddleSegment: a deleted middle segment is a hole
// in acked history, never a silent skip.
func TestReplayDetectsMissingMiddleSegment(t *testing.T) {
	dir := t.TempDir()
	l, err := Open(dir, Options{SegmentBytes: 128})
	if err != nil {
		t.Fatal(err)
	}
	for i := 1; i <= 40; i++ {
		if _, err := appendRow(l, uint64(i), []float64{float64(i)}); err != nil {
			t.Fatal(err)
		}
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	segs, err := listSegments(dir)
	if err != nil || len(segs) < 3 {
		t.Fatalf("want ≥3 segments, got %v (%v)", segs, err)
	}
	if err := os.Remove(filepath.Join(dir, segs[1].name)); err != nil {
		t.Fatal(err)
	}
	_, err = Replay(dir, 1, func(uint64, []float64) error { return nil })
	if !errors.Is(err, ErrCorrupt) {
		t.Fatalf("replay across a missing segment: err = %v, want ErrCorrupt", err)
	}
}

// TestAppendBatchReplayRoundtrip: a batch record replays as its individual
// rows — same seqs, same values — indistinguishable from per-row appends,
// including when plain and batch records interleave in one segment.
func TestAppendBatchReplayRoundtrip(t *testing.T) {
	dir := t.TempDir()
	l, err := Open(dir, Options{SyncInterval: time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := appendRow(l, 1, []float64{1, -1}); err != nil {
		t.Fatal(err)
	}
	c, err := l.AppendBatch(2, [][]float64{{2, -2}, {3, math.NaN()}, {4, -4}})
	if err != nil {
		t.Fatal(err)
	}
	if err := c.Wait(); err != nil {
		t.Fatal(err)
	}
	if _, err := appendRow(l, 5, []float64{5, -5}); err != nil {
		t.Fatal(err)
	}
	if _, err := l.AppendBatch(6, [][]float64{{6, -6}, {7, -7}}); err != nil {
		t.Fatal(err)
	}
	if got := l.NextSeq(); got != 8 {
		t.Fatalf("NextSeq after batches = %d, want 8", got)
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}

	seqs, rows := collect(t, dir, 1)
	if len(seqs) != 7 {
		t.Fatalf("replayed %d rows, want 7 (seqs %v)", len(seqs), seqs)
	}
	for i, seq := range seqs {
		if seq != uint64(i+1) {
			t.Fatalf("row %d: seq %d, want %d", i, seq, i+1)
		}
		if len(rows[i]) != 2 || rows[i][0] != float64(i+1) {
			t.Fatalf("row %d: values %v", i, rows[i])
		}
		if i == 2 {
			if !math.IsNaN(rows[i][1]) {
				t.Fatalf("row 3 second value %v, want NaN", rows[i][1])
			}
		} else if rows[i][1] != -float64(i+1) {
			t.Fatalf("row %d second value %v, want %v", i, rows[i][1], -float64(i+1))
		}
	}

	// Replay from the middle of a batch record delivers only the tail rows.
	seqs, _ = collect(t, dir, 3)
	if len(seqs) != 5 || seqs[0] != 3 {
		t.Fatalf("replay from 3: seqs %v, want 3..7", seqs)
	}

	// Reopen continues the sequence past the batched rows.
	l, err = Open(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if got := l.NextSeq(); got != 8 {
		t.Fatalf("reopened NextSeq = %d, want 8", got)
	}
	l.Close()
}

// TestAppendBatchValidates: sequence, shape, and emptiness checks reject the
// batch without mutating the log.
func TestAppendBatchValidates(t *testing.T) {
	dir := t.TempDir()
	l, err := Open(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	if _, err := l.AppendBatch(1, nil); err == nil {
		t.Fatal("empty batch accepted")
	}
	if _, err := l.AppendBatch(2, [][]float64{{1}}); !errors.Is(err, ErrOutOfOrder) {
		t.Fatalf("batch at seq 2 on fresh log: err = %v, want ErrOutOfOrder", err)
	}
	if _, err := l.AppendBatch(1, [][]float64{{1, 2}, {3}}); err == nil {
		t.Fatal("ragged batch accepted")
	}
	if got := l.NextSeq(); got != 1 {
		t.Fatalf("NextSeq moved to %d by rejected batches", got)
	}
	// A single-row batch is a plain append on disk and in sequence terms.
	if _, err := l.AppendBatch(1, [][]float64{{9}}); err != nil {
		t.Fatal(err)
	}
	if got := l.NextSeq(); got != 2 {
		t.Fatalf("NextSeq after 1-row batch = %d, want 2", got)
	}
}

// TestAppendBatchFrameBytes pins the on-disk record bytes against frames
// encoded by hand from the documented layout: a one-row AppendBatch writes
// the plain record (count = width, no batch flag), two rows write one batch
// record. Pinning the bytes, not just the replay, keeps logs readable in
// both directions across builds.
func TestAppendBatchFrameBytes(t *testing.T) {
	le := binary.LittleEndian
	frame := func(payload []byte) []byte {
		f := le.AppendUint32(nil, uint32(len(payload)))
		f = le.AppendUint32(f, crc32.ChecksumIEEE(payload))
		return append(f, payload...)
	}
	floats := func(b []byte, vals ...float64) []byte {
		for _, v := range vals {
			b = le.AppendUint64(b, math.Float64bits(v))
		}
		return b
	}
	plain := le.AppendUint64(nil, 1)  // seq
	plain = le.AppendUint32(plain, 3) // count = width
	plain = floats(plain, 1.5, math.NaN(), -2)
	batch := le.AppendUint64(nil, 2)        // first row's seq
	batch = le.AppendUint32(batch, 3|1<<31) // width | batch flag
	batch = le.AppendUint32(batch, 2)       // rows
	batch = floats(batch, 4, 5, 6, math.NaN(), 8, 9)
	want := append([]byte("TKCMWAL1"), frame(plain)...)
	want = append(want, frame(batch)...)

	dir := t.TempDir()
	l, err := Open(dir, Options{SyncInterval: time.Hour})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := l.AppendBatch(1, [][]float64{{1.5, math.NaN(), -2}}); err != nil {
		t.Fatal(err)
	}
	if _, err := l.AppendBatch(2, [][]float64{{4, 5, 6}, {math.NaN(), 8, 9}}); err != nil {
		t.Fatal(err)
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	segs, err := listSegments(dir)
	if err != nil || len(segs) != 1 {
		t.Fatalf("segments %v, err %v; want one", segs, err)
	}
	got, err := os.ReadFile(filepath.Join(dir, segs[0].name))
	if err != nil {
		t.Fatal(err)
	}
	// The records are followed by the close's signed commit frame (see
	// merkle.go), which this test leaves to the integrity tests.
	if len(got) <= len(want) || !bytes.Equal(got[:len(want)], want) {
		t.Fatalf("segment bytes\n got %x\nwant %x + commit frame", got, want)
	}
	seqs, rows := collect(t, dir, 1)
	if len(seqs) != 3 || seqs[2] != 3 || rows[2][2] != 9 || !math.IsNaN(rows[2][0]) {
		t.Fatalf("replayed seqs %v rows %v", seqs, rows)
	}
}

// TestTornBatchTailIsHealed: a batch frame torn mid-write loses the WHOLE
// batch (it had one unacknowledged commit slot), and the log heals to the
// last complete record — exactly the single-record torn-tail contract.
func TestTornBatchTailIsHealed(t *testing.T) {
	dir := t.TempDir()
	l, err := Open(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	for i := 1; i <= 3; i++ {
		if _, err := appendRow(l, uint64(i), []float64{float64(i)}); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := l.AppendBatch(4, [][]float64{{4}, {5}, {6}}); err != nil {
		t.Fatal(err)
	}
	// Abandon WITHOUT Close — a crash (see TestTornFinalRecordIsHealed).
	segs, _ := listSegments(dir)
	path := filepath.Join(dir, segs[0].name)
	fi, err := os.Stat(path)
	if err != nil {
		t.Fatal(err)
	}
	// Chop into the batch's commit frame: the batch loses its covering
	// commit and with it the whole (never-acknowledged) batch.
	if err := os.Truncate(path, fi.Size()-9); err != nil {
		t.Fatal(err)
	}

	seqs, _ := collect(t, dir, 1)
	if len(seqs) != 3 || seqs[2] != 3 {
		t.Fatalf("replay after torn batch: seqs %v, want 1..3", seqs)
	}
	l, err = Open(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if got := l.NextSeq(); got != 4 {
		t.Fatalf("NextSeq after torn batch heal = %d, want 4", got)
	}
	// Re-appending the lost batch works and the log is whole again.
	if _, err := l.AppendBatch(4, [][]float64{{4}, {5}, {6}}); err != nil {
		t.Fatal(err)
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	seqs, rows := collect(t, dir, 1)
	if len(seqs) != 6 || rows[5][0] != 6 {
		t.Fatalf("replay after re-append: seqs %v", seqs)
	}
}

// TestAppendBatchDurability: DurableCommit covers every row of a synced
// batch, and a batch straddling rotation thresholds stays replayable.
func TestAppendBatchDurability(t *testing.T) {
	dir := t.TempDir()
	l, err := Open(dir, Options{SyncInterval: time.Hour, SegmentBytes: 256})
	if err != nil {
		t.Fatal(err)
	}
	batch := make([][]float64, 40)
	for i := range batch {
		batch[i] = []float64{float64(i + 1), float64(-(i + 1))}
	}
	if _, err := l.AppendBatch(1, batch); err != nil {
		t.Fatal(err)
	}
	if got := l.DurableThrough(); got != 0 {
		t.Fatalf("DurableThrough before sync = %d", got)
	}
	// DurableCommit must force the hour-long pending batch out and then
	// cover every row of it.
	if err := l.DurableCommit(40).Wait(); err != nil {
		t.Fatalf("DurableCommit(40): %v", err)
	}
	if got := l.DurableThrough(); got != 40 {
		t.Fatalf("DurableThrough = %d, want 40", got)
	}
	// More batches force rotation (one frame exceeds SegmentBytes).
	for seq := uint64(41); seq <= 200; seq += 40 {
		rows := make([][]float64, 40)
		for i := range rows {
			rows[i] = []float64{float64(seq) + float64(i)}
		}
		if _, err := l.AppendBatch(seq, rows); err != nil {
			t.Fatal(err)
		}
		if err := l.Sync(); err != nil {
			t.Fatal(err)
		}
	}
	if segs := l.Segments(); segs < 2 {
		t.Fatal("no rotation across the batched appends")
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	seqs, _ := collect(t, dir, 1)
	if len(seqs) != 200 || seqs[199] != 200 {
		t.Fatalf("replayed %d rows, want 200", len(seqs))
	}
}

// TestSetNextSeqOnEmptySegmentSurvivesClose: a raise inside an empty active
// segment is checkpoint-covered, not something the segments prove, so the
// head anchored at close must not claim it — a head claiming it reads as a
// truncated active segment, and every reader refuses the log.
func TestSetNextSeqOnEmptySegmentSurvivesClose(t *testing.T) {
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
	if err := l.SetNextSeq(20); err != nil {
		t.Fatal(err)
	}
	if err := l.Truncate(2); err != nil {
		t.Fatal(err)
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	if _, err := VerifyTenant(dir, nil); err != nil {
		t.Fatalf("audit after close: %v", err)
	}
	if seqs, _ := collect(t, dir, 1); len(seqs) != 1 || seqs[0] != 3 {
		t.Fatalf("replay after close: %v, want [3]", seqs)
	}
	l, err = Open(dir, Options{})
	if err != nil {
		t.Fatalf("reopen: %v", err)
	}
	if err := l.SetNextSeq(20); err != nil {
		t.Fatal(err)
	}
	if _, err := appendRow(l, 20, []float64{20}); err != nil {
		t.Fatal(err)
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	if seqs, _ := collect(t, dir, 20); len(seqs) != 1 || seqs[0] != 20 {
		t.Fatalf("replay from 20: %v, want [20]", seqs)
	}
}

// TestTornMagicIsHealed: a crash right after a rotation created the new
// active segment can tear its magic. Open must rewrite the magic, not
// extend the torn bytes with zeros, or every record appended after it is
// unreadable on the next open.
func TestTornMagicIsHealed(t *testing.T) {
	dir := filepath.Join(t.TempDir(), "t")
	l, err := Open(dir, Options{SegmentBytes: 64})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := appendRow(l, 1, []float64{1, 2}); err != nil {
		t.Fatal(err)
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	if err := os.Truncate(filepath.Join(dir, segmentName(2)), 3); err != nil {
		t.Fatal(err)
	}
	l, err = Open(dir, Options{})
	if err != nil {
		t.Fatalf("open over a torn magic: %v", err)
	}
	if _, err := appendRow(l, 2, []float64{3, 4}); err != nil {
		t.Fatal(err)
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	if seqs, _ := collect(t, dir, 1); len(seqs) != 2 || seqs[1] != 2 {
		t.Fatalf("replay after healing: %v, want [1 2]", seqs)
	}
	l, err = Open(dir, Options{})
	if err != nil {
		t.Fatalf("reopen: %v", err)
	}
	l.Close()
}
