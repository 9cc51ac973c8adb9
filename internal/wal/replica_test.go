package wal

import (
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// fetchFromDir serves segment bytes the way the primary's replication
// endpoint does: the file's contents from an absolute offset.
func fetchFromDir(dir string) func(name string, from int64) ([]byte, error) {
	return func(name string, from int64) ([]byte, error) {
		data, err := os.ReadFile(filepath.Join(dir, name))
		if err != nil {
			return nil, err
		}
		if from > int64(len(data)) {
			return nil, fmt.Errorf("offset %d past end %d", from, len(data))
		}
		return data[from:], nil
	}
}

func primaryAppend(t *testing.T, l *Log, from uint64, n int) uint64 {
	t.Helper()
	for i := 0; i < n; i++ {
		if _, err := appendRow(l, from, []float64{float64(from), float64(from) * 0.5}); err != nil {
			t.Fatalf("append %d: %v", from, err)
		}
		from++
	}
	return from
}

func TestReplicaMirrorsPrimaryIncrementally(t *testing.T) {
	key := []byte("repl-key")
	pdir := filepath.Join(t.TempDir(), "t1")
	rdir := filepath.Join(t.TempDir(), "t1")
	l, err := Open(pdir, Options{SegmentBytes: 200, Key: key})
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	seq := primaryAppend(t, l, 1, 8)

	rep := NewReplica(rdir, key)
	st1, err := syncFrom(l, rep, pdir)
	if err != nil {
		t.Fatalf("first sync: %v", err)
	}
	if st1.SegmentsFetched == 0 || st1.BytesFetched == 0 {
		t.Fatalf("first sync fetched nothing: %+v", st1)
	}
	if st1.DurableSeq != seq-1 {
		t.Fatalf("DurableSeq = %d, want %d", st1.DurableSeq, seq-1)
	}
	assertMirror(t, rdir, key, seq-1)

	// Steady state: nothing new on the primary → nothing fetched.
	st2, err := syncFrom(l, rep, pdir)
	if err != nil {
		t.Fatalf("idle sync: %v", err)
	}
	if st2.BytesFetched != 0 {
		t.Fatalf("idle sync fetched %d bytes, want 0", st2.BytesFetched)
	}

	// Incremental: new appends cost only the delta, not a refetch.
	seq = primaryAppend(t, l, seq, 5)
	st3, err := syncFrom(l, rep, pdir)
	if err != nil {
		t.Fatalf("incremental sync: %v", err)
	}
	if st3.BytesFetched == 0 || st3.BytesFetched >= st1.BytesFetched {
		t.Fatalf("incremental sync fetched %d bytes, want a delta smaller than the initial %d", st3.BytesFetched, st1.BytesFetched)
	}
	assertMirror(t, rdir, key, seq-1)

	// Truncation propagates: the primary retires sealed segments, the next
	// round's head raises the base and the replica prunes the same files.
	if err := l.Truncate(6); err != nil {
		t.Fatal(err)
	}
	if _, err := syncFrom(l, rep, pdir); err != nil {
		t.Fatalf("sync after truncate: %v", err)
	}
	psegs, _ := listSegments(pdir)
	rsegs, _ := listSegments(rdir)
	if len(rsegs) != len(psegs) {
		t.Fatalf("replica holds %d segments after truncation, primary %d", len(rsegs), len(psegs))
	}
	rep2, err := VerifyTenant(rdir, key)
	if err != nil {
		t.Fatalf("verify after truncation: %v", err)
	}
	if rep2.Retired == 0 {
		t.Fatal("replica head did not pick up the raised chain base")
	}
}

// syncFrom snapshots the primary and runs one replica round against it.
func syncFrom(l *Log, rep *Replica, pdir string) (SyncStats, error) {
	st, err := l.ReplState()
	if err != nil {
		return SyncStats{}, err
	}
	return rep.Sync(st.Head, st.Segments, fetchFromDir(pdir))
}

// assertMirror audits the replica directory and replays it fully.
func assertMirror(t *testing.T, rdir string, key []byte, wantThrough uint64) {
	t.Helper()
	rep, err := VerifyTenant(rdir, key)
	if err != nil {
		t.Fatalf("verify replica: %v", err)
	}
	if rep.DurableThrough != wantThrough {
		t.Fatalf("replica DurableThrough = %d, want %d", rep.DurableThrough, wantThrough)
	}
	var seqs []uint64
	if _, err := Replay(rdir, 1, func(seq uint64, values []float64) error {
		seqs = append(seqs, seq)
		return nil
	}); err != nil {
		t.Fatalf("replay replica: %v", err)
	}
	if len(seqs) == 0 || seqs[len(seqs)-1] != wantThrough {
		t.Fatalf("replica replays through %v, want %d", seqs, wantThrough)
	}
}

func TestReplicaRejectsTamperedFetch(t *testing.T) {
	key := []byte("repl-key")
	pdir := filepath.Join(t.TempDir(), "t1")
	rdir := filepath.Join(t.TempDir(), "t1")
	l, err := Open(pdir, Options{Key: key})
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	primaryAppend(t, l, 1, 4)
	st, err := l.ReplState()
	if err != nil {
		t.Fatal(err)
	}

	rep := NewReplica(rdir, key)
	honest := fetchFromDir(pdir)
	for _, flipAt := range []int{len(segMagic) + 2, 40} {
		tampered := func(name string, from int64) ([]byte, error) {
			data, err := honest(name, from)
			if err != nil {
				return nil, err
			}
			if int(from)+len(data) > flipAt && flipAt >= int(from) {
				data[flipAt-int(from)] ^= 0x01
			}
			return data, nil
		}
		if _, err := rep.Sync(st.Head, st.Segments, tampered); err == nil {
			t.Fatalf("sync with byte %d flipped in transit succeeded", flipAt)
		}
		// Nothing unverified was persisted: the directory is still only the
		// (possibly empty) verified prefix.
		if segs, _ := listSegments(rdir); len(segs) != 0 {
			t.Fatalf("tampered round left %d segment files on disk", len(segs))
		}
	}
	// The same replica recovers with an honest transport.
	if _, err := rep.Sync(st.Head, st.Segments, honest); err != nil {
		t.Fatalf("honest sync after tampered rounds: %v", err)
	}
	assertMirror(t, rdir, key, 4)
}

func TestReplicaRejectsForgedHead(t *testing.T) {
	pdir := filepath.Join(t.TempDir(), "t1")
	rdir := filepath.Join(t.TempDir(), "t1")
	l, err := Open(pdir, Options{Key: []byte("the-real-key")})
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	primaryAppend(t, l, 1, 2)
	st, err := l.ReplState()
	if err != nil {
		t.Fatal(err)
	}
	rep := NewReplica(rdir, []byte("a-different-key"))
	if _, err := rep.Sync(st.Head, st.Segments, fetchFromDir(pdir)); err == nil {
		t.Fatal("replica accepted a head signed under a different key")
	}
	// A manifest listing a segment the head does not explain is rejected too.
	rep2 := NewReplica(rdir, []byte("the-real-key"))
	extra := append(append([]SegmentInfo(nil), st.Segments...),
		SegmentInfo{Name: segmentName(900), FirstSeq: 900, Size: int64(len(segMagic))})
	if _, err := rep2.Sync(st.Head, extra, fetchFromDir(pdir)); err == nil || !errors.Is(err, ErrCorrupt) {
		t.Fatalf("unsigned extra segment: err = %v, want ErrCorrupt", err)
	}
}

func TestReplicaRejectsStaleManifest(t *testing.T) {
	key := []byte("repl-key")
	pdir := filepath.Join(t.TempDir(), "t1")
	rdir := filepath.Join(t.TempDir(), "t1")
	l, err := Open(pdir, Options{Key: key})
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	primaryAppend(t, l, 1, 3)
	old, err := l.ReplState()
	if err != nil {
		t.Fatal(err)
	}
	oldFetch := make(map[string][]byte)
	for _, sg := range old.Segments {
		data, err := os.ReadFile(filepath.Join(pdir, sg.Name))
		if err != nil {
			t.Fatal(err)
		}
		oldFetch[sg.Name] = data
	}
	primaryAppend(t, l, 4, 3)

	rep := NewReplica(rdir, key)
	if _, err := syncFrom(l, rep, pdir); err != nil {
		t.Fatalf("sync to fresh state: %v", err)
	}
	// Replaying the older snapshot (e.g. a lagging proxy, or a primary rolled
	// back behind the replica) must be refused, not silently regress.
	_, err = rep.Sync(old.Head, old.Segments, func(name string, from int64) ([]byte, error) {
		return oldFetch[name][from:], nil
	})
	if err == nil || !strings.Contains(err.Error(), "regresses") {
		t.Fatalf("stale manifest: err = %v, want durable-seq regression refusal", err)
	}
	assertMirror(t, rdir, key, 6)
}

func TestReplicaRestartRescansAndHealsTornTail(t *testing.T) {
	key := []byte("repl-key")
	pdir := filepath.Join(t.TempDir(), "t1")
	rdir := filepath.Join(t.TempDir(), "t1")
	l, err := Open(pdir, Options{Key: key})
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	seq := primaryAppend(t, l, 1, 5)
	if _, err := syncFrom(l, NewReplica(rdir, key), pdir); err != nil {
		t.Fatal(err)
	}

	// Crash-torn tail on the replica: garbage appended past the last commit
	// (a WriteAt that died before its fsync). A fresh Replica — cold cache,
	// as after a process restart — must heal it and converge.
	active := segmentName(1)
	f, err := os.OpenFile(filepath.Join(rdir, active), os.O_APPEND|os.O_WRONLY, 0o644)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.Write([]byte{0xde, 0xad, 0xbe, 0xef, 0x01}); err != nil {
		t.Fatal(err)
	}
	f.Close()

	seq = primaryAppend(t, l, seq, 2)
	rep := NewReplica(rdir, key)
	if _, err := syncFrom(l, rep, pdir); err != nil {
		t.Fatalf("sync over torn tail: %v", err)
	}
	assertMirror(t, rdir, key, seq-1)
}
