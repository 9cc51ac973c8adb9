package wal

import (
	"math"
	"os"
	"path/filepath"
	"testing"
)

// walkSeedLog writes the keyed log FuzzWALReaders starts from into dir/t:
// sealed segments, an active one, and an un-fsynced torn tail after the
// close (a record frame's first bytes, as a crash mid-write leaves them).
func walkSeedLog(t testing.TB, dir string, key []byte) string {
	t.Helper()
	path := filepath.Join(dir, "t")
	l, err := Open(path, Options{SegmentBytes: 256, Key: key})
	if err != nil {
		t.Fatal(err)
	}
	seq := uint64(1)
	for i := 0; i < 10; i++ {
		if _, err := appendRow(l, seq, []float64{float64(seq), -float64(seq), 0.5}); err != nil {
			t.Fatal(err)
		}
		seq++
	}
	rows := [][]float64{{1, 2, 3}, {4, 5, 6}, {7, 8, 9}}
	if _, err := l.AppendBatch(seq, rows); err != nil {
		t.Fatal(err)
	}
	seq += uint64(len(rows))
	if _, err := appendRow(l, seq, []float64{math.Pi, math.E, 0}); err != nil {
		t.Fatal(err)
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	segs, err := listSegments(path)
	if err != nil || len(segs) < 3 {
		t.Fatalf("seed log has segments %v (%v), want sealed and active ones", segs, err)
	}
	f, err := os.OpenFile(filepath.Join(path, segs[len(segs)-1].name), os.O_WRONLY|os.O_APPEND, 0)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.Write([]byte{44, 0, 0, 0, 1, 2, 3, 4, 9, 9}); err != nil {
		t.Fatal(err)
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}
	return path
}

type walkedRecord struct {
	seq    uint64
	values []uint64 // bits, so NaNs compare too
}

func collectWalk(replay func(fn func(uint64, []float64) error) (uint64, error)) ([]walkedRecord, error) {
	var got []walkedRecord
	_, err := replay(func(seq uint64, values []float64) error {
		r := walkedRecord{seq: seq}
		for _, v := range values {
			r.values = append(r.values, math.Float64bits(v))
		}
		got = append(got, r)
		return nil
	})
	return got, err
}

// FuzzWALReaders mutates one segment of a keyed log — overwriting,
// truncating or extending its bytes — and runs every reader of the one walk
// over it. None may panic. Whatever the audit accepts, Replay accepts and
// delivers contiguously from seq 1 up to at most the audited DurableThrough,
// and Open accepts with ReplayTail delivering exactly what Replay delivered.
// Whatever Replay refuses, the audit refuses.
func FuzzWALReaders(f *testing.F) {
	key := []byte("fuzz-walk-key")
	seed := walkSeedLog(f, f.TempDir(), key)
	segs, err := listSegments(seed)
	if err != nil {
		f.Fatal(err)
	}
	f.Add(uint8(0), uint8(0), uint16(0), []byte{})             // pristine
	f.Add(uint8(0), uint8(0), uint16(28), []byte{0x40})        // a sealed record's value
	f.Add(uint8(len(segs)-1), uint8(1), uint16(8), []byte{})   // active segment cut to its magic
	f.Add(uint8(len(segs)-1), uint8(1), uint16(200), []byte{}) // active segment cut mid-frame
	f.Add(uint8(1), uint8(2), uint16(0), []byte{1, 2, 3})      // sealed segment extended
	f.Fuzz(func(t *testing.T, which, mode uint8, at uint16, data []byte) {
		dir := filepath.Join(t.TempDir(), "t")
		if err := os.Mkdir(dir, 0o755); err != nil {
			t.Fatal(err)
		}
		names := []string{HeadFileName}
		for _, s := range segs {
			names = append(names, s.name)
		}
		target := segs[int(which)%len(segs)].name
		for _, name := range names {
			raw, err := os.ReadFile(filepath.Join(seed, name))
			if err != nil {
				t.Fatal(err)
			}
			if name == target {
				off := min(int(at), len(raw))
				switch mode % 3 {
				case 0:
					n := copy(raw[off:], data)
					raw = append(raw, data[n:]...)
				case 1:
					raw = raw[:off]
				case 2:
					raw = append(raw, data...)
				}
			}
			if err := os.WriteFile(filepath.Join(dir, name), raw, 0o644); err != nil {
				t.Fatal(err)
			}
		}

		rep, verr := VerifyTenant(dir, key)
		replayed, rerr := collectWalk(func(fn func(uint64, []float64) error) (uint64, error) { return Replay(dir, 1, fn) })
		l, oerr := Open(dir, Options{Key: key})
		var tailed []walkedRecord
		var terr error
		if oerr == nil {
			tailed, terr = collectWalk(func(fn func(uint64, []float64) error) (uint64, error) { return l.ReplayTail(1, fn) })
			l.Close()
		}
		if verr != nil {
			return
		}
		if rerr != nil {
			t.Fatalf("audit accepted (durable through %d) but Replay refused: %v", rep.DurableThrough, rerr)
		}
		for i, r := range replayed {
			if r.seq != uint64(i)+1 {
				t.Fatalf("Replay delivered seq %d at position %d", r.seq, i)
			}
		}
		if n := uint64(len(replayed)); n > rep.DurableThrough {
			t.Fatalf("Replay delivered through seq %d, the audit proves only %d", n, rep.DurableThrough)
		}
		if oerr != nil {
			t.Fatalf("audit accepted but Open refused: %v", oerr)
		}
		if terr != nil {
			t.Fatalf("audit accepted but ReplayTail refused: %v", terr)
		}
		if len(tailed) != len(replayed) {
			t.Fatalf("ReplayTail delivered %d records, Replay %d", len(tailed), len(replayed))
		}
		for i := range replayed {
			a, b := replayed[i], tailed[i]
			if a.seq != b.seq || len(a.values) != len(b.values) {
				t.Fatalf("record %d: ReplayTail seq %d (%d values), Replay seq %d (%d values)", i, b.seq, len(b.values), a.seq, len(a.values))
			}
			for j := range a.values {
				if a.values[j] != b.values[j] {
					t.Fatalf("seq %d value %d: ReplayTail %x, Replay %x", a.seq, j, b.values[j], a.values[j])
				}
			}
		}
	})
}
