package wal

import (
	"bytes"
	"os"
	"path/filepath"
	"testing"
)

func TestMerkleAccumulatorIsOrderSensitiveAndDeterministic(t *testing.T) {
	leaf := func(b byte) [hashSize]byte {
		return leafHash([]byte{b, 0, 0, 0, 0, 0, 0, 0}, []byte{b})
	}
	var a, b merkleAcc
	for i := 0; i < 7; i++ { // 7 leaves: uneven tree, peaks at 3 heights
		a.push(leaf(byte(i)))
		b.push(leaf(byte(i)))
	}
	if a.root() != b.root() {
		t.Fatal("same leaves produced different roots")
	}
	// root() must not consume the accumulator: pushing after a root read
	// continues the same tree.
	r7 := a.root()
	a.push(leaf(7))
	b.push(leaf(7))
	if a.root() != b.root() {
		t.Fatal("root() mutated the accumulator")
	}
	if a.root() == r7 {
		t.Fatal("appending a leaf did not change the root")
	}
	var c merkleAcc
	for i := 7; i >= 0; i-- { // same leaves, reversed order
		c.push(leaf(byte(i)))
	}
	if c.root() == a.root() {
		t.Fatal("leaf order does not affect the root")
	}
	var empty merkleAcc
	if empty.root() != emptyRoot {
		t.Fatal("empty accumulator root != emptyRoot sentinel")
	}
	empty.push(leaf(1))
	empty.reset()
	if empty.root() != emptyRoot {
		t.Fatal("reset did not restore the empty root")
	}
}

func TestHeadEncodeDecodeRoundtrip(t *testing.T) {
	key := []byte("roundtrip-key")
	h := &headState{
		identity: "tenant-x",
		baseSeq:  41,
		sealed: []sealedSegment{
			{firstSeq: 42, lastSeq: 99, root: leafHash([]byte("a"), []byte("b"))},
			{firstSeq: 100, lastSeq: 180, root: leafHash([]byte("c"), []byte("d"))},
		},
		activeFirstSeq: 181,
		durableSeq:     205,
	}
	h.baseChain = chainNext(chainGenesis("tenant-x"), leafHash([]byte("z"), nil))
	raw := encodeHead(h, key)
	if err := verifyHeadMAC(raw, key); err != nil {
		t.Fatalf("MAC of a fresh head: %v", err)
	}
	if err := verifyHeadMAC(raw, []byte("other-key")); err == nil {
		t.Fatal("head MAC verified under the wrong key")
	}
	got, err := decodeHead(raw)
	if err != nil {
		t.Fatalf("decode: %v", err)
	}
	if got.identity != h.identity || got.baseSeq != h.baseSeq || got.baseChain != h.baseChain ||
		got.durableSeq != h.durableSeq || got.activeFirstSeq != h.activeFirstSeq ||
		len(got.sealed) != len(h.sealed) {
		t.Fatalf("decoded head differs: %+v vs %+v", got, h)
	}
	for i := range h.sealed {
		if got.sealed[i] != h.sealed[i] {
			t.Fatalf("sealed[%d] = %+v, want %+v", i, got.sealed[i], h.sealed[i])
		}
	}
	// Every byte of the image is load-bearing: any flip must break either
	// the decoder or the MAC.
	for i := range raw {
		raw[i] ^= 0x01
		if _, derr := decodeHead(raw); derr == nil {
			if merr := verifyHeadMAC(raw, key); merr == nil {
				t.Fatalf("flipping byte %d of the head image went undetected", i)
			}
		}
		raw[i] ^= 0x01
	}
}

// TestFlipAnyByteAnywhereFailsAudit is the tamper-evidence property test: a
// gracefully closed log (head durableSeq anchored) is audited after flipping
// every single byte of every file in turn — each flip must fail VerifyTenant.
// This covers record payloads (CRC), commit frames (root/chain/HMAC), segment
// magic, sealed-segment content (pinned roots) and the head image (MAC).
func TestFlipAnyByteAnywhereFailsAudit(t *testing.T) {
	dir := t.TempDir()
	key := []byte("flip-test-key")
	l, err := Open(dir, Options{SegmentBytes: 200, Key: key})
	if err != nil {
		t.Fatal(err)
	}
	seq := uint64(1)
	for i := 0; i < 6; i++ {
		if _, err := appendRow(l, seq, []float64{float64(i), float64(i) * 2}); err != nil {
			t.Fatal(err)
		}
		seq++
	}
	rows := [][]float64{{1, 2}, {3, 4}, {5, 6}}
	if _, err := l.AppendBatch(seq, rows); err != nil {
		t.Fatal(err)
	}
	seq += uint64(len(rows))
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	if rep, err := VerifyTenant(dir, key); err != nil {
		t.Fatalf("pristine audit: %v", err)
	} else if rep.DurableThrough != seq-1 {
		t.Fatalf("pristine DurableThrough = %d, want %d", rep.DurableThrough, seq-1)
	}

	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(entries) < 3 {
		t.Fatalf("want multiple segments plus head, have %d files", len(entries))
	}
	for _, ent := range entries {
		path := filepath.Join(dir, ent.Name())
		orig, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		mut := bytes.Clone(orig)
		for i := range mut {
			mut[i] ^= 0x01
			if err := os.WriteFile(path, mut, 0o644); err != nil {
				t.Fatal(err)
			}
			if _, verr := VerifyTenant(dir, key); verr == nil {
				t.Fatalf("flipping byte %d of %s went undetected", i, ent.Name())
			}
			mut[i] ^= 0x01
		}
		if err := os.WriteFile(path, orig, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := VerifyTenant(dir, key); err != nil {
		t.Fatalf("audit after restoring all bytes: %v", err)
	}
}

// FuzzHeadDecode hardens the head decoder against arbitrary bytes: it must
// never panic or over-allocate, and anything it accepts must re-encode into
// an image it accepts again (a decode/encode fixpoint).
func FuzzHeadDecode(f *testing.F) {
	key := []byte("fuzz-key")
	h := &headState{identity: "t1", baseChain: chainGenesis("t1"), activeFirstSeq: 1}
	f.Add(encodeHead(h, key))
	h2 := &headState{
		identity:  "tenant-with-longer-name",
		baseSeq:   7,
		baseChain: chainNext(chainGenesis("tenant-with-longer-name"), emptyRoot),
		sealed: []sealedSegment{
			{firstSeq: 8, lastSeq: 20, root: emptyRoot},
		},
		activeFirstSeq: 21,
		durableSeq:     25,
	}
	f.Add(encodeHead(h2, key))
	f.Add([]byte(headMagic))
	f.Fuzz(func(t *testing.T, raw []byte) {
		got, err := decodeHead(raw)
		if err != nil {
			return
		}
		again, err := decodeHead(encodeHead(got, key))
		if err != nil {
			t.Fatalf("re-encoded accepted head failed to decode: %v", err)
		}
		if again.identity != got.identity || again.durableSeq != got.durableSeq ||
			again.baseSeq != got.baseSeq || len(again.sealed) != len(got.sealed) {
			t.Fatalf("decode/encode/decode drifted: %+v vs %+v", again, got)
		}
	})
}
