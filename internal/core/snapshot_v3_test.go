package core

import (
	"bytes"
	"encoding/binary"
	"hash/crc32"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"testing"
)

// warmSnapEngine builds a width-5 engine and streams warm ticks with
// imputations, the donor for the v3 section tests.
func warmSnapEngine(t testing.TB) *Engine {
	t.Helper()
	e, err := NewEngine(snapTestConfig(), snapTestNames(5), nil)
	if err != nil {
		t.Fatal(err)
	}
	var row []float64
	for tk := 0; tk < 150; tk++ {
		row = snapTestRow(tk, 5, row)
		if _, _, err := e.Tick(row); err != nil {
			t.Fatal(err)
		}
	}
	return e
}

// snapImage snapshots e into a byte slice.
func snapImage(t testing.TB, e *Engine) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := e.Snapshot(&buf); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// requireSameEngineState asserts that two engines hold bit-identical
// windows, counters, and stats (NaN compares equal via bit patterns).
func requireSameEngineState(t *testing.T, got, want *Engine) {
	t.Helper()
	if got.Seq() != want.Seq() {
		t.Fatalf("seq %d, want %d", got.Seq(), want.Seq())
	}
	if got.Stats != want.Stats {
		t.Fatalf("stats %+v, want %+v", got.Stats, want.Stats)
	}
	gw, ww := got.Window(), want.Window()
	if gw.Tick() != ww.Tick() || gw.Filled() != ww.Filled() || gw.Width() != ww.Width() {
		t.Fatalf("window shape (%d,%d,%d), want (%d,%d,%d)",
			gw.Tick(), gw.Filled(), gw.Width(), ww.Tick(), ww.Filled(), ww.Width())
	}
	for i := 0; i < ww.Width(); i++ {
		for j := 0; j < ww.Filled(); j++ {
			g, w := gw.At(i, j), ww.At(i, j)
			if math.Float64bits(g) != math.Float64bits(w) {
				t.Fatalf("stream %d index %d: %v, want %v (not bit-identical)", i, j, g, w)
			}
		}
	}
}

// TestSnapshotV3Layout pins the on-disk geometry of a freshly written image:
// version 3, a 4096-aligned window region of exactly width×filled float64s,
// minimal zero padding, and a total length with no slack — the contract the
// mmap restore path slices by.
func TestSnapshotV3Layout(t *testing.T) {
	e := warmSnapEngine(t)
	defer e.Close()
	img := snapImage(t, e)

	if got := binary.LittleEndian.Uint32(img[8:12]); got != 3 {
		t.Fatalf("snapshot version %d, want 3", got)
	}
	metaLen := int(binary.LittleEndian.Uint64(img[12:20]))
	windowOff := int(binary.LittleEndian.Uint64(img[20+metaLen-8 : 20+metaLen]))
	if windowOff%snapAlign != 0 {
		t.Fatalf("window offset %d not %d-aligned", windowOff, snapAlign)
	}
	if windowOff < 20+metaLen+4 || windowOff-(20+metaLen+4) >= snapAlign {
		t.Fatalf("window offset %d not minimally padded past meta end %d", windowOff, 20+metaLen+4)
	}
	wantBytes := e.Window().Width() * e.Window().Filled() * 8
	if got, want := len(img), windowOff+wantBytes+4; got != want {
		t.Fatalf("image length %d, want %d", got, want)
	}
	for i, b := range img[20+metaLen+4 : windowOff] {
		if b != 0 {
			t.Fatalf("nonzero padding byte at %d", 20+metaLen+4+i)
		}
	}
	// Slicing the region directly must reproduce stream 0's retained values.
	hist := e.Window().Snapshot(0)
	for j, want := range hist {
		got := math.Float64frombits(binary.LittleEndian.Uint64(img[windowOff+j*8:]))
		if math.Float64bits(got) != math.Float64bits(want) {
			t.Fatalf("region value %d = %v, want %v", j, got, want)
		}
	}
}

// TestRestoreEngineBytesMatchesReader: restoring from a reader and from the
// in-memory (mmap) bytes must produce bit-identical engines from the same
// image.
func TestRestoreEngineBytesMatchesReader(t *testing.T) {
	e := warmSnapEngine(t)
	defer e.Close()
	img := snapImage(t, e)

	fromBytes, err := RestoreEngineBytes(img)
	if err != nil {
		t.Fatalf("bytes restore: %v", err)
	}
	defer fromBytes.Close()
	fromReader, err := RestoreEngine(bytes.NewReader(img))
	if err != nil {
		t.Fatalf("reader restore: %v", err)
	}
	defer fromReader.Close()
	requireSameEngineState(t, fromBytes, e)
	requireSameEngineState(t, fromReader, fromBytes)
}

// TestRestoreEngineFile round-trips an image through a file — the actual
// hydration path, memory-mapped where the platform supports it.
func TestRestoreEngineFile(t *testing.T) {
	e := warmSnapEngine(t)
	defer e.Close()
	path := filepath.Join(t.TempDir(), "img.tkcm")
	if err := os.WriteFile(path, snapImage(t, e), 0o644); err != nil {
		t.Fatal(err)
	}
	r, err := RestoreEngineFile(path)
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	requireSameEngineState(t, r, e)

	if _, err := RestoreEngineFile(filepath.Join(t.TempDir(), "absent.tkcm")); err == nil {
		t.Fatal("restore of a missing file succeeded")
	}
}

// TestRestoreAcceptsV2Image: a hand-encoded version-2 image (the pre-mmap
// single-payload layout) must restore to a bit-identical engine — old
// checkpoints survive the format bump.
func TestRestoreAcceptsV2Image(t *testing.T) {
	e := warmSnapEngine(t)
	defer e.Close()
	v2 := encodeLegacyImage(t, e, 2, retiredFlags{})
	r, err := RestoreEngine(bytes.NewReader(v2))
	if err != nil {
		t.Fatalf("v2 image rejected: %v", err)
	}
	defer r.Close()
	requireSameEngineState(t, r, e)

	rb, err := RestoreEngineBytes(v2)
	if err != nil {
		t.Fatalf("v2 image rejected by bytes path: %v", err)
	}
	defer rb.Close()
	requireSameEngineState(t, rb, e)
}

// TestRestoreAllocatesWhatItReads: an image whose header claims a section
// far larger than the image itself must be refused — for every format
// version — without allocating the claimed size: the reader entry point
// allocates what it reads, and every header length is checked against that.
func TestRestoreAllocatesWhatItReads(t *testing.T) {
	for _, version := range []uint32{1, 2, 3} {
		img := make([]byte, 84)
		copy(img, snapMagic)
		binary.LittleEndian.PutUint32(img[8:12], version)
		binary.LittleEndian.PutUint64(img[12:20], 256<<20) // meta/payload length
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		_, err := RestoreEngine(bytes.NewReader(img))
		runtime.ReadMemStats(&after)
		if err == nil {
			t.Fatalf("v%d: an %d-byte image claiming a 256 MiB section restored", version, len(img))
		}
		if grew := after.TotalAlloc - before.TotalAlloc; grew >= 1<<20 {
			t.Fatalf("v%d: restore of an %d-byte image allocated %d bytes (err: %v)", version, len(img), grew, err)
		}
	}
}

// TestRestoreRefusesOversizedEngine: a CRC-valid v3 image of a few KB that
// names 256 one-byte streams at WindowLength 2^24 — 2^32 window cells, 32
// GiB of window values — must fail on MaxWindowCells from RestoreEngineBytes with
// under 1 MiB allocated.
func TestRestoreRefusesOversizedEngine(t *testing.T) {
	const width = 256
	enc := &snapEncoder{}
	cfg := snapTestConfig()
	cfg.WindowLength = MaxWindowLength
	enc.encodeConfig(cfg)
	enc.uint(width)
	for i := 0; i < width; i++ {
		enc.str(string([]byte{byte(i)}))
	}
	enc.uint(0)              // no reference sets
	enc.int(0)               // engine tick
	enc.int(-1)              // window tick
	for i := 0; i < 5; i++ { // stats
		enc.int(0)
	}
	for i := 0; i < width; i++ { // last values
		enc.float(math.NaN())
	}
	enc.uint(0) // nothing retained: the window region is empty
	windowOff := snapAlignUp(snapHeaderLen + enc.buf.Len() + 8 + 4)
	enc.fixed64(uint64(windowOff))
	meta := enc.buf.Bytes()
	img := append([]byte(nil), snapMagic...)
	img = binary.LittleEndian.AppendUint32(img, snapVersion)
	img = binary.LittleEndian.AppendUint64(img, uint64(len(meta)))
	img = append(img, meta...)
	img = binary.LittleEndian.AppendUint32(img, crc32.ChecksumIEEE(meta))
	img = append(img, make([]byte, windowOff-len(img))...)
	img = binary.LittleEndian.AppendUint32(img, crc32.ChecksumIEEE(nil))

	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	_, err := RestoreEngineBytes(img)
	runtime.ReadMemStats(&after)
	if err == nil || !strings.Contains(err.Error(), "MaxWindowCells") {
		t.Fatalf("%d-byte image naming %d streams × L=%d: err = %v, want the MaxWindowCells bound", len(img), width, cfg.WindowLength, err)
	}
	if grew := after.TotalAlloc - before.TotalAlloc; grew >= 1<<20 {
		t.Fatalf("restore of a %d-byte image allocated %d bytes (err: %v)", len(img), grew, err)
	}
}

// patchWindowOff rewrites the image's windowOff field (the last 8 bytes of
// the meta section) and re-seals the meta CRC, so the crafted geometry
// reaches the validator instead of dying at the checksum.
func patchWindowOff(img []byte, off uint64) []byte {
	cp := bytes.Clone(img)
	metaLen := int(binary.LittleEndian.Uint64(cp[12:20]))
	binary.LittleEndian.PutUint64(cp[20+metaLen-8:20+metaLen], off)
	binary.LittleEndian.PutUint32(cp[20+metaLen:20+metaLen+4], crc32.ChecksumIEEE(cp[20:20+metaLen]))
	return cp
}

// TestRestoreV3RejectsCraftedGeometry drives CRC-valid images with hostile
// section geometry — misaligned, overlapping, inflated, truncated, padded
// with garbage, or trailing extra bytes — through both entry points (bytes
// and reader) and expects a descriptive error every time, never a panic or
// a silently wrong engine.
func TestRestoreV3RejectsCraftedGeometry(t *testing.T) {
	e := warmSnapEngine(t)
	defer e.Close()
	img := snapImage(t, e)
	metaLen := int(binary.LittleEndian.Uint64(img[12:20]))
	windowOff := int(binary.LittleEndian.Uint64(img[20+metaLen-8 : 20+metaLen]))

	cases := []struct {
		name string
		data []byte
		want string
	}{
		{name: "misaligned-offset", data: patchWindowOff(img, uint64(windowOff+8)), want: "aligned"},
		{name: "overlapping-offset", data: patchWindowOff(img, 0), want: "overlaps"},
		{name: "inflated-offset", data: patchWindowOff(img, uint64(windowOff+snapAlign)), want: "padding"},
		{name: "truncated-region", data: img[:len(img)-16]},
		{name: "trailing-bytes", data: append(bytes.Clone(img), 0xEE), want: "trailing"},
		{name: "nonzero-padding", data: func() []byte {
			cp := bytes.Clone(img)
			cp[20+metaLen+4] = 0x5a // first padding byte
			return cp
		}(), want: "padding"},
		{name: "corrupt-window", data: func() []byte {
			cp := bytes.Clone(img)
			cp[windowOff+9] ^= 0x5a
			return cp
		}(), want: "window checksum"},
		{name: "corrupt-meta", data: func() []byte {
			cp := bytes.Clone(img)
			cp[22] ^= 0x5a
			return cp
		}(), want: "meta checksum"},
		{name: "truncated-meta", data: img[:20+metaLen/2]},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			_, err := RestoreEngineBytes(tc.data)
			if err == nil {
				t.Fatal("bytes path accepted the crafted image")
			}
			if tc.want != "" && !strings.Contains(err.Error(), tc.want) {
				t.Fatalf("bytes path error %q does not mention %q", err, tc.want)
			}
			if _, err := RestoreEngine(bytes.NewReader(tc.data)); err == nil {
				t.Fatal("reader path accepted the crafted image")
			}
		})
	}
}

// FuzzSnapshotSectionDecode fuzzes the v3 section decoder (and, through the
// version dispatch, the legacy one): arbitrary bytes must either fail with
// an error or produce an engine that the reader entry point agrees on and
// that can re-snapshot itself. Seeds cover a valid v3 image, legacy v1 and
// v2 images, and each crafted-geometry attack.
func FuzzSnapshotSectionDecode(f *testing.F) {
	e, err := NewEngine(snapTestConfig(), snapTestNames(3), nil)
	if err != nil {
		f.Fatal(err)
	}
	defer e.Close()
	var row []float64
	for tk := 0; tk < 90; tk++ {
		row = snapTestRow(tk, 3, row)
		if _, _, err := e.Tick(row); err != nil {
			f.Fatal(err)
		}
	}
	var buf bytes.Buffer
	if err := e.Snapshot(&buf); err != nil {
		f.Fatal(err)
	}
	img := buf.Bytes()
	metaLen := int(binary.LittleEndian.Uint64(img[12:20]))
	windowOff := int(binary.LittleEndian.Uint64(img[20+metaLen-8 : 20+metaLen]))

	f.Add(bytes.Clone(img))
	f.Add(encodeLegacyImage(f, e, 2, retiredFlags{}))
	f.Add(encodeLegacyImage(f, e, 1, retiredFlags{}))
	f.Add(img[:len(img)-16])
	f.Add(img[:20+metaLen/2])
	f.Add(patchWindowOff(img, uint64(windowOff+8)))
	f.Add(patchWindowOff(img, 0))
	f.Add(append(bytes.Clone(img), 0))

	f.Fuzz(func(t *testing.T, data []byte) {
		r, err := RestoreEngineBytes(data)
		if err != nil {
			return
		}
		defer r.Close()
		// An image the bytes entry point accepts must also restore from a
		// reader — both run in production (hydration and migration vs the
		// public RestoreEngine), and one decoder per format version backs
		// them, so a divergence would mean the reader lost or added bytes.
		r2, err := RestoreEngine(bytes.NewReader(data))
		if err != nil {
			t.Fatalf("bytes path restored an image the reader path rejects: %v", err)
		}
		defer r2.Close()
		var out bytes.Buffer
		if err := r.Snapshot(&out); err != nil {
			t.Fatalf("restored engine cannot re-snapshot: %v", err)
		}
	})
}
