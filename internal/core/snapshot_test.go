package core

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"math"
	"runtime"
	"sort"
	"testing"
)

// snapTestConfig is a small but non-trivial configuration for the snapshot
// tests: short window so it wraps, parallel workers, incremental profiler.
func snapTestConfig() Config {
	return Config{
		K:             3,
		PatternLength: 6,
		D:             2,
		WindowLength:  64,
		Norm:          L2,
		Selection:     SelectDP,
		Workers:       2,
	}
}

// snapTestRow synthesizes tick t of width streams: phase-shifted harmonics
// (TKCM's home turf), with streams {1, 3} missing on every 7th tick once the
// window has warmed.
func snapTestRow(t, width int, row []float64) []float64 {
	row = row[:0]
	for i := 0; i < width; i++ {
		ph := 2*math.Pi*float64(t)/48 + 0.9*float64(i)
		v := 10 + 3*math.Sin(ph) + 1.2*math.Sin(2*ph+0.3)
		if t > 80 && t%7 == 0 && (i == 1 || i == 3) {
			v = math.NaN()
		}
		row = append(row, v)
	}
	return row
}

func snapTestNames(width int) []string {
	names := make([]string, width)
	for i := range names {
		names[i] = string(rune('a' + i))
	}
	return names
}

// TestSnapshotRestoreRoundTrip drives an engine mid-stream, snapshots it,
// restores a second engine from the bytes, and checks that both produce
// imputations within 1e-9 of each other on the same subsequent rows — the
// kill-and-restore scenario of a checkpointing server.
func TestSnapshotRestoreRoundTrip(t *testing.T) {
	const width, warm, tail = 5, 150, 120
	cfg := snapTestConfig()
	orig, err := NewEngine(cfg, snapTestNames(width), nil)
	if err != nil {
		t.Fatal(err)
	}
	defer orig.Close()
	var row []float64
	for tk := 0; tk < warm; tk++ {
		row = snapTestRow(tk, width, row)
		if _, _, err := orig.Tick(row); err != nil {
			t.Fatalf("tick %d: %v", tk, err)
		}
	}

	var buf bytes.Buffer
	if err := orig.Snapshot(&buf); err != nil {
		t.Fatal(err)
	}
	restored, err := RestoreEngine(bytes.NewReader(bytes.Clone(buf.Bytes())))
	if err != nil {
		t.Fatal(err)
	}
	defer restored.Close()

	if got, want := restored.Stats, orig.Stats; got != want {
		t.Errorf("restored stats %+v, want %+v", got, want)
	}
	if got, want := restored.Window().Tick(), orig.Window().Tick(); got != want {
		t.Errorf("restored window tick %d, want %d", got, want)
	}
	if got, want := restored.Window().Filled(), orig.Window().Filled(); got != want {
		t.Errorf("restored filled %d, want %d", got, want)
	}

	// The uninterrupted engine and the restored one must agree on every
	// subsequent completed row.
	var row2 []float64
	for tk := warm; tk < warm+tail; tk++ {
		row = snapTestRow(tk, width, row)
		row2 = append(row2[:0], row...)
		outA, _, errA := orig.Tick(row)
		outB, _, errB := restored.Tick(row2)
		if errA != nil || errB != nil {
			t.Fatalf("tick %d: orig err %v, restored err %v", tk, errA, errB)
		}
		for i := range outA {
			if d := math.Abs(outA[i] - outB[i]); !(d <= 1e-9) {
				t.Fatalf("tick %d stream %d: orig %v, restored %v (|Δ|=%g)", tk, i, outA[i], outB[i], d)
			}
		}
	}
	if orig.Stats.Imputations == 0 {
		t.Fatal("test exercised no imputations")
	}
	if restored.Stats != orig.Stats {
		t.Errorf("post-tail stats diverged: restored %+v, orig %+v", restored.Stats, orig.Stats)
	}
}

// retiredFlags are the config bytes of the four retired engine flags, as
// older engines wrote them: eager profiler maintenance, skipped imputation
// diagnostics (Config.SkipDiagnostics), the FFT alias for one-shot
// imputation, and float32 profile aggregates (v2 and later).
type retiredFlags struct {
	eager, skipDiagnostics, fftAlias, float32 bool
}

// encodeLegacyImage hand-encodes the given engine as a version 1 or 2 image
// (the pre-v3 single-payload layout: config, names, refs, counters, last
// values, then the window values inlined, under one trailing CRC), with the
// retired config flags set as given. It pins the legacy byte layout
// independently of the current encoder, so format drift that would orphan
// old checkpoints fails here.
func encodeLegacyImage(t testing.TB, e *Engine, version uint32, retired retiredFlags) []byte {
	t.Helper()
	enc := &snapEncoder{}
	cfg := e.Config()
	enc.int(int64(cfg.K))
	enc.int(int64(cfg.PatternLength))
	enc.int(int64(cfg.D))
	enc.int(int64(cfg.WindowLength))
	enc.int(int64(cfg.Norm))
	enc.int(int64(cfg.Selection))
	enc.int(int64(cfg.Profiler))
	enc.int(int64(cfg.Workers))
	enc.bool(cfg.WeightedMean)
	enc.bool(retired.eager)
	enc.bool(retired.skipDiagnostics)
	enc.bool(retired.fftAlias)
	if version >= 2 {
		enc.bool(retired.float32)
	}
	names := e.Window().Names()
	enc.uint(uint64(len(names)))
	for _, n := range names {
		enc.str(n)
	}
	keys := make([]string, 0, len(e.refs))
	for k := range e.refs {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	enc.uint(uint64(len(keys)))
	for _, k := range keys {
		rs := e.refs[k]
		enc.str(k)
		enc.str(rs.Stream)
		enc.uint(uint64(len(rs.Candidates)))
		for _, c := range rs.Candidates {
			enc.str(c)
		}
	}
	enc.int(int64(e.tick))
	enc.int(int64(e.w.Tick()))
	enc.int(int64(e.Stats.Ticks))
	enc.int(int64(e.Stats.Imputations))
	enc.int(int64(e.Stats.ColdStartFills))
	enc.int(int64(e.Stats.ReferenceErrors))
	enc.int(int64(e.Stats.InsufficientHist))
	for _, v := range e.last {
		enc.float(v)
	}
	filled := e.w.Filled()
	enc.uint(uint64(filled))
	hist := make([]float64, filled)
	for i := 0; i < e.w.Width(); i++ {
		for _, v := range e.w.SnapshotInto(i, hist) {
			enc.float(v)
		}
	}
	payload := enc.buf.Bytes()
	img := make([]byte, 0, len(payload)+24)
	img = append(img, snapMagic...)
	img = binary.LittleEndian.AppendUint32(img, version)
	img = binary.LittleEndian.AppendUint64(img, uint64(len(payload)))
	img = append(img, payload...)
	img = binary.LittleEndian.AppendUint32(img, crc32.ChecksumIEEE(payload))
	return img
}

// TestRestoreAcceptsV1Image: a version-1 image (one config flag byte shorter
// than v2) must still restore.
func TestRestoreAcceptsV1Image(t *testing.T) {
	cfg := snapTestConfig()
	e, err := NewEngine(cfg, snapTestNames(4), nil)
	if err != nil {
		t.Fatal(err)
	}
	defer e.Close()
	var row []float64
	for tk := 0; tk < 40; tk++ {
		row = snapTestRow(tk, 4, row)
		if _, _, err := e.Tick(row); err != nil {
			t.Fatal(err)
		}
	}
	v1 := encodeLegacyImage(t, e, 1, retiredFlags{})
	r, err := RestoreEngine(bytes.NewReader(v1))
	if err != nil {
		t.Fatalf("v1 image rejected: %v", err)
	}
	defer r.Close()
	if got, want := r.Seq(), e.Seq(); got != want {
		t.Fatalf("v1 restore seq %d, want %d", got, want)
	}
}

// setRetiredFlagsV3 returns a copy of a v3 image with the four retired
// config flag bytes set in its meta section and the meta CRC resealed. The
// flags follow the config's eight varints and its WeightedMean byte.
func setRetiredFlagsV3(img []byte, cfg Config) []byte {
	cp := bytes.Clone(img)
	enc := &snapEncoder{}
	for _, v := range []int{cfg.K, cfg.PatternLength, cfg.D, cfg.WindowLength,
		int(cfg.Norm), int(cfg.Selection), int(cfg.Profiler), cfg.Workers} {
		enc.int(int64(v))
	}
	flags := snapHeaderLen + enc.buf.Len() + 1
	for _, off := range []int{0, 1, 2, 3} { // eager, skip diagnostics, FFT alias, float32
		cp[flags+off] = 1
	}
	metaLen := int(binary.LittleEndian.Uint64(cp[12:20]))
	meta := cp[snapHeaderLen : snapHeaderLen+metaLen]
	binary.LittleEndian.PutUint32(cp[snapHeaderLen+metaLen:], crc32.ChecksumIEEE(meta))
	return cp
}

// TestRestoreIgnoresRetiredFlags: images written by engines that had the
// retired eager, skip-diagnostics, FFT-alias or float32 flags set — a v2
// image and a v3 image with all four set — restore as the default engine
// and then tick bit-identically to the same engine's image with the flags
// clear, over rows with missing values, with a Result on every imputation.
func TestRestoreIgnoresRetiredFlags(t *testing.T) {
	const width = 5
	e := warmSnapEngine(t)
	defer e.Close()
	plain := snapImage(t, e)
	set := retiredFlags{eager: true, skipDiagnostics: true, fftAlias: true, float32: true}
	images := map[string][]byte{
		"v2": encodeLegacyImage(t, e, 2, set),
		"v3": setRetiredFlagsV3(plain, e.Config()),
	}
	if bytes.Equal(images["v3"], plain) {
		t.Fatal("patched v3 image equals the plain one")
	}
	for name, img := range images {
		t.Run(name, func(t *testing.T) {
			want, err := RestoreEngineBytes(plain)
			if err != nil {
				t.Fatal(err)
			}
			defer want.Close()
			got, err := RestoreEngineBytes(img)
			if err != nil {
				t.Fatalf("image with retired flags set rejected: %v", err)
			}
			defer got.Close()
			if got.Config() != want.Config() {
				t.Fatalf("config %+v, want %+v", got.Config(), want.Config())
			}
			if _, ok := got.Profiler().(*IncrementalProfiler); !ok {
				t.Fatalf("restored with the %s profiler, want incremental", got.Profiler().Name())
			}
			var row, row2 []float64
			carried := 0
			for tk := 150; tk < 300; tk++ {
				row = snapTestRow(tk, width, row)
				row2 = append(row2[:0], row...)
				outW, resW, errW := want.Tick(row)
				outG, resG, errG := got.Tick(row2)
				if errW != nil || errG != nil {
					t.Fatalf("tick %d: %v, %v", tk, errW, errG)
				}
				for i := range outW {
					if math.Float64bits(outG[i]) != math.Float64bits(outW[i]) {
						t.Fatalf("tick %d stream %d: %v, want %v (not bit-identical)", tk, i, outG[i], outW[i])
					}
					if !sameResult(resG[i], resW[i]) {
						t.Fatalf("tick %d stream %d: result %+v, want %+v", tk, i, resG[i], resW[i])
					}
					if resG[i] != nil {
						carried++
					}
				}
			}
			if want.Stats.Imputations == e.Stats.Imputations {
				t.Fatal("no imputations after the restore")
			}
			if imputed := got.Stats.Imputations - e.Stats.Imputations; carried != imputed {
				t.Fatalf("%d of %d imputations carried a Result", carried, imputed)
			}
			requireSameEngineState(t, got, want)
		})
	}
}

// TestSnapshotDeterministic: snapshotting the same engine twice must produce
// byte-identical images (reference sets are sorted, no timestamps).
func TestSnapshotDeterministic(t *testing.T) {
	cfg := snapTestConfig()
	e, err := NewEngine(cfg, snapTestNames(5), nil)
	if err != nil {
		t.Fatal(err)
	}
	defer e.Close()
	var row []float64
	for tk := 0; tk < 100; tk++ {
		row = snapTestRow(tk, 5, row)
		if _, _, err := e.Tick(row); err != nil {
			t.Fatal(err)
		}
	}
	var a, b bytes.Buffer
	if err := e.Snapshot(&a); err != nil {
		t.Fatal(err)
	}
	if err := e.Snapshot(&b); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(a.Bytes(), b.Bytes()) {
		t.Fatal("two snapshots of the same engine differ")
	}
}

// TestRestoreHoldsNoMoreThanSnapshotted: a 2,048-stream engine (L = 32)
// whose 13th row ranks 300 unpinned reference sets holds about 2,047 names
// per set. Its restored twin must hold them in the stream names' storage,
// not in a fresh string per candidate and an append-grown list per set: its
// live heap stays within 1.1× the snapshotted engine's, and re-snapshotting it
// gives the same bytes.
func TestRestoreHoldsNoMoreThanSnapshotted(t *testing.T) {
	const width, gaps = 2048, 300
	names := make([]string, width)
	for j := range names {
		names[j] = fmt.Sprintf("s%d", j)
	}
	cfg := DefaultConfig()
	cfg.K, cfg.PatternLength, cfg.D, cfg.WindowLength = 2, 3, 2, 32
	var m0, m1, m2, m3 runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&m0)
	e, err := NewEngine(cfg, names, nil)
	if err != nil {
		t.Fatal(err)
	}
	row := make([]float64, width)
	for tk := 0; tk < 13; tk++ {
		for j := range row {
			row[j] = math.Sin(float64(tk*width + j))
			if tk == 12 && j%(width/gaps) == 0 && j/(width/gaps) < gaps {
				row[j] = math.NaN()
			}
		}
		if _, _, err := e.Tick(row); err != nil {
			t.Fatal(err)
		}
	}
	if e.Stats.Imputations != gaps || len(e.refs) != gaps {
		t.Fatalf("%d imputations over %d ranked sets, want %d", e.Stats.Imputations, len(e.refs), gaps)
	}
	runtime.GC()
	runtime.ReadMemStats(&m1)
	var img bytes.Buffer
	if err := e.Snapshot(&img); err != nil {
		t.Fatal(err)
	}
	e.Close()
	runtime.GC()
	runtime.ReadMemStats(&m2)
	r, err := RestoreEngineBytes(img.Bytes())
	if err != nil {
		t.Fatal(err)
	}
	runtime.GC()
	runtime.ReadMemStats(&m3)
	orig := float64(m1.HeapAlloc) - float64(m0.HeapAlloc)
	restored := float64(m3.HeapAlloc) - float64(m2.HeapAlloc)
	t.Logf("snapshotted engine %.2f MB live, restored %.2f MB (%.2f×)", orig/1e6, restored/1e6, restored/orig)
	if restored > 1.1*orig {
		t.Fatalf("restored engine holds %.0f bytes, %.2f× the snapshotted engine's %.0f", restored, restored/orig, orig)
	}
	var again bytes.Buffer
	if err := r.Snapshot(&again); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(again.Bytes(), img.Bytes()) {
		t.Fatal("the restored engine's snapshot differs from the image it was restored from")
	}
	r.Close()
}

// TestSnapshotColdEngine round-trips an engine that has never ticked.
func TestSnapshotColdEngine(t *testing.T) {
	cfg := snapTestConfig()
	e, err := NewEngine(cfg, snapTestNames(4), map[string]ReferenceSet{
		"a": {Stream: "a", Candidates: []string{"b", "c", "d"}},
	})
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := e.Snapshot(&buf); err != nil {
		t.Fatal(err)
	}
	r, err := RestoreEngine(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if r.Window().Filled() != 0 {
		t.Fatalf("cold restore has %d filled ticks", r.Window().Filled())
	}
	if _, _, err := r.Tick([]float64{1, 2, 3, 4}); err != nil {
		t.Fatal(err)
	}
}

// TestRestoreRejectsCorruption flips bytes across the image and expects every
// corruption to be caught (checksum or structural validation), never a panic
// or a silently wrong engine.
func TestRestoreRejectsCorruption(t *testing.T) {
	cfg := snapTestConfig()
	e, err := NewEngine(cfg, snapTestNames(4), nil)
	if err != nil {
		t.Fatal(err)
	}
	var row []float64
	for tk := 0; tk < 90; tk++ {
		row = snapTestRow(tk, 4, row)
		if _, _, err := e.Tick(row); err != nil {
			t.Fatal(err)
		}
	}
	var buf bytes.Buffer
	if err := e.Snapshot(&buf); err != nil {
		t.Fatal(err)
	}
	img := buf.Bytes()

	if _, err := RestoreEngine(bytes.NewReader(img[:len(img)/2])); err == nil {
		t.Error("truncated snapshot accepted")
	}
	for _, off := range []int{0, 9, 15, 25, len(img) / 2, len(img) - 2} {
		cp := bytes.Clone(img)
		cp[off] ^= 0x5a
		if _, err := RestoreEngine(bytes.NewReader(cp)); err == nil {
			t.Errorf("corruption at offset %d accepted", off)
		}
	}
}

// wrapSnapImage frames a raw payload as a version-2 image (magic, version,
// length, CRC), for crafting hostile-but-checksum-valid images against the
// shared meta decoder; the v3-specific geometry attacks live in
// snapshot_v3_test.go.
func wrapSnapImage(payload []byte) []byte {
	img := make([]byte, 0, len(payload)+24)
	img = append(img, snapMagic...)
	img = binary.LittleEndian.AppendUint32(img, 2)
	img = binary.LittleEndian.AppendUint64(img, uint64(len(payload)))
	img = append(img, payload...)
	img = binary.LittleEndian.AppendUint32(img, crc32.ChecksumIEEE(payload))
	return img
}

// TestRestoreRejectsCraftedDimensions: a crafted image (valid CRC) claiming
// window dimensions far beyond its actual payload must fail with an error —
// never allocate from the claimed sizes, panic, or OOM.
func TestRestoreRejectsCraftedDimensions(t *testing.T) {
	// Case 1: implausible window length.
	enc := &snapEncoder{}
	cfg := snapTestConfig()
	cfg.WindowLength = 1 << 40
	enc.encodeConfig(cfg)
	if _, err := RestoreEngine(bytes.NewReader(wrapSnapImage(enc.buf.Bytes()))); err == nil {
		t.Error("window length 2^40 accepted")
	}

	// Case 2: plausible config but a retained-window claim (4 × 2^20 floats)
	// that the byte-counted payload cannot possibly hold.
	enc = &snapEncoder{}
	cfg = snapTestConfig()
	cfg.WindowLength = 1 << 21
	enc.encodeConfig(cfg)
	enc.uint(4)
	for _, n := range []string{"a", "b", "c", "d"} {
		enc.str(n)
	}
	enc.uint(0)              // no reference sets
	enc.int(1 << 20)         // engine tick
	enc.int(1<<20 - 1)       // window tick
	for i := 0; i < 5; i++ { // stats
		enc.int(0)
	}
	for i := 0; i < 4; i++ { // last values
		enc.float(0)
	}
	enc.uint(1 << 20) // filled: claims 32 MiB of floats that are not there
	if _, err := RestoreEngine(bytes.NewReader(wrapSnapImage(enc.buf.Bytes()))); err == nil {
		t.Error("retained-window claim beyond payload accepted")
	}
}

// TestRestoreRejectsCraftedCounts: CRC-valid images with hostile count and
// string-length fields must fail with an error — never panic on a negative
// map-size hint or an overflowed slice bound, never pre-allocate toward OOM.
func TestRestoreRejectsCraftedCounts(t *testing.T) {
	// upToNames encodes a valid config and a one-stream name table, leaving
	// the decoder positioned at the reference-set count.
	upToNames := func() *snapEncoder {
		enc := &snapEncoder{}
		enc.encodeConfig(snapTestConfig())
		enc.uint(1)
		enc.str("a")
		return enc
	}

	// Reference-set count with the top bit set: int(nRefs) goes negative and
	// a naive make(map, nRefs) panics with "size out of range".
	enc := upToNames()
	enc.uint(1 << 63)
	if _, err := RestoreEngine(bytes.NewReader(wrapSnapImage(enc.buf.Bytes()))); err == nil {
		t.Error("reference-set count 2^63 accepted")
	}

	// Huge-but-positive count: must fail the plausibility bound instead of
	// pre-allocating map buckets for it.
	enc = upToNames()
	enc.uint(1 << 40)
	if _, err := RestoreEngine(bytes.NewReader(wrapSnapImage(enc.buf.Bytes()))); err == nil {
		t.Error("reference-set count 2^40 accepted")
	}

	// Even a modest claimed count must be backed by payload bytes (each
	// reference set costs at least 3), so allocation stays proportional to
	// the image actually sent.
	enc = upToNames()
	enc.uint(100000) // nothing behind it
	if _, err := RestoreEngine(bytes.NewReader(wrapSnapImage(enc.buf.Bytes()))); err == nil {
		t.Error("reference-set count beyond payload bytes accepted")
	}

	// A candidate count beyond the payload bytes (each name costs at least
	// one) must fail before a list is sized by it.
	for _, nc := range []uint64{1 << 40, 1 << 63} {
		enc = upToNames()
		enc.uint(1)
		enc.str("a")
		enc.str("a")
		enc.uint(nc)
		if _, err := RestoreEngine(bytes.NewReader(wrapSnapImage(enc.buf.Bytes()))); err == nil {
			t.Errorf("candidate count %d accepted", nc)
		}
	}

	// String length of MaxInt64: off+n overflows int, slipping a naive
	// "off+n > len" check into a panicking slice expression.
	enc = &snapEncoder{}
	enc.encodeConfig(snapTestConfig())
	enc.uint(1)
	enc.uint(math.MaxInt64) // claimed name length with no bytes behind it
	if _, err := RestoreEngine(bytes.NewReader(wrapSnapImage(enc.buf.Bytes()))); err == nil {
		t.Error("string length MaxInt64 accepted")
	}

	// String length with the top bit set: int(n) goes negative.
	enc = &snapEncoder{}
	enc.encodeConfig(snapTestConfig())
	enc.uint(1)
	enc.uint(1 << 63)
	if _, err := RestoreEngine(bytes.NewReader(wrapSnapImage(enc.buf.Bytes()))); err == nil {
		t.Error("string length 2^63 accepted")
	}

	// Duplicate stream names would panic inside window.New; the decoder must
	// reject them first.
	enc = &snapEncoder{}
	enc.encodeConfig(snapTestConfig())
	enc.uint(2)
	enc.str("a")
	enc.str("a")
	if _, err := RestoreEngine(bytes.NewReader(wrapSnapImage(enc.buf.Bytes()))); err == nil {
		t.Error("duplicate stream names accepted")
	}

	// A worker count no machine has sizes the tick pool's scratch slice.
	enc = &snapEncoder{}
	cfg := snapTestConfig()
	cfg.Workers = 1 << 40
	enc.encodeConfig(cfg)
	if _, err := RestoreEngine(bytes.NewReader(wrapSnapImage(enc.buf.Bytes()))); err == nil {
		t.Error("worker count 2^40 accepted")
	}
}
