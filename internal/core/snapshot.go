package core

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"io"
	"math"
	"sort"
)

// Snapshot format v3 — a self-describing binary image of one engine, laid
// out so the bulky part (the retained windows) restores by slicing a
// page-aligned region out of a memory-mapped file, without a full decode:
//
//	"TKCMSNAP"          8-byte magic
//	version             uint32 LE (currently 3)
//	metaLen             uint64 LE
//	meta                metaLen bytes (layout below)
//	metaCRC             uint32 LE, IEEE CRC-32 of meta
//	zero padding        up to windowOff, the smallest multiple of 4096
//	                    past the metaCRC
//	window region       width × filled IEEE-754 float64 LE, stream-major:
//	                    stream i's retained values (oldest first) start at
//	                    windowOff + i×filled×8
//	windowCRC           uint32 LE, IEEE CRC-32 of the window region
//
// The meta section encodes, in order: the Config, the stream names, the
// (possibly lazily ranked) reference sets, the engine and window tick
// counters, the Stats counters, the per-stream cold-start fallback values,
// the retained tick count (filled), and finally windowOff as a fixed-width
// uint64 LE. Integers are varints, floats are IEEE-754 bits LE, strings are
// uvarint-length prefixed UTF-8.
//
// Version 1 and 2 images — a single varint payload with the window values
// inlined after the retained count, under one trailing CRC; v1's config
// lacks the last flag byte — still restore through the legacy decoder.
//
// The config encodes four retired engine flags (eager profiler
// maintenance, skipped imputation diagnostics, the FFT alias for one-shot
// imputation, float32 profile aggregates) as one byte each, so the layout
// stays that of every earlier image. Snapshot writes them as zero; restore
// reads and ignores them, so an image that had any of them set restores as
// the default engine.
//
// The incremental profiler's aggregates are deliberately NOT serialized:
// they are demand-driven derived state (see IncrementalProfiler), exactly
// reconstructible from the retained windows, so restore bulk-loads the
// windows and lets the first consult rebuild the aggregates from them. This
// keeps the format independent of profiler internals — a snapshot taken with
// one Config.Profiler restores under any other.
const (
	snapMagic   = "TKCMSNAP"
	snapVersion = 3
	// snapVersionMin is the oldest image version restore still accepts.
	snapVersionMin = 1
	// snapAlign is the v3 window region's alignment: one page, so a
	// memory-mapped image hands the region straight to the bulk loads.
	snapAlign = 4096
	// snapHeaderLen is the fixed prefix before the payload/meta section.
	snapHeaderLen = 20
	// maxSnapSection (64 GiB) bounds every length decoded from an image
	// before memory proportional to it is allocated.
	maxSnapSection = 1 << 36
)

// snapAlignUp rounds n up to the next multiple of snapAlign.
func snapAlignUp(n int) int { return (n + snapAlign - 1) &^ (snapAlign - 1) }

// Snapshot writes a versioned binary image of the engine's state — config,
// reference sets, retained windows, counters — to w, restorable with
// RestoreEngine. It must not run concurrently with Tick or TickColumns (take
// snapshots between ticks; a single-goroutine owner, like a serving shard,
// satisfies this for free).
func (e *Engine) Snapshot(w io.Writer) error {
	enc := &snapEncoder{}
	e.encodeSnapMeta(enc)
	metaLen := enc.buf.Len() + 8 // plus the fixed-width windowOff below
	windowOff := snapAlignUp(snapHeaderLen + metaLen + 4)
	enc.fixed64(uint64(windowOff))
	meta := enc.buf.Bytes()

	var hdr [snapHeaderLen]byte
	copy(hdr[:8], snapMagic)
	binary.LittleEndian.PutUint32(hdr[8:12], snapVersion)
	binary.LittleEndian.PutUint64(hdr[12:20], uint64(len(meta)))
	var crc [4]byte
	binary.LittleEndian.PutUint32(crc[:], crc32.ChecksumIEEE(meta))
	pad := make([]byte, windowOff-snapHeaderLen-len(meta)-4)
	for _, blk := range [][]byte{hdr[:], meta, crc[:], pad} {
		if _, err := w.Write(blk); err != nil {
			return fmt.Errorf("core: snapshot: %w", err)
		}
	}

	filled := e.w.Filled()
	hist := make([]float64, filled)
	buf := make([]byte, filled*8)
	sum := uint32(0)
	for i := 0; i < e.w.Width(); i++ {
		vals := e.w.SnapshotInto(i, hist)
		for j, v := range vals {
			binary.LittleEndian.PutUint64(buf[j*8:], math.Float64bits(v))
		}
		sum = crc32.Update(sum, crc32.IEEETable, buf[:len(vals)*8])
		if _, err := w.Write(buf[:len(vals)*8]); err != nil {
			return fmt.Errorf("core: snapshot: %w", err)
		}
	}
	binary.LittleEndian.PutUint32(crc[:], sum)
	if _, err := w.Write(crc[:]); err != nil {
		return fmt.Errorf("core: snapshot: %w", err)
	}
	return nil
}

// encodeSnapMeta writes the meta section — everything except the window
// values and the trailing windowOff field — into enc. The v1/v2 payload is
// this same prefix with the window values inlined after it, which is what
// lets both decoders share decodeSnapMeta.
func (e *Engine) encodeSnapMeta(enc *snapEncoder) {
	enc.encodeConfig(e.cfg)

	names := e.w.Names()
	enc.uint(uint64(len(names)))
	for _, n := range names {
		enc.str(n)
	}

	// Reference sets, sorted by stream name so identical engines produce
	// byte-identical snapshots (map iteration order is randomized).
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

	enc.uint(uint64(e.w.Filled()))
}

// RestoreEngine reconstructs an engine from a Snapshot image. The restored
// engine continues exactly where the snapshotted one left off: same config,
// reference sets, retained windows, tick counters, and cold-start state.
// Profiler aggregates are rebuilt from the windows on first use, so
// subsequent imputations match an uninterrupted engine to within the
// incremental profiler's rebuild tolerance (~1e-9).
//
// The image is read into memory and decoded by RestoreEngineBytes, so memory
// grows with the bytes r actually delivers, never with a length an image
// header merely claims; r must end where the image does.
func RestoreEngine(r io.Reader) (*Engine, error) {
	data, err := io.ReadAll(io.LimitReader(r, maxSnapSection+1))
	if err != nil {
		return nil, fmt.Errorf("core: restore: reading image: %w", err)
	}
	if int64(len(data)) > maxSnapSection {
		return nil, fmt.Errorf("core: restore: image exceeds %d bytes", int64(maxSnapSection))
	}
	return RestoreEngineBytes(data)
}

// RestoreEngineBytes restores a Snapshot image held fully in memory (or
// memory-mapped — see RestoreEngineFile). For v3 images the window region is
// sliced straight out of data without an intermediate copy of the image,
// which is what makes hydrating a parked engine from a mapped checkpoint
// cheap; data is not retained after the call returns. Every length decoded
// from the image is checked against len(data) before anything is sized by
// it, and bytes past the image's end are refused.
func RestoreEngineBytes(data []byte) (*Engine, error) {
	if len(data) < snapHeaderLen+4 {
		return nil, fmt.Errorf("core: restore: image too short (%d bytes)", len(data))
	}
	if string(data[:8]) != snapMagic {
		return nil, fmt.Errorf("core: restore: bad magic %q (not a TKCM snapshot)", data[:8])
	}
	version := binary.LittleEndian.Uint32(data[8:12])
	if version < snapVersionMin || version > snapVersion {
		return nil, fmt.Errorf("core: restore: unsupported snapshot version %d (want %d..%d)", version, snapVersionMin, snapVersion)
	}
	// The header's length (the v3 meta section, or the whole v1/v2 payload)
	// must fit the image, followed by its CRC.
	metaLen := binary.LittleEndian.Uint64(data[12:20])
	if metaLen > uint64(len(data)-snapHeaderLen-4) {
		return nil, fmt.Errorf("core: restore: section length %d exceeds the %d-byte image", metaLen, len(data))
	}
	meta := data[snapHeaderLen : snapHeaderLen+int(metaLen)]
	crcOff := snapHeaderLen + int(metaLen)
	if version < 3 {
		return restoreLegacy(meta, data[crcOff:], version)
	}
	if want, got := binary.LittleEndian.Uint32(data[crcOff:]), crc32.ChecksumIEEE(meta); want != got {
		return nil, fmt.Errorf("core: restore: meta checksum mismatch (snapshot corrupt)")
	}
	m, windowOff, err := parseV3Meta(meta)
	if err != nil {
		return nil, err
	}
	windowBytes := int64(len(m.names)) * int64(m.filled) * 8
	if windowBytes > maxSnapSection {
		return nil, fmt.Errorf("core: restore: implausible window region size %d", windowBytes)
	}
	total := int64(windowOff) + windowBytes + 4
	if int64(len(data)) < total {
		return nil, fmt.Errorf("core: restore: window region truncated (image is %d bytes, layout needs %d)", len(data), total)
	}
	if int64(len(data)) > total {
		return nil, fmt.Errorf("core: restore: %d trailing bytes after the window region", int64(len(data))-total)
	}
	for _, b := range data[crcOff+4 : windowOff] {
		if b != 0 {
			return nil, fmt.Errorf("core: restore: nonzero padding before the window region")
		}
	}
	region := data[windowOff : int64(windowOff)+windowBytes]
	if want, got := binary.LittleEndian.Uint32(data[total-4:]), crc32.ChecksumIEEE(region); want != got {
		return nil, fmt.Errorf("core: restore: window checksum mismatch (snapshot corrupt)")
	}
	return m.finish(decodeWindowRegion(region))
}

// restoreLegacy decodes a v1/v2 image: one varint payload with the window
// values inlined after the meta fields, then tail — the payload's CRC,
// which must end the image.
func restoreLegacy(payload, tail []byte, version uint32) (*Engine, error) {
	if want, got := binary.LittleEndian.Uint32(tail), crc32.ChecksumIEEE(payload); want != got {
		return nil, fmt.Errorf("core: restore: checksum mismatch (snapshot corrupt)")
	}
	if len(tail) > 4 {
		return nil, fmt.Errorf("core: restore: %d trailing bytes after the checksum", len(tail)-4)
	}
	dec := &snapDecoder{b: payload}
	m, err := decodeSnapMeta(dec, version)
	if err != nil {
		return nil, err
	}
	// A valid payload must still contain 8 bytes per retained value, so the
	// remaining length bounds the allocation (and rules out width*filled
	// overflowing, since both factors were bounded in decodeSnapMeta).
	if rem := len(dec.b) - dec.off; m.filled > 0 && m.filled > rem/(8*len(m.names)) {
		return nil, fmt.Errorf("core: restore: retained window (%d streams × %d ticks) exceeds the %d payload bytes", len(m.names), m.filled, rem)
	}
	hist := make([]float64, len(m.names)*m.filled)
	for i := range hist {
		hist[i] = dec.float()
	}
	if dec.err != nil {
		return nil, fmt.Errorf("core: restore: %w", dec.err)
	}
	if dec.off != len(dec.b) {
		return nil, fmt.Errorf("core: restore: %d trailing bytes after payload", len(dec.b)-dec.off)
	}
	return m.finish(hist)
}

// parseV3Meta decodes a v3 meta section and its trailing windowOff field,
// then validates the image geometry: the window region must start
// page-aligned, strictly after the metaCRC, with less than one page of
// padding — so regions cannot overlap the meta section, and a region offset
// cannot be inflated to smuggle unchecked bytes into the image.
func parseV3Meta(meta []byte) (*snapMeta, int, error) {
	dec := &snapDecoder{b: meta}
	m, err := decodeSnapMeta(dec, snapVersion)
	if err != nil {
		return nil, 0, err
	}
	off := dec.fixed64()
	if dec.err != nil {
		return nil, 0, fmt.Errorf("core: restore: %w", dec.err)
	}
	if dec.off != len(dec.b) {
		return nil, 0, fmt.Errorf("core: restore: %d trailing bytes in meta section", len(dec.b)-dec.off)
	}
	minOff := uint64(snapHeaderLen + len(meta) + 4)
	switch {
	case off%snapAlign != 0:
		return nil, 0, fmt.Errorf("core: restore: window offset %d is not %d-byte aligned", off, snapAlign)
	case off < minOff:
		return nil, 0, fmt.Errorf("core: restore: window offset %d overlaps the meta section (which ends at %d)", off, minOff)
	case off-minOff >= snapAlign:
		return nil, 0, fmt.Errorf("core: restore: window offset %d leaves more than one page of padding", off)
	}
	return m, int(off), nil
}

// decodeWindowRegion converts the raw stream-major window region into its
// float64 values.
func decodeWindowRegion(region []byte) []float64 {
	vals := make([]float64, len(region)/8)
	for i := range vals {
		vals[i] = math.Float64frombits(binary.LittleEndian.Uint64(region[i*8:]))
	}
	return vals
}

// snapMeta is the decoded meta section of an image: everything the restore
// needs except the window values themselves.
type snapMeta struct {
	cfg    Config
	names  []string
	refs   map[string]ReferenceSet
	tick   int
	wTick  int
	stats  EngineStats
	last   []float64
	filled int
}

// decodeSnapMeta parses the meta fields shared by every format version
// (config through the retained tick count), with every count and length
// bounded by the bytes actually present, so a crafted image cannot allocate
// beyond its own size. The CRC only catches accidental corruption, never
// crafted images, and the public restore API must return errors — never
// panic or OOM.
func decodeSnapMeta(dec *snapDecoder, version uint32) (*snapMeta, error) {
	m := &snapMeta{}
	m.cfg = dec.decodeConfig(version)
	// Bound the decoded dimensions before any size computed from them is
	// allocated or handed to the window constructor. The restore's first
	// append allocates the window backing (L + l + L/4 floats per stream) and
	// Workers sizes the tick pool's scratch, so both are checked
	// before NewEngine can allocate from them. The caps are the same ones Validate enforces, so
	// every engine that could be snapshotted restores.
	if dec.err == nil && (m.cfg.WindowLength < 0 || m.cfg.WindowLength > MaxWindowLength) {
		dec.fail(fmt.Errorf("implausible window length %d", m.cfg.WindowLength))
	}
	if dec.err == nil && (m.cfg.Workers < 0 || m.cfg.Workers > MaxWorkers) {
		dec.fail(fmt.Errorf("implausible worker count %d", m.cfg.Workers))
	}

	// Count fields are bounded by the bytes actually present — every name
	// costs at least its 1-byte length prefix, every reference set at least 3
	// bytes — so a tiny crafted image cannot pre-allocate gigabytes from a
	// claimed count before the first string decode fails on truncation.
	nNames := int(dec.uint())
	if dec.err == nil && (nNames <= 0 || nNames > 1<<24 || nNames > len(dec.b)-dec.off) {
		dec.fail(fmt.Errorf("implausible stream count %d", nNames))
	}
	if dec.err != nil {
		return nil, fmt.Errorf("core: restore: %w", dec.err)
	}
	m.names = make([]string, nNames)
	known := make(map[string]string, nNames)
	for i := range m.names {
		m.names[i] = dec.str()
		// window.New panics on duplicate names; a crafted image must surface
		// as an error here instead.
		if _, dup := known[m.names[i]]; dup && dec.err == nil {
			dec.fail(fmt.Errorf("duplicate stream name %q", m.names[i]))
		}
		known[m.names[i]] = m.names[i]
	}

	nRefs := int(dec.uint())
	if dec.err == nil && (nRefs < 0 || nRefs > (len(dec.b)-dec.off)/3) {
		dec.fail(fmt.Errorf("implausible reference set count %d", nRefs))
	}
	if dec.err != nil {
		return nil, fmt.Errorf("core: restore: %w", dec.err)
	}
	// Reference sets name streams, so their strings share the stream names'
	// storage and each candidate list is sized once: a restored engine holds
	// its ranked sets in the same bytes as the engine that was snapshotted.
	m.refs = make(map[string]ReferenceSet, nRefs)
	for i := 0; i < nRefs && dec.err == nil; i++ {
		key := dec.name(known)
		rs := ReferenceSet{Stream: dec.name(known)}
		nc := int(dec.uint())
		if dec.err == nil && (nc < 0 || nc > len(dec.b)-dec.off) {
			dec.fail(fmt.Errorf("implausible candidate count %d", nc))
		}
		if dec.err == nil && nc > 0 {
			rs.Candidates = make([]string, nc)
			for j := range rs.Candidates {
				rs.Candidates[j] = dec.name(known)
			}
		}
		m.refs[key] = rs
	}

	m.tick = int(dec.int())
	m.wTick = int(dec.int())
	m.stats.Ticks = int(dec.int())
	m.stats.Imputations = int(dec.int())
	m.stats.ColdStartFills = int(dec.int())
	m.stats.ReferenceErrors = int(dec.int())
	m.stats.InsufficientHist = int(dec.int())

	m.last = make([]float64, nNames)
	for i := range m.last {
		m.last[i] = dec.float()
	}

	m.filled = int(dec.uint())
	if dec.err == nil && (m.filled < 0 || m.filled > m.cfg.WindowLength) {
		dec.fail(fmt.Errorf("retained length %d exceeds window length %d", m.filled, m.cfg.WindowLength))
	}
	if dec.err != nil {
		return nil, fmt.Errorf("core: restore: %w", dec.err)
	}
	return m, nil
}

// finish validates the tick counters against the decoded window values
// (stream-major, filled values per stream) and assembles the engine. The
// retained values are already imputed (complete), so bulk-loading them
// through the columnar append path rebuilds exactly the state a live engine
// would hold — bit-identical to replaying them row by row, the TickColumns
// equivalence — with the profiler aggregates left to the demand-driven
// catch-up.
func (m *snapMeta) finish(hist []float64) (*Engine, error) {
	if m.wTick < m.filled-1 || m.tick < m.filled {
		return nil, fmt.Errorf("core: restore: tick counters (%d, %d) predate the %d retained values", m.tick, m.wTick, m.filled)
	}
	e, err := NewEngine(m.cfg, m.names, m.refs)
	if err != nil {
		return nil, fmt.Errorf("core: restore: %w", err)
	}
	if m.filled > 0 {
		cols := make([][]float64, len(m.names))
		for i := range cols {
			cols[i] = hist[i*m.filled : (i+1)*m.filled]
		}
		e.w.AdvanceColumns(cols, 0, m.filled)
	}
	e.tick = m.tick
	e.w.SetTick(m.wTick)
	e.Stats = m.stats
	copy(e.last, m.last)
	return e, nil
}

// snapEncoder accumulates the snapshot payload.
type snapEncoder struct {
	buf     bytes.Buffer
	scratch [binary.MaxVarintLen64]byte
}

func (e *snapEncoder) uint(v uint64) {
	n := binary.PutUvarint(e.scratch[:], v)
	e.buf.Write(e.scratch[:n])
}

func (e *snapEncoder) int(v int64) {
	n := binary.PutVarint(e.scratch[:], v)
	e.buf.Write(e.scratch[:n])
}

func (e *snapEncoder) bool(v bool) {
	b := byte(0)
	if v {
		b = 1
	}
	e.buf.WriteByte(b)
}

func (e *snapEncoder) float(v float64) {
	binary.LittleEndian.PutUint64(e.scratch[:8], math.Float64bits(v))
	e.buf.Write(e.scratch[:8])
}

func (e *snapEncoder) fixed64(v uint64) {
	binary.LittleEndian.PutUint64(e.scratch[:8], v)
	e.buf.Write(e.scratch[:8])
}

func (e *snapEncoder) str(s string) {
	e.uint(uint64(len(s)))
	e.buf.WriteString(s)
}

func (e *snapEncoder) encodeConfig(c Config) {
	e.int(int64(c.K))
	e.int(int64(c.PatternLength))
	e.int(int64(c.D))
	e.int(int64(c.WindowLength))
	e.int(int64(c.Norm))
	e.int(int64(c.Selection))
	e.int(int64(c.Profiler))
	e.int(int64(c.Workers))
	e.bool(c.WeightedMean)
	e.bool(false) // retired: eager profiler
	e.bool(false) // retired: skip diagnostics
	e.bool(false) // retired: FFT alias
	e.bool(false) // retired: float32 profiles (v2+)
}

// snapDecoder parses a payload with a sticky error: after the first failure
// every accessor returns a zero value, so call sites stay linear.
type snapDecoder struct {
	b   []byte
	off int
	err error
}

func (d *snapDecoder) fail(err error) {
	if d.err == nil {
		d.err = err
	}
}

func (d *snapDecoder) uint() uint64 {
	if d.err != nil {
		return 0
	}
	v, n := binary.Uvarint(d.b[d.off:])
	if n <= 0 {
		d.fail(fmt.Errorf("truncated varint at offset %d", d.off))
		return 0
	}
	d.off += n
	return v
}

func (d *snapDecoder) int() int64 {
	if d.err != nil {
		return 0
	}
	v, n := binary.Varint(d.b[d.off:])
	if n <= 0 {
		d.fail(fmt.Errorf("truncated varint at offset %d", d.off))
		return 0
	}
	d.off += n
	return v
}

func (d *snapDecoder) bool() bool {
	if d.err != nil {
		return false
	}
	if d.off >= len(d.b) {
		d.fail(fmt.Errorf("truncated bool at offset %d", d.off))
		return false
	}
	v := d.b[d.off]
	d.off++
	return v != 0
}

func (d *snapDecoder) float() float64 {
	if d.err != nil {
		return 0
	}
	if d.off+8 > len(d.b) {
		d.fail(fmt.Errorf("truncated float at offset %d", d.off))
		return 0
	}
	v := math.Float64frombits(binary.LittleEndian.Uint64(d.b[d.off:]))
	d.off += 8
	return v
}

func (d *snapDecoder) fixed64() uint64 {
	if d.err != nil {
		return 0
	}
	if d.off+8 > len(d.b) {
		d.fail(fmt.Errorf("truncated uint64 at offset %d", d.off))
		return 0
	}
	v := binary.LittleEndian.Uint64(d.b[d.off:])
	d.off += 8
	return v
}

func (d *snapDecoder) str() string { return string(d.strBytes()) }

// name decodes a string that usually names a stream, returning the stream's
// own string from known when it does instead of a copy.
func (d *snapDecoder) name(known map[string]string) string {
	b := d.strBytes()
	if s, ok := known[string(b)]; ok {
		return s
	}
	return string(b)
}

// strBytes decodes a length-prefixed string, returning its bytes in place.
func (d *snapDecoder) strBytes() []byte {
	n := int(d.uint())
	if d.err != nil {
		return nil
	}
	// Compare n against the remaining bytes without computing d.off+n: for a
	// crafted length near 2^63-1 the sum would overflow int to a negative
	// value and slip past the bound into a panicking slice expression.
	if n < 0 || n > len(d.b)-d.off {
		d.fail(fmt.Errorf("truncated string at offset %d", d.off))
		return nil
	}
	b := d.b[d.off : d.off+n]
	d.off += n
	return b
}

func (d *snapDecoder) decodeConfig(version uint32) Config {
	var c Config
	c.K = int(d.int())
	c.PatternLength = int(d.int())
	c.D = int(d.int())
	c.WindowLength = int(d.int())
	c.Norm = Norm(d.int())
	c.Selection = Selection(d.int())
	c.Profiler = ProfilerKind(d.int())
	c.Workers = int(d.int())
	c.WeightedMean = d.bool()
	d.bool() // retired: eager profiler
	d.bool() // retired: skip diagnostics
	d.bool() // retired: FFT alias
	if version >= 2 {
		d.bool() // retired: float32 profiles
	}
	return c
}
