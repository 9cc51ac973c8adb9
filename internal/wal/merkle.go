package wal

import (
	"crypto/hmac"
	"crypto/sha256"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"os"
	"path/filepath"

	"tkcm/internal/durable"
)

// Tamper-evident integrity layer.
//
// Every record frame is a Merkle LEAF: leaf = SHA-256(0x00 ‖ frame bytes).
// Leaves accumulate into a per-segment Merkle tree through a mountain-range
// accumulator (O(log n) memory, O(1) amortized hashes per leaf); interior
// nodes hash as SHA-256(0x01 ‖ left ‖ right). The tree is left-leaning:
// finalization folds the pending peaks right-to-left, so the root is a pure
// function of the leaf sequence — an offline verifier recomputes it from the
// segment bytes alone.
//
// Hashing happens on the SYNC path, not the append path: the group-commit
// syncer walks the batch it is about to write, hashes each frame, and then
// appends one COMMIT FRAME to the same write — so integrity rides the fsync
// the batch already pays, and AppendBatch stays a memcpy. A commit frame
// carries the durable sequence number, the segment's Merkle root over every
// record so far, and an HMAC-SHA256 binding (identity, segment, seq, chain
// value) under the server key. The chain value links segments:
//
//	chain₀   = SHA-256("tkcm-chain-genesis\x00" ‖ identity)
//	chainₖ   = SHA-256(0x02 ‖ chainₖ₋₁ ‖ rootₖ)     (segment k sealed)
//
// so substituting, reordering, or truncating whole segments breaks the chain
// even though every segment is internally consistent.
//
// The per-tenant HEAD file (head.tkcmh, temp+rename+fsync like the routing
// table) is the signed anchor: the chain base (raised by Truncate once a
// checkpoint covers removed segments), one entry per sealed segment
// {firstSeq, lastSeq, root}, the active segment's name, and the highest
// sequence number proven durable at the last head save — all under one
// HMAC-SHA256. Open refuses a log whose head is missing (while segments
// exist), whose MAC fails, or whose inventory disagrees with the directory.
const (
	headMagic = "TKCMHD01"
	// HeadFileName is the per-tenant signed chain anchor inside the log dir.
	HeadFileName = "head.tkcmh"
	// commitFlag marks the count field of a commit frame (bit 30; batch
	// records use bit 31, plain counts stay below 1<<24).
	commitFlag = 1 << 30
	// commitPayloadLen: seq u64 | flags u32 | root 32 | mac 32.
	commitPayloadLen = 8 + 4 + 32 + 32
	// maxHeadSealed bounds the sealed-entry count a head decoder accepts;
	// segments rotate at tens of MiB and truncate after checkpoints, so even
	// a pathological deployment stays far below it.
	maxHeadSealed = 1 << 20
)

// hashSize is the byte length of every hash in the chain (SHA-256).
const hashSize = sha256.Size

// chainGenesis derives the chain's starting value from the log identity
// (the tenant's directory name), binding the whole chain to the tenant so a
// byte-identical copy of another tenant's log cannot be substituted.
func chainGenesis(identity string) [hashSize]byte {
	h := sha256.New()
	h.Write([]byte("tkcm-chain-genesis\x00"))
	h.Write([]byte(identity))
	var out [hashSize]byte
	h.Sum(out[:0])
	return out
}

// chainNext advances the cross-segment chain over a sealed segment's root.
func chainNext(prev, root [hashSize]byte) [hashSize]byte {
	h := sha256.New()
	h.Write([]byte{0x02})
	h.Write(prev[:])
	h.Write(root[:])
	var out [hashSize]byte
	h.Sum(out[:0])
	return out
}

// leafHash hashes one record frame, given as its header and payload slices
// (contiguous in some callers, separate buffers in the segment scanner).
func leafHash(hdr, payload []byte) [hashSize]byte {
	h := sha256.New()
	h.Write([]byte{0x00})
	h.Write(hdr)
	h.Write(payload)
	var out [hashSize]byte
	h.Sum(out[:0])
	return out
}

// nodeHash combines two subtree hashes.
func nodeHash(left, right [hashSize]byte) [hashSize]byte {
	h := sha256.New()
	h.Write([]byte{0x01})
	h.Write(left[:])
	h.Write(right[:])
	var out [hashSize]byte
	h.Sum(out[:0])
	return out
}

// emptyRoot is the Merkle root of a segment with no records.
var emptyRoot = sha256.Sum256([]byte("tkcm-merkle-empty"))

// merkleAcc is the mountain-range accumulator: peaks[i] holds the root of a
// complete subtree; heights strictly decrease left to right. Pushing a leaf
// merges equal-height peaks, so memory stays O(log n) for any segment size.
type merkleAcc struct {
	peaks   [][hashSize]byte
	heights []uint8
	leaves  uint64
}

func (a *merkleAcc) reset() {
	a.peaks = a.peaks[:0]
	a.heights = a.heights[:0]
	a.leaves = 0
}

// push adds one leaf hash.
func (a *merkleAcc) push(leaf [hashSize]byte) {
	a.peaks = append(a.peaks, leaf)
	a.heights = append(a.heights, 0)
	a.leaves++
	for n := len(a.peaks); n >= 2 && a.heights[n-1] == a.heights[n-2]; n = len(a.peaks) {
		a.peaks[n-2] = nodeHash(a.peaks[n-2], a.peaks[n-1])
		a.heights[n-2]++
		a.peaks = a.peaks[:n-1]
		a.heights = a.heights[:n-1]
	}
}

// root folds the pending peaks right-to-left into the current Merkle root
// without disturbing the accumulator (more leaves may follow).
func (a *merkleAcc) root() [hashSize]byte {
	if len(a.peaks) == 0 {
		return emptyRoot
	}
	r := a.peaks[len(a.peaks)-1]
	for i := len(a.peaks) - 2; i >= 0; i-- {
		r = nodeHash(a.peaks[i], r)
	}
	return r
}

// commitMAC binds a commit frame to the log identity, its segment, the
// durable sequence number, and the chain value, under the server key. An
// empty key still yields a deterministic MAC — integrity without
// authenticity — so the format is identical with and without key material.
func commitMAC(key []byte, identity string, segFirstSeq, seq uint64, chain [hashSize]byte) [hashSize]byte {
	mac := hmac.New(sha256.New, key)
	mac.Write([]byte("tkcm-commit\x00"))
	mac.Write([]byte(identity))
	var n [16]byte
	binary.LittleEndian.PutUint64(n[0:8], segFirstSeq)
	binary.LittleEndian.PutUint64(n[8:16], seq)
	mac.Write(n[:])
	mac.Write(chain[:])
	var out [hashSize]byte
	mac.Sum(out[:0])
	return out
}

// appendCommitFrame encodes one commit frame (standard record framing, flag
// bit 30) onto dst and returns the extended slice.
func appendCommitFrame(dst []byte, key []byte, identity string, segFirstSeq, seq uint64, root, chain [hashSize]byte) []byte {
	off := len(dst)
	dst = append(dst, make([]byte, recHeader+commitPayloadLen)...)
	b := dst[off:]
	binary.LittleEndian.PutUint32(b[0:4], commitPayloadLen)
	binary.LittleEndian.PutUint64(b[8:16], seq)
	binary.LittleEndian.PutUint32(b[16:20], commitFlag)
	copy(b[20:52], root[:])
	mac := commitMAC(key, identity, segFirstSeq, seq, chain)
	copy(b[52:84], mac[:])
	binary.LittleEndian.PutUint32(b[4:8], crc32.ChecksumIEEE(b[recHeader:recHeader+commitPayloadLen]))
	return dst
}

// sealedSegment is one head entry: a rotated-away segment whose content is
// frozen and whose Merkle root is pinned.
type sealedSegment struct {
	firstSeq uint64
	lastSeq  uint64
	root     [hashSize]byte
}

// headState is the decoded (or in-memory) head file.
type headState struct {
	identity string
	// baseSeq is the highest sequence number retired by Truncate: every
	// record still on disk has seq > baseSeq, and the chain restarts at
	// baseChain (genesis for a never-truncated log).
	baseSeq   uint64
	baseChain [hashSize]byte
	// durableSeq is the highest sequence number proven durable at the last
	// head save. The live log's durable watermark runs ahead of it between
	// saves (commit frames cover the gap); a log whose on-disk records prove
	// LESS than durableSeq has lost acknowledged data.
	durableSeq uint64
	// activeFirstSeq names the active segment (seg-<activeFirstSeq>.wal).
	activeFirstSeq uint64
	sealed         []sealedSegment
}

// chainThroughSealed folds the base chain through every sealed root.
func (h *headState) chainThroughSealed() [hashSize]byte {
	c := h.baseChain
	for _, s := range h.sealed {
		c = chainNext(c, s.root)
	}
	return c
}

// clone deep-copies h so a mutation can be prepared, saved, and only then
// installed — a failed save leaves the in-memory head untouched.
func (h *headState) clone() *headState {
	c := *h
	c.sealed = append([]sealedSegment(nil), h.sealed...)
	return &c
}

// encodeHead serializes h and appends the HMAC trailer.
func encodeHead(h *headState, key []byte) []byte {
	buf := make([]byte, 0, len(headMagic)+2+len(h.identity)+8+hashSize+8+8+4+len(h.sealed)*(16+hashSize)+hashSize)
	buf = append(buf, headMagic...)
	var tmp [8]byte
	binary.LittleEndian.PutUint16(tmp[:2], uint16(len(h.identity)))
	buf = append(buf, tmp[:2]...)
	buf = append(buf, h.identity...)
	binary.LittleEndian.PutUint64(tmp[:], h.baseSeq)
	buf = append(buf, tmp[:]...)
	buf = append(buf, h.baseChain[:]...)
	binary.LittleEndian.PutUint64(tmp[:], h.durableSeq)
	buf = append(buf, tmp[:]...)
	binary.LittleEndian.PutUint64(tmp[:], h.activeFirstSeq)
	buf = append(buf, tmp[:]...)
	binary.LittleEndian.PutUint32(tmp[:4], uint32(len(h.sealed)))
	buf = append(buf, tmp[:4]...)
	for _, s := range h.sealed {
		binary.LittleEndian.PutUint64(tmp[:], s.firstSeq)
		buf = append(buf, tmp[:]...)
		binary.LittleEndian.PutUint64(tmp[:], s.lastSeq)
		buf = append(buf, tmp[:]...)
		buf = append(buf, s.root[:]...)
	}
	mac := headMAC(key, buf)
	buf = append(buf, mac[:]...)
	return buf
}

func headMAC(key, body []byte) [hashSize]byte {
	mac := hmac.New(sha256.New, key)
	mac.Write([]byte("tkcm-head\x00"))
	mac.Write(body)
	var out [hashSize]byte
	mac.Sum(out[:0])
	return out
}

// decodeHead parses a head image. Every length is bounded against the bytes
// that remain, trailing bytes are rejected, and the sealed entries must be
// strictly ordered — the decoder survives crafted images (fuzzed by
// FuzzHeadDecode). The MAC is NOT checked here: callers that hold the key
// call verifyHeadMAC with the raw image.
func decodeHead(raw []byte) (*headState, error) {
	bad := func(format string, args ...any) (*headState, error) {
		return nil, fmt.Errorf("%w: head: %s", ErrCorrupt, fmt.Sprintf(format, args...))
	}
	if len(raw) < len(headMagic)+2 {
		return bad("truncated (%d bytes)", len(raw))
	}
	if string(raw[:len(headMagic)]) != headMagic {
		return bad("bad magic %q", raw[:len(headMagic)])
	}
	p := raw[len(headMagic):]
	idLen := int(binary.LittleEndian.Uint16(p[:2]))
	p = p[2:]
	if len(p) < idLen {
		return bad("identity length %d exceeds remaining %d bytes", idLen, len(p))
	}
	h := &headState{identity: string(p[:idLen])}
	p = p[idLen:]
	const fixed = 8 + hashSize + 8 + 8 + 4
	if len(p) < fixed {
		return bad("truncated after identity")
	}
	h.baseSeq = binary.LittleEndian.Uint64(p[0:8])
	copy(h.baseChain[:], p[8:8+hashSize])
	p = p[8+hashSize:]
	h.durableSeq = binary.LittleEndian.Uint64(p[0:8])
	h.activeFirstSeq = binary.LittleEndian.Uint64(p[8:16])
	n := binary.LittleEndian.Uint32(p[16:20])
	p = p[20:]
	const entryLen = 16 + hashSize
	if n > maxHeadSealed || uint64(len(p)) < uint64(n)*entryLen+hashSize {
		return bad("sealed count %d exceeds remaining %d bytes", n, len(p))
	}
	h.sealed = make([]sealedSegment, n)
	prevLast := h.baseSeq
	for i := range h.sealed {
		s := &h.sealed[i]
		s.firstSeq = binary.LittleEndian.Uint64(p[0:8])
		s.lastSeq = binary.LittleEndian.Uint64(p[8:16])
		copy(s.root[:], p[16:16+hashSize])
		p = p[entryLen:]
		if s.firstSeq == 0 || s.firstSeq <= prevLast || s.lastSeq < s.firstSeq {
			return bad("sealed entry %d out of order (%d..%d after %d)", i, s.firstSeq, s.lastSeq, prevLast)
		}
		prevLast = s.lastSeq
	}
	if h.activeFirstSeq <= prevLast {
		return bad("active segment seq %d not past sealed tail %d", h.activeFirstSeq, prevLast)
	}
	if h.durableSeq < h.baseSeq {
		return bad("durable seq %d below base %d", h.durableSeq, h.baseSeq)
	}
	if len(p) != hashSize {
		return bad("%d trailing bytes", len(p)-hashSize)
	}
	return h, nil
}

// verifyHeadMAC checks a raw head image's HMAC trailer against key.
func verifyHeadMAC(raw, key []byte) error {
	if len(raw) < hashSize {
		return fmt.Errorf("%w: head: truncated", ErrCorrupt)
	}
	body, mac := raw[:len(raw)-hashSize], raw[len(raw)-hashSize:]
	want := headMAC(key, body)
	if !hmac.Equal(mac, want[:]) {
		return fmt.Errorf("%w: head: HMAC mismatch (tampered, or wrong integrity key)", ErrCorrupt)
	}
	return nil
}

// loadHead reads and decodes dir's head file. A missing file returns
// (nil, nil): the caller decides whether that is a fresh log or corruption.
func loadHead(fsys durable.FS, dir string) (*headState, []byte, error) {
	raw, err := fsys.ReadFile(filepath.Join(dir, HeadFileName))
	if errors.Is(err, os.ErrNotExist) {
		return nil, nil, nil
	}
	if err != nil {
		return nil, nil, fmt.Errorf("wal: reading head: %w", err)
	}
	h, err := decodeHead(raw)
	if err != nil {
		return nil, nil, err
	}
	return h, raw, nil
}

// saveHead installs an encoded head image in dir atomically
// (durable.Replace): a crash at any instant leaves the old head or the new
// one, never a tear. The replica installs the primary's verified image
// byte-for-byte, so the MACs transfer without the follower re-signing.
func saveHead(fsys durable.FS, dir string, image []byte) error {
	if err := durable.Replace(fsys, dir, HeadFileName, func(w io.Writer) error {
		_, err := w.Write(image)
		return err
	}); err != nil {
		return fmt.Errorf("wal: head: %w", err)
	}
	return nil
}

// chainScan verifies one segment's frames as they stream past: record
// frames feed the Merkle accumulator, commit frames are checked against the
// recomputed root, the cross-segment chain value, and (with checkMAC) the
// HMAC. Every read of a log directory scans with one — the walk behind Open,
// Replay, ReplayTail and VerifyTenant (walk.go) — as do the write path's
// commit bookkeeping and the replica's delta verification.
type chainScan struct {
	identity    string
	key         []byte
	checkMAC    bool
	segFirstSeq uint64
	prevChain   [hashSize]byte // chain value after the previous sealed segment
	acc         merkleAcc

	// Outputs, valid after the scan.
	lastCommitSeq uint64 // durable-through proven by the last valid commit
	lastCommitOff int64  // file offset just past that commit frame
	commits       int
	records       uint64 // record frames seen (batch rows counted per frame)
	sawCommit     bool
	// atCommit is the tree as of the last valid commit frame: a writer that
	// cuts an uncommitted tail resumes the segment's tree from it.
	atCommit merkleAcc
}

// onRecord feeds one record frame (header + payload) into the tree.
func (cs *chainScan) onRecord(hdr, payload []byte) {
	cs.acc.push(leafHash(hdr, payload))
	cs.records++
}

// onCommit validates one commit frame at endOff (offset just past it).
func (cs *chainScan) onCommit(payload []byte, seq uint64, endOff int64) error {
	var root, mac [hashSize]byte
	copy(root[:], payload[12:12+hashSize])
	copy(mac[:], payload[12+hashSize:12+2*hashSize])
	want := cs.acc.root()
	if root != want {
		return fmt.Errorf("%w: commit at offset %d: Merkle root mismatch (records tampered)", ErrCorrupt, endOff)
	}
	if cs.checkMAC {
		chain := chainNext(cs.prevChain, root)
		wantMAC := commitMAC(cs.key, cs.identity, cs.segFirstSeq, seq, chain)
		if !hmac.Equal(mac[:], wantMAC[:]) {
			return fmt.Errorf("%w: commit at offset %d: HMAC mismatch (tampered, or wrong integrity key)", ErrCorrupt, endOff)
		}
	}
	cs.lastCommitSeq = seq
	cs.lastCommitOff = endOff
	cs.commits++
	cs.sawCommit = true
	cs.atCommit.peaks = append(cs.atCommit.peaks[:0], cs.acc.peaks...)
	cs.atCommit.heights = append(cs.atCommit.heights[:0], cs.acc.heights...)
	cs.atCommit.leaves = cs.acc.leaves
	return nil
}

// sealRoot returns the segment's final Merkle root.
func (cs *chainScan) sealRoot() [hashSize]byte { return cs.acc.root() }

// hasCommitBeyond reports whether data contains a structurally valid,
// CRC-correct commit frame at ANY byte offset. It is the tamper/torn-tail
// disambiguator: crash damage is confined to the one un-fsynced write at the
// end of a segment, so an unreadable frame FOLLOWED by a surviving commit
// frame cannot be crash damage — records that were fsynced (and possibly
// acknowledged) have been tampered with. Only runs on the damage path.
func hasCommitBeyond(data []byte) bool {
	const frame = recHeader + commitPayloadLen
	for i := 0; i+frame <= len(data); i++ {
		if binary.LittleEndian.Uint32(data[i:]) != commitPayloadLen {
			continue
		}
		// flags field sits at payload offset 8 (after the seq u64).
		if binary.LittleEndian.Uint32(data[i+recHeader+8:]) != commitFlag {
			continue
		}
		if crc32.ChecksumIEEE(data[i+recHeader:i+frame]) == binary.LittleEndian.Uint32(data[i+4:]) {
			return true
		}
	}
	return false
}

// walkFrames parses a buffer of complete frames (the in-memory group-commit
// batch, or a replication delta) and feeds each into cs. Record frames become
// leaves; commit frames are validated like scanSegment does. lastSeq carries
// the running last record seq across calls (0 = none yet).
func walkFrames(data []byte, cs *chainScan, lastSeq uint64) (uint64, error) {
	off := 0
	for off < len(data) {
		if off+recHeader > len(data) {
			return lastSeq, fmt.Errorf("%w: truncated frame header at offset %d", ErrCorrupt, off)
		}
		payloadLen := int(binary.LittleEndian.Uint32(data[off:]))
		if payloadLen < 12 || payloadLen > 16+8*maxRecordValues || off+recHeader+payloadLen > len(data) {
			return lastSeq, fmt.Errorf("%w: implausible frame length %d at offset %d", ErrCorrupt, payloadLen, off)
		}
		frame := data[off : off+recHeader+payloadLen]
		payload := frame[recHeader:]
		if crc32.ChecksumIEEE(payload) != binary.LittleEndian.Uint32(frame[4:8]) {
			return lastSeq, fmt.Errorf("%w: frame checksum mismatch at offset %d", ErrCorrupt, off)
		}
		seq := binary.LittleEndian.Uint64(payload[0:8])
		n := binary.LittleEndian.Uint32(payload[8:12])
		if n&batchCountFlag == 0 && n&commitFlag != 0 {
			if n != commitFlag || payloadLen != commitPayloadLen || seq != lastSeq || lastSeq == 0 {
				return lastSeq, fmt.Errorf("%w: malformed commit frame at offset %d", ErrCorrupt, off)
			}
			if err := cs.onCommit(payload, seq, int64(off+len(frame))); err != nil {
				return lastSeq, err
			}
		} else {
			_, rows, _ := recordShape(payload)
			if rows == 0 {
				return lastSeq, fmt.Errorf("%w: short or empty batch frame at offset %d", ErrCorrupt, off)
			}
			cs.onRecord(frame[:recHeader], payload)
			lastSeq = seq + uint64(rows) - 1
		}
		off += len(frame)
	}
	return lastSeq, nil
}
