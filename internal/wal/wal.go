package wal

import (
	"bufio"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"math"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"tkcm/internal/durable"
)

// Record framing — every record is self-verifying:
//
//	payloadLen  uint32 LE (bytes of payload)
//	crc         uint32 LE, IEEE CRC-32 of the payload
//	payload:    seq uint64 LE | count uint32 LE | count × float64 bits LE
//
// An AppendBatch of one row writes that plain record (count = the row's
// width). Two or more rows write a BATCH record, which packs k consecutive
// rows of one width into a single frame — one length, one CRC, one
// group-commit slot for the lot. It is distinguished by bit 31 of the count
// field (no legal single record can set it: maxRecordValues is far below):
//
//	payload:    seq uint64 LE | width|batchCountFlag uint32 LE |
//	            rows uint32 LE | rows × width × float64 bits LE
//
// seq is the FIRST row's sequence number; row i carries seq+i. Replay
// delivers batch rows one by one, so readers never see the difference. A
// torn batch frame loses the whole batch — safe, because its single commit
// slot means no row of it was acknowledged before the covering fsync.
//
// Each segment file starts with the 8-byte magic "TKCMWAL1" and is named
// seg-<firstSeq>.wal (20-digit zero-padded decimal), so the segment order
// and the sequence range it covers are recoverable from the directory
// listing alone.
const (
	segMagic  = "TKCMWAL1"
	segPrefix = "seg-"
	segSuffix = ".wal"
	// recHeader is the fixed framing prefix: payloadLen + crc.
	recHeader = 8
	// maxRecordValues bounds one record's value count — and one batch
	// record's total value count (rows × width) — against corrupt or
	// crafted length fields (a row wider than this could not have been
	// appended: core.MaxWindowLength bounds engines far below it).
	maxRecordValues = 1 << 24
	// batchCountFlag marks the count field of a batch record; the low bits
	// then hold the per-row width and a rows uint32 follows.
	batchCountFlag = 1 << 31
)

// Sentinel errors of the log boundary; match with errors.Is.
var (
	// ErrClosed is returned by operations on a closed Log.
	ErrClosed = errors.New("wal: log closed")
	// ErrOutOfOrder is returned by AppendBatch when seq is not the log's next
	// expected sequence number.
	ErrOutOfOrder = errors.New("wal: out-of-order sequence number")
	// ErrCorrupt is returned by Replay when a non-final segment contains an
	// unreadable record — acked data after it cannot be recovered, which the
	// caller must surface rather than silently skip.
	ErrCorrupt = errors.New("wal: corrupt segment")
	// ErrLogFailed is wrapped, with the latched cause, by AppendBatch once a
	// write or fsync failure has fail-stopped the log. The refused batch was
	// not written, so a caller that applies rows only after a successful
	// append never applied it, and replaying it after a restart is safe.
	ErrLogFailed = errors.New("wal: log failed")
)

// Options tunes a Log. The zero value gets conservative defaults.
type Options struct {
	// SyncInterval is the group-commit window: appends are batched and one
	// fsync makes the whole batch durable, so ack latency is bounded by the
	// interval while the fsync cost amortizes over every record in the
	// batch. Zero or negative syncs every append (slowest, strictest).
	SyncInterval time.Duration
	// SegmentBytes rotates the active segment once it exceeds this size
	// (default 64 MiB). Smaller segments make truncation reclaim space
	// sooner; each rotation costs one fsync + file creation.
	SegmentBytes int64
	// Key authenticates the log's integrity layer: commit frames and the
	// per-tenant head file carry HMAC-SHA256 tags under this key, so a log
	// directory cannot be substituted or re-signed without it. An empty key
	// still gets the full Merkle machinery — integrity without authenticity:
	// accidental corruption is detected, a key-holding forger is not.
	Key []byte
	// FS is the file system the log reaches the disk through; nil means the
	// host's (durable.OS). Tests substitute one to fail or observe any
	// single file operation.
	FS durable.FS
}

// fs returns the file system o names.
func (o Options) fs() durable.FS {
	if o.FS == nil {
		return durable.OS{}
	}
	return o.FS
}

func (o Options) segmentBytes() int64 {
	if o.SegmentBytes <= 0 {
		return 64 << 20
	}
	return o.SegmentBytes
}

// counters aggregates activity across the logs of one Manager (atomics live
// in Manager; a standalone Log carries its own private set).
type counters struct {
	appends   func(uint64)
	syncs     func(uint64)
	syncErrs  func(uint64)
	bytes     func(uint64)
	truncates func(uint64)
}

func noopCounters() *counters {
	f := func(uint64) {}
	return &counters{appends: f, syncs: f, syncErrs: f, bytes: f, truncates: f}
}

// batch is one group commit in flight: every AppendBatch between two syncs
// shares it. done closes after the covering fsync; err then holds its
// outcome.
type batch struct {
	done chan struct{}
	err  error
}

// Commit is the durability handle of one AppendBatch: Wait blocks until the
// fsync covering the record completes and reports its outcome. Acknowledge a
// write only after Wait returns nil.
type Commit struct {
	b *batch
	// Verify mode (DurableCommit): Wait instead ensures the record with
	// sequence number seq is on stable storage, forcing a sync when needed.
	l   *Log
	seq uint64
}

// Wait blocks until the record's group commit has been fsynced.
func (c Commit) Wait() error {
	if c.l != nil {
		if c.l.durable.Load() >= c.seq {
			return nil
		}
		if err := c.l.Sync(); err != nil {
			return err
		}
		if c.l.durable.Load() < c.seq {
			return fmt.Errorf("wal: record %d is not on stable storage (its log record was lost)", c.seq)
		}
		return nil
	}
	if c.b == nil {
		return nil
	}
	<-c.b.done
	return c.b.err
}

// DurableCommit returns a Commit whose Wait verifies that the record with
// sequence number seq is on stable storage, syncing the pending batch if it
// is not yet covered. It lets a caller that must re-promise durability for an
// already-applied record (acking a replayed duplicate) push the fsync onto
// the goroutine that Waits instead of the one producing ticks.
func (l *Log) DurableCommit(seq uint64) Commit { return Commit{l: l, seq: seq} }

// Log is one tenant's append-only tick log.
//
// Locking discipline: mu guards only the in-memory state — the encode
// buffer, the pending batch, and the sequence counter — so AppendBatch costs
// a memcpy and never waits on disk (critical: the serving layer appends from
// a shard goroutine that hosts many tenants). All file I/O (write, fsync,
// rotation) happens under syncMu, held by at most one syncer at a time (the
// flusher goroutine, or AppendBatch/Sync/Close in strict paths), with mu
// released before the disk is touched.
//
// Encode buffers: appends fill buf while a sync writes the buffer it
// detached, and the sync hands that buffer back as the spare, so a log holds
// two distinct arrays. A written buffer above spareFloor bytes that carried
// less than a quarter of its capacity is dropped instead of recycled, so the
// two follow the log's recent group commits rather than the largest one it
// ever wrote; an idle log keeps what its last syncs left.
type Log struct {
	dir  string
	opts Options
	ctr  *counters

	mu      sync.Mutex
	buf     []byte // encoded records awaiting the next sync
	pending *batch // nil when every appended record is part of a sync
	nextSeq uint64
	closed  bool
	// failed latches the first write/fsync error permanently: the records
	// of the failed batch are gone while nextSeq already moved past them,
	// so accepting further appends would bury a sequence gap under later,
	// successfully-synced (and therefore acked) records. Fail-stop instead:
	// every subsequent AppendBatch reports the original error and nothing
	// more is acknowledged; reopening the log after the disk recovers
	// rescans the tail and resumes at the true next sequence number.
	failed error

	syncMu   sync.Mutex
	f        durable.File // active segment; touched only under syncMu
	spare    []byte       // recycled buffer handed back to buf
	segStart uint64       // first seq of the active segment
	segSize  int64

	// Integrity state, touched only under syncMu (hashing rides the sync
	// path, never AppendBatch): identity binds the chain to the tenant
	// directory, head mirrors the on-disk head.tkcmh, cs accumulates the
	// active segment's Merkle tree (cs.prevChain = chain through sealed
	// segments), and lastRec is the last record seq written to the active
	// segment (0 = none), which every commit frame must equal.
	identity string
	head     *headState
	cs       chainScan
	lastRec  uint64

	// durable is the highest sequence number known to be on stable storage
	// (everything ≤ it survived every fsync so far). Monotone; read by the
	// serving layer to decide whether a replayed row may be acked as a
	// duplicate without re-syncing.
	durable atomic.Uint64

	wake chan struct{} // arms the flusher after the first append of a batch
	quit chan struct{}
	done chan struct{} // flusher exited
}

// Open opens (creating if necessary) the log in dir. The final segment's
// tail is scanned and a torn final record — the signature of a crash during
// an unacknowledged append — is truncated away; every complete record is
// preserved. The next expected sequence number becomes lastSeq+1 (1 for an
// empty log); raise it with SetNextSeq after restoring from a newer
// checkpoint.
func Open(dir string, opts Options) (*Log, error) {
	return open(dir, opts, noopCounters())
}

func open(dir string, opts Options, ctr *counters) (*Log, error) {
	if err := opts.fs().MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("wal: %w", err)
	}
	d, err := readLogDir(opts.fs(), dir, opts.Key, true)
	if err != nil {
		return nil, err
	}
	if d.head == nil {
		// Fresh log: anchor the chain before the first segment exists — a
		// crash between the two is the provably-empty state Open recreates.
		d.head = &headState{identity: d.identity, baseChain: chainGenesis(d.identity), activeFirstSeq: 1}
		if err := saveHead(opts.fs(), dir, encodeHead(d.head, opts.Key)); err != nil {
			return nil, err
		}
		d.activeMissing = true
	}
	l := &Log{
		dir:      dir,
		opts:     opts,
		ctr:      ctr,
		identity: d.identity,
		wake:     make(chan struct{}, 1),
		quit:     make(chan struct{}),
		done:     make(chan struct{}),
	}
	if err := l.adopt(d); err != nil {
		return nil, err
	}
	l.durable.Store(l.nextSeq - 1) // everything commit-covered on disk is durable
	go l.flusher()
	return l, nil
}

// adopt takes over the reconciled directory d and acts on what the reconcile
// found: it removes truncation leftovers and head temps, creates an active
// segment a rotation anchored but never created, seals the predecessors of
// replicated successors (re-anchoring the head so the adoption is durable),
// and cuts the final segment back to its last commit frame — a crash-torn
// write, or records whose covering fsync never returned; neither was
// acknowledged. It reads the active segment and any successors through the
// segment rule with the key, and no sealed segment: a replay proves those it
// reads.
func (l *Log) adopt(d *logDir) error {
	fsys := l.opts.fs()
	for _, seg := range d.leftovers {
		fsys.Remove(filepath.Join(l.dir, seg.name))
	}
	// A head temp is a crash leftover: the head's writers are this log,
	// which is not open yet (a Manager opens a tenant's log once, under its
	// lock), and a follower's Replica, which stops before promotion opens
	// the logs it mirrored.
	for _, name := range d.headTemps {
		fsys.Remove(filepath.Join(l.dir, name))
	}
	l.head = d.head
	w := d.startWalk()
	nsealed := len(d.head.sealed)
	for _, seg := range d.segs[:nsealed] {
		w.skip(seg)
	}
	if d.activeMissing {
		l.cs = chainScan{identity: l.identity, key: l.opts.Key, checkMAC: true, segFirstSeq: d.head.activeFirstSeq, prevChain: w.chain}
		l.nextSeq = d.head.activeFirstSeq
		return l.createSegment(d.head.activeFirstSeq)
	}
	live := d.segs[nsealed:] // the active segment, then any replicated successors
	var adopted []sealedSegment
	var c segCheck
	for i, seg := range live {
		var err error
		if c, err = w.next(seg, i == len(live)-1, nil); err != nil {
			return err
		}
		if i < len(live)-1 {
			adopted = append(adopted, sealedSegment{firstSeq: seg.firstSeq, lastSeq: c.last, root: w.cs.sealRoot()})
		}
	}
	if err := w.holdClaim(); err != nil {
		return err
	}
	seg := live[len(live)-1]
	l.cs = w.cs
	l.cs.acc, l.cs.atCommit = w.cs.atCommit, merkleAcc{}
	l.segStart, l.segSize, l.nextSeq = seg.firstSeq, int64(len(segMagic)), seg.firstSeq
	if l.cs.sawCommit {
		l.segSize, l.lastRec, l.nextSeq = l.cs.lastCommitOff, l.cs.lastCommitSeq, l.cs.lastCommitSeq+1
	}
	f, err := fsys.OpenFile(filepath.Join(l.dir, seg.name), os.O_RDWR, 0o644)
	if err != nil {
		return fmt.Errorf("wal: %w", err)
	}
	err = f.Truncate(l.segSize)
	if err == nil && c.end < int64(len(segMagic)) {
		// The crash tore the magic itself (segment created, header not yet
		// durable): rewrite it — the segment provably has no records.
		_, err = f.WriteAt([]byte(segMagic), 0)
	}
	if err == nil {
		_, err = f.Seek(l.segSize, io.SeekStart)
	}
	if err != nil {
		f.Close()
		return fmt.Errorf("wal: cutting uncommitted tail: %w", err)
	}
	l.f = f
	if len(adopted) == 0 {
		return nil
	}
	l.head.sealed = append(l.head.sealed, adopted...)
	l.head.activeFirstSeq = l.segStart
	l.head.durableSeq = l.durableOnDisk()
	if err := saveHead(fsys, l.dir, encodeHead(l.head, l.opts.Key)); err != nil {
		f.Close()
		return err
	}
	return nil
}

// durableOnDisk is the highest seq the on-disk state proves durable: the
// last commit in the active segment, or (for an empty active segment)
// everything before its base — sealed ranges plus any checkpoint-covered
// SetNextSeq gap.
func (l *Log) durableOnDisk() uint64 {
	if l.lastRec != 0 {
		return l.cs.lastCommitSeq
	}
	return l.segStart - 1
}

// NextSeq returns the sequence number the next AppendBatch must carry.
func (l *Log) NextSeq() uint64 {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.nextSeq
}

// SetNextSeq raises the next expected sequence number — used after a restore
// whose checkpoint is newer than the log's tail (e.g. after a crash between
// a checkpoint rename and the fsync covering the last appends, or when the
// WAL was enabled on an installation that already had checkpoints). Lowering
// it is refused: re-issuing sequence numbers would corrupt the order
// invariant.
//
// When the active segment already holds records, raising the sequence past
// its tail rotates to a fresh segment named with the new first seq. Leaving
// the gap inside one segment would make scanSegment read the jump as a torn
// tail on the next Open and truncate every record after it — losing acked
// data the checkpoint does not cover.
func (l *Log) SetNextSeq(seq uint64) error {
	l.syncMu.Lock()
	defer l.syncMu.Unlock()
	l.mu.Lock()
	if l.closed {
		l.mu.Unlock()
		return ErrClosed
	}
	if seq < l.nextSeq {
		cur := l.nextSeq
		l.mu.Unlock()
		return fmt.Errorf("%w: cannot lower next seq %d to %d", ErrOutOfOrder, cur, seq)
	}
	if seq == l.nextSeq {
		l.mu.Unlock()
		return nil
	}
	hasPending := len(l.buf) > 0 || l.pending != nil
	l.mu.Unlock()
	if hasPending {
		// Records buffered for the old sequence range belong in the old
		// segment; push them out before deciding whether it is empty.
		if err := l.syncLocked(); err != nil {
			return err
		}
	}
	// mu is held across the rotation — rare restore-path file I/O — so no
	// append can slip a record with an old sequence number into the new
	// segment between the flush above and the raise below.
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.failed != nil {
		return fmt.Errorf("wal: log failed, refusing seq change: %w", l.failed)
	}
	if len(l.buf) > 0 || l.pending != nil || seq < l.nextSeq {
		return fmt.Errorf("wal: appends raced SetNextSeq(%d)", seq)
	}
	if seq > l.nextSeq && l.segSize > int64(len(segMagic)) {
		if err := l.rotate(seq); err != nil {
			l.failed = err
			return err
		}
	}
	l.nextSeq = seq
	// The skipped-over range is covered by the checkpoint that justified
	// the jump; for durability queries it counts as on stable storage.
	raiseMax(&l.durable, seq-1)
	return nil
}

// DurableThrough returns the highest sequence number on stable storage.
func (l *Log) DurableThrough() uint64 { return l.durable.Load() }

// raiseMax lifts v to at least x (v is monotone under concurrent raisers).
func raiseMax(v *atomic.Uint64, x uint64) {
	for {
		cur := v.Load()
		if cur >= x || v.CompareAndSwap(cur, x) {
			return
		}
	}
}

// AppendBatch encodes rows as ONE record carrying sequence numbers
// seq..seq+len(rows)-1 (seq must be exactly NextSeq and every row must have
// the same width) into the log's memory buffer and returns its durability
// handle. A single row writes the plain record; two or more write a batch
// record, whose single length/CRC frame and group-commit slot amortize over
// the rows. The returned Commit covers every row. AppendBatch never waits on
// disk (group-commit mode): the flusher writes and fsyncs the record within
// Options.SyncInterval, and Commit.Wait blocks until then. With
// SyncInterval ≤ 0 the record is written and fsynced before AppendBatch
// returns. Rows are copied out before AppendBatch returns; the caller may
// reuse them.
func (l *Log) AppendBatch(seq uint64, rows [][]float64) (Commit, error) {
	if len(rows) == 0 {
		return Commit{}, errors.New("wal: empty batch")
	}
	width := len(rows[0])
	for i, r := range rows[1:] {
		if len(r) != width {
			return Commit{}, fmt.Errorf("wal: batch row %d has %d values, want %d", i+1, len(r), width)
		}
	}
	if width*len(rows) > maxRecordValues {
		return Commit{}, fmt.Errorf("wal: batch of %d×%d values exceeds the record limit", len(rows), width)
	}

	l.mu.Lock()
	if l.closed {
		l.mu.Unlock()
		return Commit{}, ErrClosed
	}
	if l.failed != nil {
		err := l.failed
		l.mu.Unlock()
		return Commit{}, fmt.Errorf("%w, refusing append: %w", ErrLogFailed, err)
	}
	if seq != l.nextSeq {
		l.mu.Unlock()
		return Commit{}, fmt.Errorf("%w: got %d, want %d", ErrOutOfOrder, seq, l.nextSeq)
	}

	at := 20 // past payloadLen, crc, seq and count
	count := uint32(width)
	if len(rows) > 1 {
		at += 4 // the rows field
		count |= batchCountFlag
	}
	need := at + 8*width*len(rows)
	off := len(l.buf)
	l.buf = append(l.buf, make([]byte, need)...)
	b := l.buf[off : off+need]
	binary.LittleEndian.PutUint32(b[0:4], uint32(need-recHeader))
	binary.LittleEndian.PutUint64(b[8:16], seq)
	binary.LittleEndian.PutUint32(b[16:20], count)
	if len(rows) > 1 {
		binary.LittleEndian.PutUint32(b[20:24], uint32(len(rows)))
	}
	// Bookkeeping first: fewer values stay live across the encode loop,
	// which keeps it in registers.
	l.nextSeq = seq + uint64(len(rows))
	l.ctr.appends(uint64(len(rows)))
	l.ctr.bytes(uint64(need))
	for _, r := range rows {
		for _, v := range r {
			binary.LittleEndian.PutUint64(b[at:], math.Float64bits(v))
			at += 8
		}
	}
	binary.LittleEndian.PutUint32(b[4:8], crc32.ChecksumIEEE(b[recHeader:]))

	if l.opts.SyncInterval <= 0 {
		// Strict mode: write + fsync before returning.
		l.mu.Unlock()
		return Commit{}, l.syncNow()
	}
	if l.pending == nil {
		l.pending = &batch{done: make(chan struct{})}
		select {
		case l.wake <- struct{}{}:
		default:
		}
	}
	c := Commit{b: l.pending}
	l.mu.Unlock()
	return c, nil
}

// Sync forces the pending batch to stable storage immediately.
func (l *Log) Sync() error {
	l.mu.Lock()
	if l.closed {
		l.mu.Unlock()
		return ErrClosed
	}
	l.mu.Unlock()
	return l.syncNow()
}

// syncNow is the only path that touches the segment file: it detaches the
// buffered records and the pending batch under mu, then writes, fsyncs and
// (when due) rotates under syncMu alone — appends proceed concurrently into
// a fresh buffer and the next batch.
func (l *Log) syncNow() error {
	l.syncMu.Lock()
	defer l.syncMu.Unlock()
	return l.syncLocked()
}

// syncLocked is syncNow's body; the caller holds syncMu.
func (l *Log) syncLocked() error {
	l.mu.Lock()
	data := l.buf
	b := l.pending
	l.buf = l.spare[:0]
	l.pending = nil
	firstSeq := l.nextSeq // lower bound for a rotated segment's records
	failed := l.failed
	l.mu.Unlock()
	if len(data) == 0 && b == nil {
		l.spare = data[:0] // buf now holds the old spare; keep the two apart
		return failed
	}
	if failed != nil {
		// A previous sync failed and its records are a hole: writing these
		// later records would bury the gap under valid-looking data. Refuse
		// and fail their producers instead.
		l.spare = data[:0]
		if b != nil {
			b.err = failed
			close(b.done)
		}
		return failed
	}

	var err error
	if len(data) > 0 {
		// Integrity rides the batch it covers: hash every record frame into
		// the segment's Merkle tree (the ONLY hashing in the whole write
		// path — AppendBatch stays a memcpy), then append one signed commit
		// frame so the root and chain position land in the same write and the
		// same fsync as the records. No extra I/O, one hash pass per group
		// commit.
		commitSeq := firstSeq - 1
		l.lastRec, err = walkFrames(data, &l.cs, l.lastRec)
		if err == nil {
			root := l.cs.acc.root()
			chain := chainNext(l.cs.prevChain, root)
			data = appendCommitFrame(data, l.opts.Key, l.identity, l.segStart, commitSeq, root, chain)
		}
		if err == nil {
			_, err = l.f.Write(data)
		}
		if err == nil {
			l.segSize += int64(len(data))
			err = l.f.Sync()
		}
		if err == nil {
			// The on-disk segment now ends at the commit frame just written.
			l.cs.lastCommitSeq = commitSeq
			l.cs.lastCommitOff = l.segSize
			l.cs.sawCommit = true
			l.cs.commits++
		}
	}
	l.spare = recycle(data) // the other buffer is in use by appenders
	if err != nil {
		err = fmt.Errorf("wal: sync: %w", err)
		l.ctr.syncErrs(1)
		// The failed batch's records are lost but nextSeq already moved past
		// them: latch the error so no later append can be acked over the gap.
		l.mu.Lock()
		if l.failed == nil {
			l.failed = err
		}
		l.mu.Unlock()
	} else {
		l.ctr.syncs(1)
		// Every record below the swapped-out nextSeq is now on disk.
		raiseMax(&l.durable, firstSeq-1)
	}
	if b != nil {
		b.err = err
		close(b.done)
	}
	if err == nil && l.segSize >= l.opts.segmentBytes() {
		// Rotation needs no extra fsync: everything in the old segment was
		// just made durable, and records appended since firstSeq are still
		// in memory, destined for the new segment.
		if rerr := l.rotate(firstSeq); rerr != nil {
			// The batch just acked is durable, but the log has no usable
			// active segment: latch so subsequent appends fail fast with the
			// root cause instead of erroring later against a stale file.
			l.mu.Lock()
			if l.failed == nil {
				l.failed = rerr
			}
			l.mu.Unlock()
			return rerr
		}
	}
	return err
}

// spareFloor is the capacity up to which a written encode buffer is always
// recycled.
const spareFloor = 4 << 10

// recycle returns the written buffer data emptied for reuse as the spare, or
// nil when it exceeds spareFloor and carried less than a quarter of its
// capacity, so the next append allocates one sized to the commits at hand.
func recycle(data []byte) []byte {
	if cap(data) > spareFloor && len(data) < cap(data)/4 {
		return nil
	}
	return data[:0]
}

// rotate seals the active segment and opens a fresh one whose name encodes
// firstSeq. Write ordering: the head — now carrying the sealed segment's
// Merkle root and the new active name — is anchored BEFORE the new segment
// exists, so a crash between the two leaves the provably-empty state
// Open recreates, never an unanchored segment. Caller holds syncMu;
// on failure the caller must latch l.failed (under its own mu discipline) so
// appends fail fast.
func (l *Log) rotate(firstSeq uint64) error {
	root := l.cs.acc.root()
	h := l.head.clone()
	h.sealed = append(h.sealed, sealedSegment{firstSeq: l.segStart, lastSeq: l.lastRec, root: root})
	h.activeFirstSeq = firstSeq
	h.durableSeq = l.durable.Load()
	err := saveHead(l.opts.fs(), l.dir, encodeHead(h, l.opts.Key))
	if err == nil {
		l.head = h
		if cerr := l.f.Close(); cerr != nil {
			err = fmt.Errorf("wal: rotate: %w", cerr)
		}
	}
	if err == nil {
		l.cs.prevChain = chainNext(l.cs.prevChain, root)
		l.cs.acc.reset()
		l.cs.segFirstSeq = firstSeq
		l.cs.lastCommitSeq, l.cs.lastCommitOff, l.cs.commits, l.cs.sawCommit = 0, 0, 0, false
		l.lastRec = 0
		err = l.createSegment(firstSeq)
	}
	if err != nil {
		l.ctr.syncErrs(1)
	}
	return err
}

// flusher is the group-commit loop: armed by the first append of a batch, it
// sleeps the sync interval (letting the batch accumulate), then fsyncs.
func (l *Log) flusher() {
	defer close(l.done)
	timer := time.NewTimer(0)
	if !timer.Stop() {
		<-timer.C
	}
	for {
		select {
		case <-l.quit:
			return
		case <-l.wake:
		}
		timer.Reset(l.opts.SyncInterval)
		select {
		case <-l.quit:
			if !timer.Stop() {
				<-timer.C
			}
			// Close syncs the final batch itself; nothing to do here.
			return
		case <-timer.C:
		}
		l.syncNow()
	}
}

// createSegment opens a fresh segment whose name encodes firstSeq and
// writes the magic. Called under syncMu (or from Open, before the flusher
// starts).
func (l *Log) createSegment(firstSeq uint64) error {
	f, err := l.opts.fs().OpenFile(filepath.Join(l.dir, segmentName(firstSeq)), os.O_CREATE|os.O_EXCL|os.O_WRONLY, 0o644)
	if err != nil {
		return fmt.Errorf("wal: creating segment: %w", err)
	}
	if _, err := io.WriteString(f, segMagic); err != nil {
		f.Close()
		return fmt.Errorf("wal: creating segment: %w", err)
	}
	l.f = f
	l.segStart = firstSeq
	l.segSize = int64(len(segMagic))
	return nil
}

// Truncate removes whole sealed segments whose every record has sequence
// number ≤ uptoSeq — call it after a checkpoint covering uptoSeq is durable.
// The active segment is never removed; space before the checkpoint inside it
// is reclaimed at the next rotation. Write ordering: the head — its chain
// base raised over the removed segments' roots — is anchored BEFORE any
// unlink, so a crash between the two leaves only ignorable below-base
// leftovers, never a chain the head can no longer explain.
func (l *Log) Truncate(uptoSeq uint64) error {
	l.mu.Lock()
	if l.closed {
		l.mu.Unlock()
		return ErrClosed
	}
	failed := l.failed
	l.mu.Unlock()
	if failed != nil {
		// A failed log's in-memory head may be ahead of the disk (a rotation
		// that latched after mutating it); refusing keeps the anchored state
		// self-consistent for the post-mortem audit.
		return fmt.Errorf("wal: log failed, refusing truncate: %w", failed)
	}
	// syncMu stabilizes the active segment (no rotation mid-truncate).
	l.syncMu.Lock()
	defer l.syncMu.Unlock()
	n := 0
	for _, s := range l.head.sealed {
		if s.lastSeq > uptoSeq {
			break
		}
		n++
	}
	if n == 0 {
		return nil
	}
	h := l.head.clone()
	removed := h.sealed[:n]
	h.baseSeq = removed[n-1].lastSeq
	for _, s := range removed {
		h.baseChain = chainNext(h.baseChain, s.root)
	}
	h.sealed = append([]sealedSegment(nil), h.sealed[n:]...)
	h.durableSeq = l.durableOnDisk()
	if err := saveHead(l.opts.fs(), l.dir, encodeHead(h, l.opts.Key)); err != nil {
		return err
	}
	l.head = h
	for _, s := range removed {
		if err := l.opts.fs().Remove(filepath.Join(l.dir, segmentName(s.firstSeq))); err != nil && !errors.Is(err, os.ErrNotExist) {
			return fmt.Errorf("wal: truncate: %w", err)
		}
		l.ctr.truncates(1)
	}
	return nil
}

// Segments reports how many segment files the log currently holds.
func (l *Log) Segments() int {
	segs, _, err := listLogDir(l.opts.fs(), l.dir)
	if err != nil {
		return 0
	}
	return len(segs)
}

// Failed reports the log's latched fail-stop error (nil while healthy).
func (l *Log) Failed() error {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.failed
}

// SegmentInfo describes one on-disk segment for replication and auditing.
type SegmentInfo struct {
	Name     string
	FirstSeq uint64
	// LastSeq is the last commit-covered record seq (0 for an empty segment).
	LastSeq uint64
	// Size is the committed byte length: for the active segment, everything
	// up to and including its last commit frame — stable bytes a replica may
	// fetch; un-fsynced appends past it are invisible here.
	Size   int64
	Sealed bool
	// Root is the segment's Merkle root (sealed segments only; the active
	// segment's root is still moving).
	Root []byte
}

// ReplState is a point-in-time replication snapshot of one log: a signed
// head image carrying the current durable watermark plus the committed
// extent of every segment. Taken under the sync lock, so the sizes are
// mutually consistent and every byte inside them is fsynced.
type ReplState struct {
	Head       []byte
	DurableSeq uint64
	Segments   []SegmentInfo
}

// ReplState snapshots the log for a replication manifest.
func (l *Log) ReplState() (ReplState, error) {
	l.mu.Lock()
	if l.closed {
		l.mu.Unlock()
		return ReplState{}, ErrClosed
	}
	failed := l.failed
	l.mu.Unlock()
	if failed != nil {
		return ReplState{}, fmt.Errorf("wal: log failed, refusing replication snapshot: %w", failed)
	}
	l.syncMu.Lock()
	defer l.syncMu.Unlock()
	h := l.head.clone()
	h.durableSeq = l.durableOnDisk()
	st := ReplState{Head: encodeHead(h, l.opts.Key), DurableSeq: h.durableSeq}
	for _, s := range l.head.sealed {
		fi, err := l.opts.fs().Stat(filepath.Join(l.dir, segmentName(s.firstSeq)))
		if err != nil {
			return ReplState{}, fmt.Errorf("wal: replication snapshot: %w", err)
		}
		st.Segments = append(st.Segments, SegmentInfo{
			Name:     segmentName(s.firstSeq),
			FirstSeq: s.firstSeq,
			LastSeq:  s.lastSeq,
			Size:     fi.Size(),
			Sealed:   true,
			Root:     append([]byte(nil), s.root[:]...),
		})
	}
	st.Segments = append(st.Segments, SegmentInfo{
		Name:     segmentName(l.segStart),
		FirstSeq: l.segStart,
		LastSeq:  l.cs.lastCommitSeq,
		Size:     l.committedSizeLocked(),
	})
	return st, nil
}

// committedSizeLocked is the active segment's commit-covered byte length.
// Caller holds syncMu; with no sync in flight the file ends at its last
// commit frame, so this equals the file size — but it is derived from the
// scan state, never the file, so a concurrent crash cannot inflate it.
func (l *Log) committedSizeLocked() int64 {
	if l.cs.sawCommit {
		return l.cs.lastCommitOff
	}
	return int64(len(segMagic))
}

// Close syncs the pending batch and releases the log. Idempotent.
func (l *Log) Close() error {
	l.mu.Lock()
	if l.closed {
		l.mu.Unlock()
		<-l.done
		return nil
	}
	l.closed = true
	l.mu.Unlock()
	close(l.quit)
	<-l.done // flusher exited; syncNow below is the final syncer
	err := l.syncNow()
	l.syncMu.Lock()
	l.mu.Lock()
	failed := l.failed
	l.mu.Unlock()
	if failed == nil && l.head.durableSeq != l.durableOnDisk() {
		// Anchor the final durable watermark: with it, deleting or rolling
		// back the active segment of a cleanly-closed log — damage a crash
		// cannot cause — is detectable on the next Open, not just a flipped
		// byte inside it. An unmoved watermark is on disk already (l.head).
		h := l.head.clone()
		h.durableSeq = l.durableOnDisk()
		if herr := saveHead(l.opts.fs(), l.dir, encodeHead(h, l.opts.Key)); herr != nil {
			if err == nil {
				err = herr
			}
		} else {
			l.head = h
		}
	}
	if cerr := l.f.Close(); err == nil && cerr != nil {
		err = fmt.Errorf("wal: close: %w", cerr)
	}
	l.syncMu.Unlock()
	return err
}

// Replay streams every commit-covered record with sequence number ≥ fromSeq,
// in order, to fn, and returns the last sequence number delivered (0 if
// none). It is the walk over dir without the key: the head's inventory is
// reconciled against the directory, every segment read is held to the
// segment rule — a sealed one must match its pinned Merkle root and range —
// and the head's durable claim to what the segments prove, so a deleted,
// truncated, or substituted segment surfaces as ErrCorrupt, never as a
// silent hole. A sealed segment wholly below fromSeq is not read. Records
// past the final segment's last commit frame are not delivered: their
// covering fsync never completed, so they were never acknowledged (the
// client re-sends them). fn's error aborts the replay. Replay holds no key,
// so the head and commit MACs are not checked; it is the offline reader
// (ReplayTenantTail's fallback for a log that is not open), while Open,
// ReplayTail and VerifyTenant check them.
func Replay(dir string, fromSeq uint64, fn func(seq uint64, values []float64) error) (uint64, error) {
	return replay(durable.OS{}, dir, fromSeq, fn)
}

// replay is Replay over fsys.
func replay(fsys durable.FS, dir string, fromSeq uint64, fn func(seq uint64, values []float64) error) (uint64, error) {
	d, err := readLogDir(fsys, dir, nil, false)
	if err != nil || d.head == nil {
		return 0, err
	}
	return d.walk(fromSeq, fn, nil)
}

// tornError marks a record that could not be decoded — a torn tail when it
// is the last thing in the last segment, corruption anywhere else.
type tornError struct {
	off   int64
	cause error
}

func (e *tornError) Error() string {
	return fmt.Sprintf("wal: unreadable record at offset %d: %v", e.off, e.cause)
}

// scanSegment reads one segment sequentially, feeding cs every record frame
// and commit frame — the integrity verification rides the same pass — and
// handing fn (when non-nil) each record a commit frame has proven, once that
// frame validates: records past the last commit are read and hashed but
// never delivered. It returns the last valid record seq (0 if none) and the
// file offset just past the last valid frame. Decode failures are returned
// as *tornError so callers can distinguish tail damage from mid-log
// corruption; fn and cs errors abort the scan verbatim.
func scanSegment(fsys durable.FS, path string, firstSeq uint64, fn func(seq uint64, values []float64) error, cs *chainScan) (uint64, int64, error) {
	f, err := fsys.OpenFile(path, os.O_RDONLY, 0)
	if err != nil {
		return 0, 0, fmt.Errorf("wal: %w", err)
	}
	defer f.Close()
	r := bufio.NewReaderSize(f, 64<<10)

	magic := make([]byte, len(segMagic))
	if _, err := io.ReadFull(r, magic); err != nil {
		return 0, 0, &tornError{off: 0, cause: fmt.Errorf("short magic: %w", err)}
	}
	if string(magic) != segMagic {
		return 0, 0, fmt.Errorf("%w: %s: bad segment magic %q", ErrCorrupt, filepath.Base(path), magic)
	}

	// The segment name's firstSeq is a lower bound, not necessarily the first
	// record's seq: SetNextSeq may have raised the sequence inside an empty
	// segment. Contiguity is enforced from the first record actually read.
	var (
		lastSeq uint64
		off     = int64(len(segMagic))
		hdr     [recHeader]byte
		buf     []byte
		wantSeq uint64
		// pending holds the payloads of the records read since the last
		// commit frame, back to back, until a commit proves them.
		pending []byte
		values  []float64
	)
	for {
		if _, err := io.ReadFull(r, hdr[:]); err != nil {
			if err == io.EOF {
				return lastSeq, off, nil
			}
			return lastSeq, off, &tornError{off: off, cause: err}
		}
		payloadLen := binary.LittleEndian.Uint32(hdr[0:4])
		crc := binary.LittleEndian.Uint32(hdr[4:8])
		if payloadLen < 12 || payloadLen > 16+8*maxRecordValues {
			return lastSeq, off, &tornError{off: off, cause: fmt.Errorf("implausible payload length %d", payloadLen)}
		}
		if cap(buf) < int(payloadLen) {
			buf = make([]byte, payloadLen)
		}
		buf = buf[:payloadLen]
		if _, err := io.ReadFull(r, buf); err != nil {
			return lastSeq, off, &tornError{off: off, cause: err}
		}
		if got := crc32.ChecksumIEEE(buf); got != crc {
			return lastSeq, off, &tornError{off: off, cause: fmt.Errorf("checksum mismatch")}
		}
		seq := binary.LittleEndian.Uint64(buf[0:8])
		n := binary.LittleEndian.Uint32(buf[8:12])
		if n&batchCountFlag == 0 && n&commitFlag != 0 {
			// Commit frame: it proves the records before it and carries no
			// rows, so it is invisible to sequence contiguity.
			if n != commitFlag || payloadLen != commitPayloadLen || lastSeq == 0 || seq != lastSeq {
				return lastSeq, off, &tornError{off: off, cause: fmt.Errorf("malformed commit frame")}
			}
			if err := cs.onCommit(buf, seq, off+int64(recHeader)+int64(payloadLen)); err != nil {
				return lastSeq, off, err
			}
			if values, err = deliverRecords(pending, values, fn); err != nil {
				return lastSeq, off, err
			}
			pending = pending[:0]
			off += int64(recHeader) + int64(payloadLen)
			continue
		}
		// Batch records (bit 31 of the count field) carry rows × width values
		// for seqs seq..seq+rows-1; plain records are a 1-row batch of width n.
		width, nrows, base := recordShape(buf)
		if nrows == 0 {
			return lastSeq, off, &tornError{off: off, cause: fmt.Errorf("batch record with zero rows, or shorter than its header")}
		}
		if uint64(len(buf)) != uint64(base)+8*uint64(width)*uint64(nrows) {
			return lastSeq, off, &tornError{off: off, cause: fmt.Errorf("value count %d×%d disagrees with payload length %d", nrows, width, payloadLen)}
		}
		if wantSeq == 0 {
			if seq < firstSeq {
				return lastSeq, off, &tornError{off: off, cause: fmt.Errorf("first record seq %d below segment base %d", seq, firstSeq)}
			}
		} else if seq != wantSeq {
			return lastSeq, off, &tornError{off: off, cause: fmt.Errorf("sequence jump: got %d, want %d", seq, wantSeq)}
		}
		cs.onRecord(hdr[:], buf)
		if fn != nil {
			pending = append(pending, buf...)
		}
		lastSeq = seq + uint64(nrows) - 1
		wantSeq = lastSeq + 1
		off += int64(recHeader) + int64(payloadLen)
	}
}

// recordShape returns a record payload's per-row width, row count and the
// offset of its first value: a batch record (bit 31 of the count field)
// carries its row count after the count, a plain record is one row of count
// values. A batch payload too short for its row count, or one declaring no
// rows, reports zero rows.
func recordShape(payload []byte) (width, nrows, base int) {
	n := binary.LittleEndian.Uint32(payload[8:12])
	if n&batchCountFlag == 0 {
		return int(n), 1, 12
	}
	if len(payload) < 16 {
		return 0, 0, 16
	}
	return int(n &^ batchCountFlag), int(binary.LittleEndian.Uint32(payload[12:16])), 16
}

// deliverRecords hands fn every row of the back-to-back record payloads in
// pending, reusing values for the decoded row (and returning it for reuse).
func deliverRecords(pending []byte, values []float64, fn func(seq uint64, values []float64) error) ([]float64, error) {
	for len(pending) > 0 {
		seq := binary.LittleEndian.Uint64(pending[0:8])
		width, nrows, at := recordShape(pending)
		if cap(values) < width {
			values = make([]float64, width)
		}
		values = values[:width]
		for r := 0; r < nrows; r++ {
			for i := range values {
				values[i] = math.Float64frombits(binary.LittleEndian.Uint64(pending[at:]))
				at += 8
			}
			if err := fn(seq+uint64(r), values); err != nil {
				return values, err
			}
		}
		pending = pending[at:]
	}
	return values, nil
}

// segment is one on-disk segment file, identified by its first seq.
type segment struct {
	name     string
	firstSeq uint64
	sealed   *sealedSegment // the head entry pinning the segment (nil: unsealed)
}

// listLogDir returns the directory's segments sorted by first seq, and the
// names of the head temps a crash mid head save left in it.
func listLogDir(fsys durable.FS, dir string) (segs []segment, headTemps []string, err error) {
	entries, err := fsys.ReadDir(dir)
	if err != nil {
		return nil, nil, err
	}
	for _, ent := range entries {
		name := ent.Name()
		switch {
		case ent.IsDir():
		case strings.HasPrefix(name, HeadFileName+".tmp-"):
			headTemps = append(headTemps, name)
		case strings.HasPrefix(name, segPrefix) && strings.HasSuffix(name, segSuffix):
			num := strings.TrimSuffix(strings.TrimPrefix(name, segPrefix), segSuffix)
			if seq, err := strconv.ParseUint(num, 10, 64); err == nil {
				segs = append(segs, segment{name: name, firstSeq: seq})
			}
		}
	}
	sort.Slice(segs, func(i, j int) bool { return segs[i].firstSeq < segs[j].firstSeq })
	return segs, headTemps, nil
}

func segmentName(firstSeq uint64) string {
	return fmt.Sprintf("%s%020d%s", segPrefix, firstSeq, segSuffix)
}
