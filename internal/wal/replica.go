package wal

import (
	"bytes"
	"errors"
	"fmt"
	"os"
	"path/filepath"

	"tkcm/internal/durable"
)

// Replica mirrors one tenant's log directory from a primary's replication
// snapshots (ReplState on the primary, transported however the caller
// likes). Its contract is verify-before-fsync: no fetched byte reaches the
// local disk until it has extended the segment's Merkle tree, proved every
// commit frame's root, chain position and HMAC, and — for a sealed segment —
// matched the root the signed head pins. A primary (or a middlebox) cannot
// make the replica persist anything the integrity key does not vouch for.
//
// Write ordering per round: segment bytes are fsynced first, the head image
// is installed atomically second, pruning runs last — so a crash at any
// instant leaves either the old state or segments AHEAD of the head, which
// Open's adoption path (and Replay) already tolerate. The replica never
// signs anything: it installs the primary's head image byte-for-byte, so it
// can run without the key (integrity only) and promotion needs no re-keying.
type Replica struct {
	fs       durable.FS
	dir      string
	key      []byte
	identity string
	// segs caches per-segment verification state so steady-state rounds cost
	// one fetch of the active segment's delta, not a rescan of the world.
	segs map[string]*replicaSeg
}

// replicaSeg is the cached verification state of one local segment file.
type replicaSeg struct {
	size     int64 // verified, fsynced byte length (commit-terminated)
	complete bool  // sealed and matched against its pinned head root
	root     [hashSize]byte
	// Live tree state while the segment is still growing (!complete):
	acc     merkleAcc // Merkle tree over every record so far
	lastRec uint64    // last verified record seq (0 = none)
}

// NewReplica prepares a replica of the tenant log in dir (the directory's
// base name is the log identity, as for Open). key verifies the primary's
// HMACs; nil still verifies roots, chains and CRCs.
func NewReplica(dir string, key []byte) *Replica {
	return &Replica{
		fs:       durable.OS{},
		dir:      dir,
		key:      key,
		identity: filepath.Base(filepath.Clean(dir)),
		segs:     make(map[string]*replicaSeg),
	}
}

// SyncStats reports what one Sync round did.
type SyncStats struct {
	SegmentsFetched int
	BytesFetched    int64
	// DurableSeq is the manifest head's durable watermark — after a clean
	// Sync, the local directory restores through at least this seq.
	DurableSeq uint64
}

// Sync brings the local directory up to one replication snapshot: headRaw
// and segs are the primary's ReplState, fetch returns a segment's bytes
// from an absolute file offset (from=0 includes the magic). Partial
// progress is kept — a failed round resumes where the last verified commit
// frame left it. Any verification failure returns ErrCorrupt and persists
// nothing unverified.
func (r *Replica) Sync(headRaw []byte, segs []SegmentInfo, fetch func(name string, from int64) ([]byte, error)) (SyncStats, error) {
	var st SyncStats
	head, err := decodeHead(headRaw)
	if err != nil {
		return st, err
	}
	if err := verifyHeadMAC(headRaw, r.key); err != nil {
		return st, err
	}
	if head.identity != r.identity {
		return st, fmt.Errorf("%w: manifest head identity %q does not match replica directory %q",
			ErrCorrupt, head.identity, r.identity)
	}
	st.DurableSeq = head.durableSeq
	if err := r.fs.MkdirAll(r.dir, 0o755); err != nil {
		return st, fmt.Errorf("wal: replica: %w", err)
	}

	// The manifest's segment list must be exactly what the signed head can
	// explain: every sealed entry present with its pinned range and root,
	// plus the head's active segment — nothing else, nothing out of order.
	// The name check doubles as path hygiene (names reach filepath.Join).
	sealedAt := make(map[uint64]*sealedSegment, len(head.sealed))
	for i := range head.sealed {
		sealedAt[head.sealed[i].firstSeq] = &head.sealed[i]
	}
	want := make(map[string]bool, len(segs))
	prevChain := head.baseChain
	var prevFirst uint64
	for _, seg := range segs {
		if seg.Name != segmentName(seg.FirstSeq) {
			return st, fmt.Errorf("%w: manifest segment name %q does not encode first seq %d", ErrCorrupt, seg.Name, seg.FirstSeq)
		}
		if seg.FirstSeq <= prevFirst {
			return st, fmt.Errorf("%w: manifest segments out of order at %s", ErrCorrupt, seg.Name)
		}
		prevFirst = seg.FirstSeq
		want[seg.Name] = true
		entry := sealedAt[seg.FirstSeq]
		switch {
		case entry != nil:
			if !seg.Sealed || seg.LastSeq != entry.lastSeq || !bytes.Equal(seg.Root, entry.root[:]) {
				return st, fmt.Errorf("%w: manifest entry for %s disagrees with the signed head", ErrCorrupt, seg.Name)
			}
		case seg.FirstSeq == head.activeFirstSeq:
			if seg.Sealed {
				return st, fmt.Errorf("%w: manifest seals the head's active segment %s", ErrCorrupt, seg.Name)
			}
		default:
			return st, fmt.Errorf("%w: manifest segment %s is not in the signed head", ErrCorrupt, seg.Name)
		}
		if err := r.syncSegment(seg, entry, prevChain, fetch, &st); err != nil {
			return st, err
		}
		if entry != nil {
			prevChain = chainNext(prevChain, entry.root)
		}
	}
	for _, s := range head.sealed {
		if !want[segmentName(s.firstSeq)] {
			return st, fmt.Errorf("%w: manifest omits sealed segment %s", ErrCorrupt, segmentName(s.firstSeq))
		}
	}
	if !want[segmentName(head.activeFirstSeq)] {
		return st, fmt.Errorf("%w: manifest omits the active segment %s", ErrCorrupt, segmentName(head.activeFirstSeq))
	}

	// Every byte the head can claim is fsynced; anchor the head itself.
	headPath := filepath.Join(r.dir, HeadFileName)
	cur, err := r.fs.ReadFile(headPath)
	switch {
	case err != nil && !errors.Is(err, os.ErrNotExist):
		return st, fmt.Errorf("wal: replica: %w", err)
	case err == nil && bytes.Equal(cur, headRaw):
		// Unchanged — skip the fsync; pruning already ran on the round that
		// installed this head.
		return st, nil
	case err == nil:
		if local, derr := decodeHead(cur); derr == nil && local.durableSeq > head.durableSeq {
			return st, fmt.Errorf("wal: replica: %s: manifest durable seq %d regresses the local head's %d (stale primary?)",
				r.identity, head.durableSeq, local.durableSeq)
		}
	}
	if err := saveHead(r.fs, r.dir, headRaw); err != nil {
		return st, err
	}
	// Prune what the new head retired. Only below-base segments go: a local
	// segment above the base that the manifest no longer lists is divergence
	// the promotion-time audit must surface, not something to paper over.
	local, _, err := listLogDir(r.fs, r.dir)
	if err != nil {
		return st, fmt.Errorf("wal: replica: %w", err)
	}
	for _, ls := range local {
		if !want[ls.name] && ls.firstSeq <= head.baseSeq {
			r.fs.Remove(filepath.Join(r.dir, ls.name))
			delete(r.segs, ls.name)
		}
	}
	return st, nil
}

// syncSegment brings one segment up to its manifest extent, verifying every
// fetched byte before it is written. prevChain is the chain value after the
// segment's sealed predecessors.
func (r *Replica) syncSegment(seg SegmentInfo, entry *sealedSegment, prevChain [hashSize]byte, fetch func(name string, from int64) ([]byte, error), st *SyncStats) error {
	path := filepath.Join(r.dir, seg.Name)
	state := r.segs[seg.Name]
	if state != nil {
		// The cache vouches for bytes on disk; if the file moved under us
		// (deleted, truncated, externally grown), rebuild from what's there.
		fi, err := r.fs.Stat(path)
		if err != nil || fi.Size() != state.size {
			state = nil
			delete(r.segs, seg.Name)
		}
	}
	if state == nil {
		var err error
		if state, err = r.rescanLocal(path, seg.FirstSeq, prevChain); err != nil {
			return err
		}
		r.segs[seg.Name] = state
	}
	if state.complete {
		if entry != nil && state.root == entry.root {
			return nil
		}
		return fmt.Errorf("%w: %s: sealed segment diverges from the signed head", ErrCorrupt, r.identity+"/"+seg.Name)
	}
	if state.size > seg.Size {
		// The manifest lags bytes we already verified (snapshot raced an
		// earlier round); nothing to do until it catches up.
		return nil
	}
	if state.size < seg.Size {
		from := state.size
		data, err := fetch(seg.Name, from)
		if err != nil {
			return fmt.Errorf("wal: replica: fetching %s from offset %d: %w", seg.Name, from, err)
		}
		if int64(len(data)) < seg.Size-from {
			return fmt.Errorf("wal: replica: short fetch of %s: got %d bytes, want at least %d", seg.Name, len(data), seg.Size-from)
		}
		chunk := data
		if from == 0 {
			if len(chunk) < len(segMagic) || string(chunk[:len(segMagic)]) != segMagic {
				return fmt.Errorf("%w: %s: fetched segment has bad magic", ErrCorrupt, seg.Name)
			}
			chunk = chunk[len(segMagic):]
		}
		// Verify the delta in memory BEFORE any byte reaches disk: each
		// record extends the cached Merkle tree, each commit frame must prove
		// the extended root (and its HMAC), and the delta must end exactly at
		// a commit frame — the primary only serves commit-covered bytes.
		cs := &chainScan{identity: r.identity, key: r.key, checkMAC: true, segFirstSeq: seg.FirstSeq, prevChain: prevChain, acc: state.acc}
		lastRec, err := walkFrames(chunk, cs, state.lastRec)
		if err != nil {
			delete(r.segs, seg.Name) // cached tree state was consumed; rescan disk next round
			return fmt.Errorf("%s: %w", r.identity+"/"+seg.Name, err)
		}
		// An empty chunk is a freshly-rotated active segment (magic only) —
		// nothing to prove yet. Anything longer must end at a commit frame.
		if len(chunk) > 0 && (!cs.sawCommit || cs.lastCommitOff != int64(len(chunk))) {
			delete(r.segs, seg.Name)
			return fmt.Errorf("%w: %s: replication delta is not commit-terminated", ErrCorrupt, r.identity+"/"+seg.Name)
		}
		f, err := r.fs.OpenFile(path, os.O_CREATE|os.O_RDWR, 0o644)
		if err != nil {
			return fmt.Errorf("wal: replica: %w", err)
		}
		_, err = f.WriteAt(data, from)
		if err == nil {
			err = f.Sync()
		}
		if cerr := f.Close(); err == nil {
			err = cerr
		}
		if err != nil {
			delete(r.segs, seg.Name)
			return fmt.Errorf("wal: replica: writing %s: %w", seg.Name, err)
		}
		state.size = from + int64(len(data))
		state.acc = cs.acc
		state.lastRec = lastRec
		st.SegmentsFetched++
		st.BytesFetched += int64(len(data))
	}
	if entry != nil {
		// The head seals this segment: the bytes we hold must be the exact
		// history it pinned, or someone swapped content of the right length.
		if state.lastRec != entry.lastSeq || state.acc.root() != entry.root {
			delete(r.segs, seg.Name)
			return fmt.Errorf("%w: %s: fetched segment does not match its sealed head entry", ErrCorrupt, r.identity+"/"+seg.Name)
		}
		state.complete = true
		state.root = entry.root
		state.acc = merkleAcc{}
	}
	return nil
}

// rescanLocal rebuilds verification state from a local segment file (first
// sight of it this process, or after the cache was invalidated). Anything
// past the last commit frame — our own crash-torn tail — is truncated away;
// a file with no commit at all, or one that fails verification, is removed
// whole and refetched from the primary, whose bytes are verified on the way
// back in. A missing file is simply an empty starting state.
func (r *Replica) rescanLocal(path string, firstSeq uint64, prevChain [hashSize]byte) (*replicaSeg, error) {
	state := &replicaSeg{}
	cs := &chainScan{identity: r.identity, key: r.key, checkMAC: true, segFirstSeq: firstSeq, prevChain: prevChain}
	_, end, err := scanSegment(r.fs, path, firstSeq, nil, cs)
	if errors.Is(err, os.ErrNotExist) {
		return state, nil
	}
	var torn *tornError
	if (err != nil && !errors.As(err, &torn)) || !cs.sawCommit {
		if rerr := r.fs.Remove(path); rerr != nil && !errors.Is(rerr, os.ErrNotExist) {
			return nil, fmt.Errorf("wal: replica: %w", rerr)
		}
		return state, nil
	}
	if err != nil || end != cs.lastCommitOff {
		if terr := r.fs.Truncate(path, cs.lastCommitOff); terr != nil {
			return nil, fmt.Errorf("wal: replica: truncating %s: %w", filepath.Base(path), terr)
		}
	}
	state.size = cs.lastCommitOff
	state.acc = cs.atCommit
	state.lastRec = cs.lastCommitSeq
	return state, nil
}
