package wal

import (
	"errors"
	"fmt"
	"os"
	"path/filepath"

	"tkcm/internal/durable"
)

// Every read of a tenant's log directory — Open, Replay, ReplayTail and
// VerifyTenant — is one walk:
//
//  1. Load the head and check its identity (and its MAC, when the reader
//     holds the key): readLogDir.
//  2. Reconcile the head's sealed inventory against the directory listing:
//     readLogDir.
//  3. Hold each segment to the segment rule: checkSegment.
//  4. Hold the head's durable claim to what the segments prove:
//     segWalk.holdClaim.

// logDir is a tenant log directory whose head has been reconciled against
// its segment listing.
type logDir struct {
	fs       durable.FS
	path     string
	identity string
	// key and checkMAC are the reader's: with checkMAC the head's and every
	// commit frame's MAC is verified under key.
	key      []byte
	checkMAC bool
	// head is nil when the directory holds no log at all: neither a head nor
	// a segment.
	head *headState
	// segs are the segments a walk reads, in sequence order: the sealed ones
	// (segment.sealed pins each to its head entry), the active one unless a
	// rotation crash left it uncreated, then replicated successors.
	segs []segment
	// leftovers are truncation leftovers below the chain base: the head was
	// anchored past them before their unlink landed.
	leftovers []segment
	headTemps []string // temps of head saves a crash cut short
	// activeMissing: the head names an active segment that was never
	// created, which only a crash between rotation's head save and the
	// segment create can leave.
	activeMissing bool
}

// readLogDir loads dir's head and reconciles its sealed inventory against the
// directory listing. Every disagreement is ErrCorrupt except the crash
// artifacts the write orderings can leave, which it records for the reader to
// act on: truncation leftovers below the chain base, an active segment the
// head anchored but no segment create followed (nothing durable can be in it,
// so neither a later segment nor a durable claim past its base may exist),
// and replicated successors past the active segment that a follower fetched
// before its head update.
func readLogDir(fsys durable.FS, dir string, key []byte, checkMAC bool) (*logDir, error) {
	d := &logDir{fs: fsys, path: dir, identity: filepath.Base(filepath.Clean(dir)), key: key, checkMAC: checkMAC}
	head, raw, err := loadHead(fsys, dir)
	if err != nil {
		return nil, err
	}
	segs, headTemps, err := listLogDir(fsys, dir)
	if err != nil && !errors.Is(err, os.ErrNotExist) {
		return nil, err
	}
	d.headTemps = headTemps
	if head == nil {
		if len(segs) > 0 {
			return nil, fmt.Errorf("%w: %s: segments exist but %s is missing (deleted, or a pre-integrity log — see docs/OPERATIONS.md)",
				ErrCorrupt, d.identity, HeadFileName)
		}
		return d, nil
	}
	if checkMAC {
		if err := verifyHeadMAC(raw, key); err != nil {
			return nil, err
		}
	}
	if head.identity != d.identity {
		return nil, fmt.Errorf("%w: head identity %q does not match directory %q (log directory copied or renamed?)",
			ErrCorrupt, head.identity, d.identity)
	}
	d.head = head
	unseen := make(map[uint64]*sealedSegment, len(head.sealed))
	for i := range head.sealed {
		unseen[head.sealed[i].firstSeq] = &head.sealed[i]
	}
	activeFound := false
	for _, seg := range segs {
		seg.sealed = unseen[seg.firstSeq]
		switch {
		case seg.firstSeq == head.activeFirstSeq:
			activeFound = true
		case seg.firstSeq > head.activeFirstSeq: // a replicated successor
		case seg.sealed != nil:
			delete(unseen, seg.firstSeq)
		case seg.firstSeq <= head.baseSeq:
			d.leftovers = append(d.leftovers, seg)
			continue
		default:
			return nil, fmt.Errorf("%w: %s: segment %s is not in the signed head inventory", ErrCorrupt, d.identity, seg.name)
		}
		d.segs = append(d.segs, seg)
	}
	for _, s := range head.sealed {
		if unseen[s.firstSeq] != nil {
			return nil, fmt.Errorf("%w: %s: sealed segment %s (seqs %d..%d) is missing",
				ErrCorrupt, d.identity, segmentName(s.firstSeq), s.firstSeq, s.lastSeq)
		}
	}
	if !activeFound {
		if n := len(d.segs); n > 0 && d.segs[n-1].firstSeq > head.activeFirstSeq {
			return nil, fmt.Errorf("%w: %s: active segment %s is missing but later segments exist",
				ErrCorrupt, d.identity, segmentName(head.activeFirstSeq))
		}
		if head.durableSeq > head.activeFirstSeq-1 {
			return nil, fmt.Errorf("%w: %s: active segment %s is missing and the head proves records durable through seq %d",
				ErrCorrupt, d.identity, segmentName(head.activeFirstSeq), head.durableSeq)
		}
		d.activeMissing = true
	}
	return d, nil
}

// segCheck is what checkSegment read in one segment.
type segCheck struct {
	last uint64 // last record seq read (0 if none)
	end  int64  // offset just past the last readable frame
	torn bool   // an unreadable tail starts at end (final segment only)
}

// checkSegment scans seg, feeding its frames to cs and its records to fn
// (when non-nil), and holds it to the segment rule. A frozen segment —
// sealed, or followed by a later segment — must scan clean, end exactly at a
// commit frame and, when sealed, match its pinned range and root. The final
// unsealed segment may end in an unreadable tail, but only when no commit
// frame follows the damage: a crash tears only the one un-fsynced write at
// the end, so damage with committed records beyond it is tampering.
func checkSegment(fsys durable.FS, dir string, seg segment, final bool, cs *chainScan, fn func(seq uint64, values []float64) error) (segCheck, error) {
	path := filepath.Join(dir, seg.name)
	var c segCheck
	var err error
	c.last, c.end, err = scanSegment(fsys, path, seg.firstSeq, fn, cs)
	var torn *tornError
	if err != nil && !errors.As(err, &torn) {
		return c, err
	}
	c.torn = torn != nil
	if seg.sealed != nil || !final {
		if c.torn {
			return c, fmt.Errorf("%w: %s: %v", ErrCorrupt, seg.name, torn.cause)
		}
		if !cs.sawCommit || cs.lastCommitOff != c.end {
			return c, fmt.Errorf("%w: %s: frozen segment is not commit-terminated", ErrCorrupt, seg.name)
		}
		if seg.sealed != nil && (c.last != seg.sealed.lastSeq || cs.sealRoot() != seg.sealed.root) {
			return c, fmt.Errorf("%w: %s: content does not match its sealed head entry", ErrCorrupt, seg.name)
		}
		return c, nil
	}
	if c.torn {
		raw, err := fsys.ReadFile(path)
		if err != nil {
			return c, fmt.Errorf("wal: %w", err)
		}
		if int64(len(raw)) > c.end && hasCommitBeyond(raw[c.end:]) {
			return c, fmt.Errorf("%w: %s: unreadable frame at offset %d with committed records beyond it (segment tampered)",
				ErrCorrupt, seg.name, c.end)
		}
	}
	return c, nil
}

// segWalk carries a walk over a logDir's segments from one to the next.
type segWalk struct {
	d       *logDir
	chain   [hashSize]byte // chain value after the segments walked
	lastRec uint64         // last committed record of the segments walked
	// proven is the highest seq the segments walked prove durable. Sealed
	// ranges and SetNextSeq gaps sit below the active segment's base, and a
	// replicated successor proves its predecessor committed in full.
	proven uint64
	cs     chainScan // the scan of the last segment read
}

func (d *logDir) startWalk() *segWalk {
	h := d.head
	return &segWalk{d: d, chain: h.baseChain, lastRec: h.baseSeq, proven: h.activeFirstSeq - 1}
}

// skip passes a sealed segment without reading it: its pin carries the walk
// on.
func (w *segWalk) skip(seg segment) {
	w.chain = chainNext(w.chain, seg.sealed.root)
	w.lastRec = seg.sealed.lastSeq
	w.proven = max(w.proven, seg.sealed.lastSeq)
}

// next reads seg, the walk's next segment (its last when final), through
// checkSegment.
func (w *segWalk) next(seg segment, final bool, fn func(seq uint64, values []float64) error) (segCheck, error) {
	if seg.firstSeq <= w.lastRec {
		return segCheck{}, fmt.Errorf("%w: %s: segment %s overlaps its predecessor (last seq %d)",
			ErrCorrupt, w.d.identity, seg.name, w.lastRec)
	}
	if seg.firstSeq > w.d.head.activeFirstSeq {
		w.proven = max(w.proven, seg.firstSeq-1)
	}
	w.cs = chainScan{identity: w.d.identity, key: w.d.key, checkMAC: w.d.checkMAC, segFirstSeq: seg.firstSeq, prevChain: w.chain}
	c, err := checkSegment(w.d.fs, w.d.path, seg, final, &w.cs, fn)
	if err != nil {
		return c, err
	}
	if w.cs.sawCommit {
		w.lastRec = w.cs.lastCommitSeq
		w.proven = max(w.proven, w.cs.lastCommitSeq)
	}
	if seg.sealed != nil {
		w.chain = chainNext(w.chain, seg.sealed.root)
	} else if !final {
		w.chain = chainNext(w.chain, w.cs.sealRoot())
	}
	return c, nil
}

// holdClaim holds the head's durable claim to what the walked segments
// prove: a head claiming more has lost acknowledged records (a rolled-back,
// truncated or substituted active segment).
func (w *segWalk) holdClaim() error {
	if h := w.d.head; h.durableSeq > w.proven {
		return fmt.Errorf("%w: %s: head proves records durable through seq %d but the segments only prove %d (active segment truncated or substituted)",
			ErrCorrupt, w.d.identity, h.durableSeq, w.proven)
	}
	return nil
}

// walk reads d's segments in order through the segment rule and hands fn the
// records ≥ fromSeq, each once a commit frame has proven it: records past the
// final segment's last commit were never acknowledged, and delivering them
// would let anyone append records without the key. A sealed segment wholly
// below fromSeq is not read; its head entry carries the walk past it.
// Records must continue from the chain base: a gap reaching fromSeq is
// ErrCorrupt, unless rep is non-nil, which then lists it for the audit's
// checkpoint cross-check and collects the audit's counts and warnings. walk
// returns the last sequence number delivered.
func (d *logDir) walk(fromSeq uint64, fn func(seq uint64, values []float64) error, rep *VerifyReport) (uint64, error) {
	w := d.startWalk()
	var last uint64
	next := d.head.baseSeq + 1
	deliver := func(seq uint64, values []float64) error {
		if seq != next && seq > fromSeq {
			if rep == nil {
				return fmt.Errorf("%w: %s: records %d..%d missing (segment deleted, or range covered only by a checkpoint?)",
					ErrCorrupt, d.identity, next, seq-1)
			}
			rep.Gaps = append(rep.Gaps, SeqRange{From: next, To: seq - 1})
		}
		next = seq + 1
		if seq < fromSeq || fn == nil {
			return nil
		}
		if err := fn(seq, values); err != nil {
			return err
		}
		last = seq
		return nil
	}
	if rep != nil {
		rep.HeadDurable, rep.Retired = d.head.durableSeq, d.head.baseSeq
		for _, seg := range d.leftovers {
			rep.Warnings = append(rep.Warnings,
				fmt.Sprintf("segment %s is a truncation leftover below the chain base (crash between head save and unlink; ignorable)", seg.name))
		}
		if d.activeMissing {
			rep.Warnings = append(rep.Warnings,
				fmt.Sprintf("active segment %s not yet created (crash between rotation's head save and segment create; recreated empty on next open)",
					segmentName(d.head.activeFirstSeq)))
		}
	}
	for i, seg := range d.segs {
		if seg.sealed != nil && seg.sealed.lastSeq < fromSeq {
			w.skip(seg)
			next = seg.sealed.lastSeq + 1
			continue
		}
		final := i == len(d.segs)-1
		c, err := w.next(seg, final, deliver)
		if err != nil {
			return last, err
		}
		if rep == nil {
			continue
		}
		rep.Segments++
		if seg.sealed != nil {
			rep.Sealed++
		}
		rep.Records += w.cs.records
		rep.Commits += w.cs.commits
		if c.torn {
			rep.Warnings = append(rep.Warnings,
				fmt.Sprintf("%s: unreadable tail at offset %d (un-fsynced crash tail; healed on next open)", seg.name, c.end))
		}
		if c.last > w.cs.lastCommitSeq {
			rep.Warnings = append(rep.Warnings,
				fmt.Sprintf("%s: records %d..%d past the last commit were never acknowledged and will be dropped on next open",
					seg.name, w.cs.lastCommitSeq+1, c.last))
		}
	}
	if rep != nil {
		rep.DurableThrough = w.proven
	}
	return last, w.holdClaim()
}
