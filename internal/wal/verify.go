package wal

import (
	"fmt"
	"os"
	"strings"

	"tkcm/internal/durable"
)

// LoadKeyFile reads an integrity key from path: the file's bytes with
// surrounding whitespace trimmed (so a trailing newline does not silently
// change the key). An empty path yields a nil key — integrity without
// authenticity.
func LoadKeyFile(path string) ([]byte, error) {
	if path == "" {
		return nil, nil
	}
	raw, err := os.ReadFile(path)
	if err != nil {
		return nil, fmt.Errorf("wal: integrity key: %w", err)
	}
	key := strings.TrimSpace(string(raw))
	if key == "" {
		return nil, fmt.Errorf("wal: integrity key file %s is empty", path)
	}
	return []byte(key), nil
}

// SeqRange is an inclusive range of sequence numbers.
type SeqRange struct {
	From uint64
	To   uint64
}

// VerifyReport summarizes a full offline audit of one tenant's log. A
// non-nil report means every check passed; the report then carries the
// provable durability statement and anything worth an operator's eye.
type VerifyReport struct {
	Tenant string
	// DurableThrough is the highest sequence number the on-disk log proves
	// durable: every record 1..DurableThrough is either in a verified,
	// commit-covered frame, inside a Retired/Gaps range (which the caller
	// must cover with a checkpoint), or below the chain base.
	DurableThrough uint64
	// HeadDurable is the signed head's durable claim (≤ DurableThrough, or
	// the audit fails — a head claiming more than the segments prove means
	// acknowledged records were lost).
	HeadDurable uint64
	// Retired is the highest sequence number removed by Truncate; records
	// 1..Retired live only in checkpoints.
	Retired uint64
	// Gaps are sequence ranges absent from the log because SetNextSeq
	// jumped over them — legitimate only when a checkpoint covers them,
	// which is the caller's cross-check.
	Gaps     []SeqRange
	Segments int
	Sealed   int
	Records  uint64 // record frames verified (a batch frame counts once)
	Commits  int    // commit frames verified (root + chain + HMAC)
	Warnings []string
}

// VerifyTenant audits dir's full history offline with the integrity key. It
// is the walk with the key and a report: head HMAC, segment inventory, every
// record frame's CRC and sequence contiguity, every commit frame's Merkle
// root, chain position and HMAC, sealed roots against the head's pinned
// entries, and the head's durable claim against what the segments actually
// prove. Any mismatch returns ErrCorrupt; crash artifacts that lose nothing
// acknowledged (an un-fsynced torn tail, a truncation leftover, a rotation
// that never created its segment) pass with a warning, and sequence gaps pass
// as Gaps for the caller's checkpoint cross-check.
func VerifyTenant(dir string, key []byte) (*VerifyReport, error) {
	d, err := readLogDir(durable.OS{}, dir, key, true)
	if err != nil {
		return nil, err
	}
	rep := &VerifyReport{Tenant: d.identity}
	if d.head == nil {
		return rep, nil // no log at all: nothing claimed, nothing proven
	}
	if _, err := d.walk(0, nil, rep); err != nil {
		return nil, err
	}
	return rep, nil
}
