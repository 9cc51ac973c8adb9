package wal

import "fmt"

// ReplayTail streams every commit-covered record with sequence number ≥
// fromSeq from the OPEN log to fn, in order, and returns the last sequence
// number delivered (0 if none). It is the replay of restore-on-start and
// hydration: the same walk as Replay, with the key, over the inventory this
// log holds in memory instead of a re-loaded head and a re-listed directory. Every segment it reads is
// held to the segment rule: a sealed one must match the root and range its
// head entry pins, and the active one, frozen for the scan, must match the
// tree this log wrote into it — so a rewritten record is ErrCorrupt here,
// never an imputation input. Open reads no sealed segment; this is where
// they are proven. A sealed segment wholly below fromSeq is not read.
//
// Durability first: the pending group-commit batch is synced before the scan,
// so every record whose ack a caller may have observed is on stable storage
// and therefore delivered — without this, an eviction racing a not-yet-synced
// batch could hydrate an engine missing acked ticks.
//
// The scan runs under the sync lock, pausing group commits of THIS log only.
// The intended callers rebuild a tenant that is not hosted yet (restore) or
// is parked (hydration), so nothing appends to it concurrently; other
// tenants' logs are untouched.
func (l *Log) ReplayTail(fromSeq uint64, fn func(seq uint64, values []float64) error) (uint64, error) {
	// Sync outside syncMu (Sync takes it itself); it also surfaces a latched
	// fail-stop error before we bother scanning.
	if err := l.Sync(); err != nil {
		return 0, err
	}
	l.syncMu.Lock()
	defer l.syncMu.Unlock()
	l.mu.Lock()
	closed, failed := l.closed, l.failed
	l.mu.Unlock()
	if closed {
		return 0, ErrClosed
	}
	if failed != nil {
		return 0, fmt.Errorf("wal: log failed, refusing replay: %w", failed)
	}
	d := &logDir{fs: l.opts.fs(), path: l.dir, identity: l.identity, key: l.opts.Key, checkMAC: true, head: l.head}
	for i := range l.head.sealed {
		s := &l.head.sealed[i]
		d.segs = append(d.segs, segment{name: segmentName(s.firstSeq), firstSeq: s.firstSeq, sealed: s})
	}
	// Under syncMu, with no failed sync, the active segment ends at its last
	// commit frame.
	active := segment{name: segmentName(l.segStart), firstSeq: l.segStart}
	if l.cs.sawCommit {
		active.sealed = &sealedSegment{firstSeq: l.segStart, lastSeq: l.cs.lastCommitSeq, root: l.cs.acc.root()}
	}
	d.segs = append(d.segs, active)
	return d.walk(fromSeq, fn, nil)
}

// ReplayTenantTail replays tenant's OPEN log from fromSeq via Log.ReplayTail
// — the replay of restore-on-start and hydration. A tenant whose log is not
// open falls back to the offline Replay over its directory; a tenant without
// a log directory replays nothing.
func (m *Manager) ReplayTenantTail(tenant string, fromSeq uint64, fn func(seq uint64, values []float64) error) (uint64, error) {
	l := m.Get(tenant)
	if l == nil {
		return replay(m.opts.fs(), m.dir(tenant), fromSeq, fn)
	}
	return l.ReplayTail(fromSeq, fn)
}
