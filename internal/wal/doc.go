// Package wal implements the per-tenant write-ahead log that makes
// tkcm-serve's tick acknowledgements durable: every acked row survives a
// hard crash (kill -9, power loss) and is replayed on the next start on top
// of the newest checkpoint.
//
// # Design
//
// Each tenant owns an append-only log of its raw input rows (NaN marks a
// missing value, exactly as ingested). Because the engine's imputation is
// deterministic, replaying the raw rows through a restored engine
// reconstructs byte-for-byte the state an uninterrupted engine would hold —
// the log never needs to record imputed values or profiler internals.
//
// Records are CRC-framed (length + IEEE CRC-32 + payload) and carry the
// engine's sequence number, so replay can start exactly where a checkpoint
// ends and any corruption is detected rather than consumed. Logs are split
// into size-rotated segments named seg-<firstSeq>.wal; after a checkpoint
// covering sequence S is durable, Truncate reclaims every segment whose
// records are all ≤ S.
//
// # Durability and group commit
//
// AppendBatch buffers the record and returns a Commit handle; a per-log
// flusher fsyncs the accumulated batch every Options.SyncInterval, amortizing
// the fsync over every record in the window while bounding ack latency by
// the interval. Commit.Wait returns once the covering fsync completed — the
// serving layer acknowledges a tick only after that, which is the entire
// "acked ⇒ durable" contract.
//
// # Crash anatomy
//
// A crash can tear at most the tail of the final segment — records that
// were appended but whose group commit never completed, hence were never
// acknowledged. Open detects the torn tail via the CRC framing, truncates
// it back to the last commit frame, and continues appending after it.
// Damage anywhere else — in a sealed segment, or before a commit frame —
// means acknowledged data is unreadable or rewritten; the readers surface
// that as ErrCorrupt instead of silently dropping or delivering rows.
//
// # Reading a log
//
// Every reader of a tenant directory is one walk (walk.go): load the head
// and check its identity, reconcile its sealed inventory against the
// directory listing, hold each segment it reads to one segment rule
// (frozen segments scan clean, end at a commit frame and match their pinned
// root and range; only the final one may end in a healable torn tail), and
// hold the head's durable claim to what the segments prove. A record reaches
// a caller only once a commit frame has proven it. The readers differ in
// what they read and with which key:
//
//   - VerifyTenant (tkcm-verify) walks every segment with the key and
//     reports, gaps and crash artifacts included.
//   - Replay walks the directory without the key, from the first segment
//     that can hold fromSeq.
//   - Open reconciles, reads the active segment and any replicated
//     successors with the key, and acts: it removes truncation leftovers,
//     creates a missing active segment, adopts successors and cuts the torn
//     tail. It reads no sealed segment.
//   - ReplayTail (restore-on-start and hydration, on an open log) walks the
//     log's in-memory inventory with the key, proving every sealed segment
//     it reads against its pinned root and the active one against the tree
//     the log wrote.
//
// A log and its Manager reach the disk only through Options.FS (Replay,
// VerifyTenant and a Replica use the host's), and every head save goes
// through durable.Replace; Open removes the temp a crash mid-save leaves.
package wal
