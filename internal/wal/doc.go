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
// it, and continues appending after the last complete record. Damage
// anywhere else (a CRC mismatch in a non-final segment) means acknowledged
// data is unreadable; Replay surfaces that as ErrCorrupt instead of
// silently dropping rows.
package wal
