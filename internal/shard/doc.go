// Package shard hosts many tenant imputation engines inside one process and
// serializes all access to them through a fixed set of single-goroutine
// shards — the concurrency substrate of the tkcm-serve subsystem.
//
// # Model
//
// A tenant is one named core.Engine (its own streams, config, window, and
// profiler state). Tenants are routed onto N shards by a versioned routing
// Table — explicit, persisted assignments over a default FNV-1a hash route —
// and each shard owns its tenants exclusively, executing every operation —
// create, tick, snapshot, delete — on one persistent goroutine fed by a
// bounded request queue. This gives three properties at once:
//
//   - Engine calls need no locks: core.Engine.Tick and Engine.Snapshot are
//     documented single-goroutine APIs, and the shard goroutine is that
//     goroutine.
//   - Cross-tenant parallelism scales with the shard count while each
//     tenant's ticks stay strictly ordered.
//   - Backpressure is structural: when a shard's queue is full the submitter
//     blocks (counted in Stats as a backpressure event) until space frees or
//     its context is done, so a hot tenant slows its own callers instead of
//     growing unbounded buffers.
//
// The worker discipline mirrors the engine's internal tick pool (PR 2):
// persistent goroutines ranging over a channel, stopped by closing it.
// Manager.Close first waits out in-flight submitters, then closes every
// queue; the shard goroutines drain what was already accepted — completing
// those requests — close their engines, and exit, which is what makes the
// server's graceful shutdown lossless.
//
// # Routing and live migration
//
// The Table decouples tenant placement from the hash: Manager.Migrate moves
// a tenant between shards while it serves traffic. The tenant's queued
// operations drain on the source shard (the capture op runs behind them on
// the shard goroutine), new operations park in a bounded handoff buffer,
// the source detaches the engine and the destination installs that same
// engine with its WAL sequence handed off, and the routing table is
// persisted and fsynced before the in-memory route flips — then the parked
// operations replay on the destination. The engine is never copied: a
// migrated tenant imputes bit for bit as if it had never moved, and its
// engine is on one shard at every instant. Durability is unaffected
// throughout: the write-ahead log and checkpoints are keyed by tenant, not
// shard, so a crash at any instant of a migration restores the tenant
// whole, on exactly one shard, from its checkpoint plus log. Pinning the
// default hash modulus in the Table is what lets the shard count grow
// across restarts without rerouting existing tenants; new shards start
// empty and receive tenants through explicit migrations (typically the
// server's rebalancer).
package shard
