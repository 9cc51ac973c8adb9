// Package server exposes the sharded multi-tenant imputation engines of
// internal/shard over HTTP — the network face of tkcm-serve.
//
// # API (v1)
//
//	GET    /healthz                     liveness + tenant/shard counts
//	GET    /metrics                     Prometheus text exposition
//	GET    /v1/tenants                  list hosted tenants
//	POST   /v1/tenants/{id}             create a tenant (JSON body below)
//	DELETE /v1/tenants/{id}             delete a tenant
//	POST   /v1/tenants/{id}/ticks      NDJSON streaming ingest (below)
//	GET    /v1/tenants/{id}/snapshot    download the engine snapshot (binary)
//	POST   /v1/checkpoint               checkpoint every tenant to disk now
//
// Create body: {"streams": ["s","r1","r2","r3"], "config": {"k":5,
// "pattern_length":72, "d":3, "window_length":4032, "workers":0,
// "profiler":"auto", "weighted_mean":false}, "refs": {"s":["r1","r2",
// "r3"]}}. Omitted config fields take the paper's defaults and unknown ones
// are ignored; refs is optional (reference sets are correlation-ranked from
// the data otherwise).
//
// # Streaming ticks
//
// POST /v1/tenants/{id}/ticks is a single long-lived request: the client
// streams newline-delimited JSON rows and the server streams one ack back
// per row, flushed immediately, so the connection behaves like a duplex
// imputation pipe. An ack carries only the imputed cells, values[x] being
// the completed value of stream imputed[x]; the client completes the row
// it sent:
//
//	→ {"values": [21.3, null, 19.8, 20.1]}
//	← {"tick": 4031, "seq": 4032, "values": [20.44], "imputed": [1]}
//
// null (or NaN-absent) entries mark missing measurements. A row the engine
// rejects (wrong width, ±Inf) terminates the stream with an {"error": ...}
// line; everything before it was applied.
//
// # Checkpoints
//
// With a checkpoint directory configured, a background loop periodically
// writes every tenant's engine snapshot (core snapshot format v3) to
// <dir>/<tenant>.tkcm; Server.Shutdown takes a final checkpoint after
// in-flight ticks drain, and RestoreFromCheckpoints re-hosts every saved
// tenant on startup — the recoverable-service loop of the ROADMAP's
// production north star.
//
// Every checkpoint write goes through durable.Replace, and the write-ahead
// log reaches the disk through wal.Options.FS.
package server
