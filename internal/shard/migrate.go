package shard

import (
	"context"
	"fmt"
	"sync"

	"tkcm/internal/core"
)

// handoffLen bounds the parked-request buffer of a live migration: requests
// for the migrating tenant queue there while its engine moves and replay on
// the destination after the flip. When it is full, submitters block until
// the flip — the migration-time equivalent of a full shard queue.
const handoffLen = 256

// migration is one tenant move in flight. The hot path (do) discovers it
// with a single atomic load and parks the tenant's requests in the bounded
// handoff buffer; the migration's conclusion forwards them to whichever
// shard ended up hosting the tenant — the destination on success, the
// source after a rollback.
type migration struct {
	tenant string

	mu     sync.Mutex
	parked []*request
	done   bool

	// flipped closes when the migration concludes (either way), releasing
	// submitters blocked on a full handoff buffer to re-resolve the route.
	flipped chan struct{}
}

// Migrate moves tenant tenantID onto shard dst live: the tenant's queued
// operations drain on the source shard, new ones park in a bounded handoff
// buffer, the source detaches the engine and the destination installs that
// same engine, with its write-ahead-log sequence handed off intact, the
// routing table is persisted (fsynced) and atomically flipped, and the
// parked operations replay on the destination. The engine itself moves, not
// a copy of it, so a migrated tenant imputes exactly as if it had never
// moved. Acked ⇒ durable holds throughout: the WAL and checkpoints are
// shard-agnostic, so a crash at any point during the migration restores the
// tenant — whole, on exactly one shard — from its checkpoint plus log.
//
// Migrations are serialized (one tenant in transit at a time). Returns the
// source shard; migrating a tenant onto the shard it already occupies
// verifies the tenant exists and is otherwise a no-op.
func (m *Manager) Migrate(ctx context.Context, tenantID string, dst int) (int, error) {
	if dst < 0 || dst >= len(m.shards) {
		return 0, fmt.Errorf("%w: destination %d out of range [0,%d)", ErrBadShard, dst, len(m.shards))
	}
	m.migrateMu.Lock()
	defer m.migrateMu.Unlock()
	if m.closed.Load() {
		return 0, ErrClosed
	}
	src := m.routing.ShardFor(tenantID)
	if src == dst {
		_, err := m.Info(ctx, tenantID)
		return src, err
	}

	mig := &migration{tenant: tenantID, flipped: make(chan struct{})}
	m.migrating.Store(mig)
	// conclude flips the route state and replays the parked requests on the
	// shard that hosts the tenant now. Every return path runs it exactly
	// once — a migration must never leave requests parked forever.
	conclude := func(target *shard) {
		mig.mu.Lock()
		mig.done = true
		parked := mig.parked
		mig.parked = nil
		mig.mu.Unlock()
		m.migrating.Store(nil)
		close(mig.flipped)
		for _, req := range parked {
			m.forward(target, req)
		}
	}

	// Quiesce and detach: this op runs on the source shard goroutine after
	// every previously-queued operation for the tenant, so the engine it
	// detaches is settled. Until the destination installs it, the engine is
	// on no shard and only this goroutine holds it.
	var moved *core.Engine
	err := m.submit(ctx, m.shards[src], func(sh *shard) error {
		// A parked tenant migrates too: hydrate it first, so the engine that
		// moves is the full engine, not the footprint. A fail-stopped tenant
		// refuses here with its latched error, same as every other op.
		_, ok, rerr := m.resolveResident(sh, tenantID)
		if !ok {
			return fmt.Errorf("%w: %q", ErrNoTenant, tenantID)
		}
		if rerr != nil {
			return rerr
		}
		moved = sh.detach(tenantID)
		sh.ntenants.Add(-1)
		return nil
	})
	if err != nil {
		conclude(m.shards[src])
		return src, err
	}

	// Install on the destination, handing the write-ahead log's sequence
	// across the move. The log is process-wide and stays open, so the raise
	// is normally a no-op; it still runs so the append invariant (next seq =
	// engine seq + 1) is enforced at the handoff rather than assumed.
	err = m.submit(ctx, m.shards[dst], func(sh *shard) error {
		if _, ok := sh.tenants[tenantID]; ok {
			return fmt.Errorf("%w: %q (already on destination shard %d)", ErrTenantExists, tenantID, dst)
		}
		if _, ok := sh.parked[tenantID]; ok {
			return fmt.Errorf("%w: %q (already parked on destination shard %d)", ErrTenantExists, tenantID, dst)
		}
		if m.wal != nil {
			l, err := m.wal.Open(tenantID)
			if err != nil {
				return err
			}
			if err := l.SetNextSeq(moved.Seq() + 1); err != nil {
				return err
			}
		}
		sh.install(tenantID, moved)
		sh.ntenants.Add(1)
		m.maybeEvict(sh)
		return nil
	})
	if err != nil {
		m.rollback(ctx, tenantID, src, moved, conclude)
		return src, err
	}

	// The point of no return: persist the new route, fsync it, and only
	// then flip it in memory. A crash before the save restores the tenant
	// onto the source shard from checkpoint + WAL; after it, onto the
	// destination — wholly on one shard either way.
	if err := m.routing.Assign(tenantID, dst); err != nil {
		err = fmt.Errorf("shard: persisting route of %q: %w", tenantID, err)
		derr := m.submit(context.WithoutCancel(ctx), m.shards[dst], func(sh *shard) error {
			sh.detach(tenantID)
			sh.ntenants.Add(-1)
			return nil
		})
		if derr != nil {
			// The destination still hosts the engine (the manager is
			// closing): installing it on the source too would put one
			// engine on two shards. Its durable state restores it on the
			// next start, on the source shard the routing table names.
			conclude(m.shards[src])
			return src, err
		}
		m.rollback(ctx, tenantID, src, moved, conclude)
		return src, err
	}
	m.migrations.Add(1)
	conclude(m.shards[dst])
	return src, nil
}

// rollback re-installs the engine on the source shard after a failed
// migration and concludes the migration back onto the source. The reinstall
// deliberately ignores the caller's context: a migration aborted BY a
// context expiry must still put the tenant back, not leave it unhosted until
// a restart.
func (m *Manager) rollback(ctx context.Context, tenantID string, src int, moved *core.Engine, conclude func(*shard)) {
	err := m.submit(context.WithoutCancel(ctx), m.shards[src], func(sh *shard) error {
		sh.install(tenantID, moved)
		sh.ntenants.Add(1)
		m.maybeEvict(sh)
		return nil
	})
	if err != nil {
		// The manager is closing: the in-memory engine is unhostable, but
		// its durable state — checkpoint plus WAL — restores it on the next
		// start, on the source shard the routing table still names.
		moved.Close()
	}
	conclude(m.shards[src])
}

// forward hands a parked request to target's queue, honoring the same
// closed-manager discipline as submit; a request accepted into the handoff
// buffer is always answered.
func (m *Manager) forward(target *shard, req *request) {
	m.senders.Add(1)
	if m.closed.Load() {
		m.senders.Done()
		req.done <- ErrClosed
		return
	}
	target.reqs <- req
	m.senders.Done()
}
