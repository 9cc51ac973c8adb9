package shard

import (
	"container/list"
	"errors"
	"fmt"
	"sort"

	"tkcm/internal/core"
	"tkcm/internal/obs"
)

// Engine residency: a shard hosts up to millions of tenants but keeps only a
// budgeted subset of their engines in memory. A cold tenant is EVICTED —
// parked as a footprint struct while its durable state (the base checkpoint
// written at create plus every WAL record through its sequence number) stays
// on disk untouched, so eviction writes nothing. The next operation that
// needs the engine HYDRATES it: the Options.Hydrate hook restores the
// checkpoint (memory-mapped where the platform allows), the WAL tail replays
// on top, and the rebuilt engine must land exactly on the parked sequence
// number — anything less means acked ticks would be lost, which fail-stops
// the tenant instead of silently serving a rewound engine.
//
// Everything here runs on the shard goroutine, inside the same queued
// operations that touch engines today — no new locking discipline. The only
// cross-goroutine state is the manager's failed-tenant registry (its own
// mutex) and the residency counters (atomics), both read by the serving
// layer for /metrics and health.

// ErrTenantFailed marks a tenant latched fail-stopped by a hydration
// failure: its durable state cannot rebuild the engine that was parked.
// Every operation on the tenant reports it (wrapped, with the cause) until
// the tenant is deleted; match with errors.Is.
var ErrTenantFailed = errors.New("shard: tenant fail-stopped")

// parked is the in-memory footprint of an evicted tenant — just enough for
// Info and Tenants to answer without hydrating, plus the sequence number the
// hydrated engine must reach and the latched failure, if any.
type parked struct {
	seq         uint64
	tick        int
	streams     []string
	ticks       int
	imputations int
	failed      error
}

// install makes eng resident as tenant id: engine map, LRU front, and the
// residency accounting. Shard-goroutine only.
func (sh *shard) install(id string, eng *core.Engine) {
	sh.tenants[id] = eng
	sh.lruAt[id] = sh.lru.PushFront(id)
	sh.resBytes += eng.MemoryBytes()
	sh.nresident.Add(1)
}

// detach removes tenant id's resident engine from the shard (map, LRU,
// accounting) and returns it — the caller decides whether it is closed
// (evict, delete) or travels (migrate). Shard-goroutine only.
func (sh *shard) detach(id string) *core.Engine {
	eng := sh.tenants[id]
	delete(sh.tenants, id)
	if el, ok := sh.lruAt[id]; ok {
		sh.lru.Remove(el)
		delete(sh.lruAt, id)
	}
	sh.resBytes -= eng.MemoryBytes()
	sh.nresident.Add(-1)
	return eng
}

// touch marks tenant id most-recently-used. Called exactly once per shard
// operation that resolves the engine — a TickBatch counts once whatever its
// row count, so batch size does not distort eviction order.
func (sh *shard) touch(id string) {
	if el, ok := sh.lruAt[id]; ok {
		sh.lru.MoveToFront(el)
	}
}

// overBudget reports whether the shard exceeds its residency budget (count
// or estimated bytes; zero caps are unlimited).
func (sh *shard) overBudget(m *Manager) bool {
	if m.residentCap > 0 && int(sh.nresident.Load()) > m.residentCap {
		return true
	}
	return m.residentBytesCap > 0 && sh.resBytes > m.residentBytesCap
}

// resolveResident returns tenant id's engine, hydrating a parked one in
// place. ok=false means the tenant is not on this shard at all (the caller
// classifies the miss); ok=true with an error means it IS here but cannot
// serve (fail-stopped, or this hydration attempt failed).
func (m *Manager) resolveResident(sh *shard, id string) (*core.Engine, bool, error) {
	if eng, ok := sh.tenants[id]; ok {
		sh.touch(id)
		return eng, true, nil
	}
	p, ok := sh.parked[id]
	if !ok {
		return nil, false, nil
	}
	if p.failed != nil {
		return nil, true, p.failed
	}
	eng, err := m.hydrateParked(sh, id, p)
	return eng, true, err
}

// resident is resolveResident with the standard miss classification (a
// rerouted tenant retries, anything else is ErrNoTenant) — the lookup at the
// top of every engine-touching operation.
func (m *Manager) resident(sh *shard, id string) (*core.Engine, error) {
	eng, ok, err := m.resolveResident(sh, id)
	if !ok {
		return nil, m.missing(sh, id)
	}
	return eng, err
}

// hydrateParked rebuilds tenant id's engine from durable state: checkpoint
// restore via the hook, then WAL tail replay, then the sequence check that
// proves no acked tick was lost. On success the engine is installed resident
// (possibly evicting a colder tenant to make room) and the parked entry
// dropped; on any failure the tenant latches fail-stopped.
func (m *Manager) hydrateParked(sh *shard, id string, p *parked) (*core.Engine, error) {
	if m.hydrate == nil {
		// A tenant can only park when eviction ran, which requires the hook;
		// do not latch — this is a wiring bug, not lost durable state.
		return nil, fmt.Errorf("shard: tenant %q is parked but no hydrator is configured", id)
	}
	t0 := obs.Now()
	eng, err := m.hydrate(id)
	if err != nil {
		return nil, m.latchFailed(id, p, err)
	}
	if err := m.replayLog(id, eng); err != nil {
		eng.Close()
		return nil, m.latchFailed(id, p, err)
	}
	if eng.Seq() != p.seq {
		err := fmt.Errorf("checkpoint + log rebuild reaches seq %d, tenant was parked at seq %d", eng.Seq(), p.seq)
		eng.Close()
		return nil, m.latchFailed(id, p, err)
	}
	delete(sh.parked, id)
	sh.nparked.Add(-1)
	sh.install(id, eng)
	m.hydrations.Add(1)
	m.hydrationHist.Observe(obs.Now() - t0)
	m.maybeEvict(sh)
	return eng, nil
}

// replayLog ticks tenant id's logged records past eng's sequence number into
// eng: the one WAL-tail replay of restore-on-start (Attach) and hydration.
// It refuses a record that does not follow the engine's seq — records the
// engine needs that the log no longer holds (an image older than the log's
// base, for one) — rather than tick a window with a hole in it. ReplayTail
// syncs first, so records that were still in the group-commit buffer when a
// tenant parked are on stable storage before the scan: the eviction/ack race
// closes here.
func (m *Manager) replayLog(id string, eng *core.Engine) error {
	if m.wal == nil {
		return nil
	}
	_, err := m.wal.ReplayTenantTail(id, eng.Seq()+1, func(seq uint64, values []float64) error {
		if seq != eng.Seq()+1 {
			return fmt.Errorf("wal record %d does not follow engine seq %d", seq, eng.Seq())
		}
		if _, _, err := eng.Tick(values); err != nil {
			return fmt.Errorf("wal record %d: %w", seq, err)
		}
		return nil
	})
	return err
}

// latchFailed fail-stops tenant id: the parked entry keeps the wrapped
// error (every operation reports it) and the manager's registry surfaces the
// tenant on the degraded-health path. Only Delete clears it — a tenant whose
// durable state cannot rebuild its engine must never be silently re-created.
func (m *Manager) latchFailed(id string, p *parked, cause error) error {
	err := fmt.Errorf("%w: %q: hydration failed: %v", ErrTenantFailed, id, cause)
	p.failed = err
	m.failedMu.Lock()
	m.failedTenants[id] = err
	m.failedMu.Unlock()
	return err
}

// clearFailed drops tenant id from the fail-stop registry (tenant deleted).
func (m *Manager) clearFailed(id string) {
	m.failedMu.Lock()
	delete(m.failedTenants, id)
	m.failedMu.Unlock()
}

// FailedTenants lists tenants latched fail-stopped by hydration failures,
// sorted — the serving layer's degraded-health report.
func (m *Manager) FailedTenants() []string {
	m.failedMu.Lock()
	defer m.failedMu.Unlock()
	ids := make([]string, 0, len(m.failedTenants))
	for id := range m.failedTenants {
		ids = append(ids, id)
	}
	sort.Strings(ids)
	return ids
}

// maybeEvict parks cold tenants from the LRU tail while the shard is over
// its residency budget. The front of the list — the tenant the current
// operation just touched or installed — is never a candidate, and neither is
// a tenant whose WAL log is missing or has latched fail-stop: parking one
// would strand acked ticks that only its in-memory engine still holds. Nor
// is a tenant mid-migration: a rollback takes its engine back from the
// shard that installed it.
func (m *Manager) maybeEvict(sh *shard) {
	if m.hydrate == nil {
		return
	}
	for sh.overBudget(m) {
		victim := ""
		for el := sh.lru.Back(); el != nil && el != sh.lru.Front(); el = el.Prev() {
			id := el.Value.(string)
			if m.misrouted(sh, id) || !m.evictable(id) {
				continue
			}
			victim = id
			break
		}
		if victim == "" {
			return
		}
		m.evict(sh, victim)
	}
}

// evictable reports whether tenant id's ticks are fully recoverable from
// disk: the Parkable veto (typically "its base checkpoint exists") passes,
// and its log is open and healthy (with the WAL disabled the hook's
// checkpoint must carry everything, which the post-hydration sequence check
// still enforces).
func (m *Manager) evictable(id string) bool {
	if m.parkable != nil && !m.parkable(id) {
		return false
	}
	if m.wal == nil {
		return true
	}
	l := m.wal.Get(id)
	return l != nil && l.Failed() == nil
}

// evict parks tenant id: the engine leaves memory while the durable state
// that rebuilds it stays put — eviction performs no I/O at all. The parked
// footprint answers Info/Tenants and pins the sequence number hydration
// must reach.
func (m *Manager) evict(sh *shard, id string) {
	eng := sh.detach(id)
	sh.parked[id] = &parked{
		seq:         eng.Seq(),
		tick:        eng.Window().Tick(),
		streams:     append([]string(nil), eng.Window().Names()...),
		ticks:       eng.Stats.Ticks,
		imputations: eng.Stats.Imputations,
	}
	sh.nparked.Add(1)
	eng.Close()
	m.evictions.Add(1)
}

// Residency is a point-in-time snapshot of the residency tier across every
// shard.
type Residency struct {
	// Resident counts tenants with a live in-memory engine.
	Resident int64
	// Parked counts tenants whose engine is evicted to durable state.
	Parked int64
	// Failed counts tenants latched fail-stopped by hydration failures.
	Failed int
	// Evictions and Hydrations count residency transitions since start.
	Evictions  uint64
	Hydrations uint64
}

// Residency samples the residency counters (lock-free except the failed
// registry).
func (m *Manager) Residency() Residency {
	r := Residency{Evictions: m.evictions.Load(), Hydrations: m.hydrations.Load()}
	for _, sh := range m.shards {
		r.Resident += sh.nresident.Load()
		r.Parked += sh.nparked.Load()
	}
	m.failedMu.Lock()
	r.Failed = len(m.failedTenants)
	m.failedMu.Unlock()
	return r
}

// HydrationHist exposes the hydration latency histogram (seconds buckets,
// internal/obs geometry) for the serving layer's /metrics.
func (m *Manager) HydrationHist() *obs.Histogram { return &m.hydrationHist }

// newLRU builds the residency bookkeeping for one shard.
func newLRU() (*list.List, map[string]*list.Element) {
	return list.New(), make(map[string]*list.Element)
}
