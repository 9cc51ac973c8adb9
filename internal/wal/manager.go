package wal

import (
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"sync/atomic"
)

// Manager hosts one Log per tenant under a common root directory
// (<root>/<tenant>/seg-*.wal) and aggregates their activity counters for
// the service's /metrics endpoint. All methods are safe for concurrent use.
type Manager struct {
	root string
	opts Options

	mu   sync.Mutex
	logs map[string]*Log

	appends   atomic.Uint64
	syncs     atomic.Uint64
	syncErrs  atomic.Uint64
	bytes     atomic.Uint64
	truncates atomic.Uint64
}

// NewManager creates a manager rooted at dir. Logs are opened lazily by
// Open; nothing touches the filesystem until then.
func NewManager(dir string, opts Options) *Manager {
	return &Manager{root: dir, opts: opts, logs: make(map[string]*Log)}
}

// Root returns the manager's root directory.
func (m *Manager) Root() string { return m.root }

// dir returns tenant's log directory. Tenant ids are validated upstream
// (server.tenantIDPattern) to be safe path segments.
func (m *Manager) dir(tenant string) string {
	return filepath.Join(m.root, tenant)
}

// Open opens (or returns the already-open) log of tenant, healing any torn
// tail left by a crash.
func (m *Manager) Open(tenant string) (*Log, error) {
	m.mu.Lock()
	defer m.mu.Unlock()
	if l, ok := m.logs[tenant]; ok {
		return l, nil
	}
	ctr := &counters{
		appends:   func(n uint64) { m.appends.Add(n) },
		syncs:     func(n uint64) { m.syncs.Add(n) },
		syncErrs:  func(n uint64) { m.syncErrs.Add(n) },
		bytes:     func(n uint64) { m.bytes.Add(n) },
		truncates: func(n uint64) { m.truncates.Add(n) },
	}
	l, err := open(m.dir(tenant), m.opts, ctr)
	if err != nil {
		return nil, fmt.Errorf("wal: tenant %q: %w", tenant, err)
	}
	m.logs[tenant] = l
	return l, nil
}

// Get returns tenant's open log, or nil if Open was never called for it.
func (m *Manager) Get(tenant string) *Log {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.logs[tenant]
}

// AppendBatch appends rows as one record to tenant's log (which must be
// open); the returned Commit covers every row. See Log.AppendBatch.
func (m *Manager) AppendBatch(tenant string, seq uint64, rows [][]float64) (Commit, error) {
	l := m.Get(tenant)
	if l == nil {
		return Commit{}, fmt.Errorf("wal: tenant %q has no open log", tenant)
	}
	return l.AppendBatch(seq, rows)
}

// Truncate drops tenant's segments wholly covered by a checkpoint at
// uptoSeq. A tenant without an open log is a no-op.
func (m *Manager) Truncate(tenant string, uptoSeq uint64) error {
	l := m.Get(tenant)
	if l == nil {
		return nil
	}
	return l.Truncate(uptoSeq)
}

// Remove closes tenant's log and deletes its directory — the durable
// counterpart of a tenant delete. Removing a tenant that has no log (or no
// directory) is not an error.
func (m *Manager) Remove(tenant string) error {
	m.mu.Lock()
	l := m.logs[tenant]
	delete(m.logs, tenant)
	m.mu.Unlock()
	if l != nil {
		l.Close()
	}
	if err := m.opts.fs().RemoveAll(m.dir(tenant)); err != nil {
		return fmt.Errorf("wal: removing tenant %q: %w", tenant, err)
	}
	return nil
}

// Tenants lists the tenant ids that have a log directory on disk (open or
// not) — the restore path walks this to find WALs to replay.
func (m *Manager) Tenants() ([]string, error) {
	entries, err := m.opts.fs().ReadDir(m.root)
	if os.IsNotExist(err) {
		return nil, nil
	}
	if err != nil {
		return nil, fmt.Errorf("wal: %w", err)
	}
	var ids []string
	for _, ent := range entries {
		if ent.IsDir() {
			ids = append(ids, ent.Name())
		}
	}
	return ids, nil
}

// Key returns the integrity key the manager opens logs with.
func (m *Manager) Key() []byte { return m.opts.Key }

// FailedTenants lists tenants whose open log has latched its fail-stop
// error, sorted — the health endpoint's degraded report.
func (m *Manager) FailedTenants() []string {
	m.mu.Lock()
	defer m.mu.Unlock()
	var ids []string
	for id, l := range m.logs {
		if l.Failed() != nil {
			ids = append(ids, id)
		}
	}
	sort.Strings(ids)
	return ids
}

// OpenTenants lists tenants with an open log, sorted — the replication
// manifest walks this (a tenant without an open log has taken no writes).
func (m *Manager) OpenTenants() []string {
	m.mu.Lock()
	defer m.mu.Unlock()
	ids := make([]string, 0, len(m.logs))
	for id := range m.logs {
		ids = append(ids, id)
	}
	sort.Strings(ids)
	return ids
}

// ReplState snapshots tenant's log for a replication manifest (the log must
// be open).
func (m *Manager) ReplState(tenant string) (ReplState, error) {
	l := m.Get(tenant)
	if l == nil {
		return ReplState{}, fmt.Errorf("wal: tenant %q has no open log", tenant)
	}
	return l.ReplState()
}

// Close closes every open log. The manager must not be used afterwards.
func (m *Manager) Close() error {
	m.mu.Lock()
	logs := m.logs
	m.logs = make(map[string]*Log)
	m.mu.Unlock()
	var firstErr error
	for _, l := range logs {
		if err := l.Close(); err != nil && firstErr == nil {
			firstErr = err
		}
	}
	return firstErr
}

// Stats is a point-in-time aggregate of WAL activity across all tenants.
type Stats struct {
	// Appends counts records appended.
	Appends uint64
	// Syncs counts group commits (fsync batches) completed.
	Syncs uint64
	// SyncErrors counts fsyncs that failed — every record in such a batch
	// reported the error to its producer instead of acking.
	SyncErrors uint64
	// Bytes counts record bytes written (framing included).
	Bytes uint64
	// Truncations counts segment files reclaimed after checkpoints.
	Truncations uint64
	// OpenLogs is the number of tenants with an open log.
	OpenLogs int
}

// Stats samples the manager's counters.
func (m *Manager) Stats() Stats {
	m.mu.Lock()
	open := len(m.logs)
	m.mu.Unlock()
	return Stats{
		Appends:     m.appends.Load(),
		Syncs:       m.syncs.Load(),
		SyncErrors:  m.syncErrs.Load(),
		Bytes:       m.bytes.Load(),
		Truncations: m.truncates.Load(),
		OpenLogs:    open,
	}
}
