package shard

import (
	"container/list"
	"context"
	"errors"
	"fmt"
	"io"
	"math"
	"sort"
	"sync"
	"sync/atomic"

	"tkcm/internal/core"
	"tkcm/internal/obs"
	"tkcm/internal/wal"
)

// Sentinel errors of the manager boundary. Tenant-specific occurrences are
// wrapped with the tenant id; match with errors.Is.
var (
	// ErrClosed is returned by every operation after Close has begun.
	ErrClosed = errors.New("shard: manager closed")
	// ErrTenantExists is returned by Create/Attach for an id already hosted.
	ErrTenantExists = errors.New("shard: tenant already exists")
	// ErrNoTenant is returned for operations on an unknown tenant id.
	ErrNoTenant = errors.New("shard: no such tenant")
	// ErrSeqGap is returned by a sequenced TickBatch whose first sequence
	// number skips ahead of the engine — rows in between were never applied,
	// so accepting the batch would silently lose them.
	ErrSeqGap = errors.New("shard: sequence gap")
	// ErrBadShard is returned by Migrate for a destination outside the
	// manager's shard range — a caller error, distinct from the internal
	// failures (hydration, WAL handoff, table save) a migration can also hit.
	ErrBadShard = errors.New("shard: no such shard")
)

// Options configures a Manager.
type Options struct {
	// Shards is the number of single-goroutine engine shards (default 4).
	// Ignored when Routing is set: the table's shard count wins, so the
	// routes it persists can never point off the end of the shard slice.
	Shards int
	// QueueLen bounds each shard's request queue (default 64). A full queue
	// blocks submitters — the backpressure making overload visible upstream.
	QueueLen int
	// Routing is the tenant→shard routing table. nil gets an ephemeral
	// default table over Shards shards (pure hash routing, no persistence).
	Routing *Table
	// WAL, when non-nil, write-ahead-logs every tick before it is applied:
	// Create/Attach open the tenant's log, Delete removes it, and TickBatch
	// appends the raw rows and hands back the group-commit handle in
	// BatchResponse.Durable. The caller acks only after Durable.Wait().
	WAL *wal.Manager
	// Hydrate rebuilds an evicted tenant's engine from its newest durable
	// checkpoint (the WAL tail is replayed on top by the shard). Setting it
	// enables the residency tier: without a hydrator no tenant is ever
	// evicted, whatever the caps say. The hook runs on a shard goroutine, so
	// it must not call back into the Manager.
	Hydrate func(tenantID string) (*core.Engine, error)
	// ResidentEngines caps how many tenant engines stay in memory across the
	// manager (0 = unlimited). The budget splits evenly across shards
	// (rounded up, at least 1 each); a shard over its share parks its
	// least-recently-used tenants. Requires Hydrate — and, to not lose ticks
	// appended since the base checkpoint, a WAL.
	ResidentEngines int
	// ResidentBytes caps the estimated in-memory engine footprint
	// (core.Engine.MemoryBytes) the same way (0 = unlimited). Both caps may
	// be set; either one over budget triggers eviction.
	ResidentBytes int64
	// Parkable, when set, vetoes eviction of tenants it returns false for.
	// The serving layer uses it to keep a tenant resident until its base
	// checkpoint exists on disk — evicting earlier would park a tenant that
	// hydration cannot rebuild. Runs on a shard goroutine; keep it cheap
	// (a stat, not a read).
	Parkable func(tenantID string) bool
}

// RowResult is one row's outcome inside a BatchResponse.
type RowResult struct {
	// Tick is the tenant engine's window tick index after this row.
	Tick int
	// Seq is the engine's sequence number for this row (rows ingested over
	// the tenant's lifetime; the first row is 1).
	Seq uint64
	// Duplicate reports that a sequenced row was already applied (its seq ≤
	// the engine's): the row was skipped and acked idempotently, with Values
	// and Imputed left empty. This is what makes client replay after a
	// reconnect exactly-once.
	Duplicate bool
	// Values holds the imputed cells' values in Imputed order: Values[x] is
	// stream Imputed[x]'s value. The caller already holds the row's present
	// cells, so they are not handed back.
	Values []float64
	// Imputed lists the stream indices that were missing in the input.
	Imputed []int
}

// BatchResponse receives the outcome of one Manager.TickBatch. Its slices
// (including each RowResult's) are reused across calls on the same value, so
// a caller streaming many batches allocates only in the first few.
type BatchResponse struct {
	// Durable is the single write-ahead-log commit handle covering EVERY row
	// of the batch: the rows share one log record and one group-commit slot,
	// and Wait returns once they are on stable storage. For duplicate rows it
	// verifies (forcing a sync if needed) that the original append's record
	// is still covered. The zero value (WAL disabled) waits for nothing.
	Durable wal.Commit
	// Rows holds one entry per input row, in order.
	Rows []RowResult

	// Stage clocks (internal/obs), always on — capturing them is two clock
	// reads per leg, cheap enough that sampling never gates measurement. The
	// whole batch shares one queue wait, one engine ingest and one WAL
	// record. QueueNanos is the time the operation waited between submission
	// and running on the shard goroutine (backpressure made visible per
	// line); EngineNanos is the engine compute time; AppliedAt is the
	// obs.Now timestamp at which the shard operation finished (rows applied,
	// WAL record appended) — the anchor the caller measures the group-commit
	// durability wait from.
	QueueNanos  int64
	EngineNanos int64
	AppliedAt   int64

	cols core.Columns // transpose scratch, reused across calls
}

// request is one queued operation; done is buffered so the shard goroutine
// never blocks handing back the result.
type request struct {
	op   func(*shard) error
	done chan error
}

// shard owns a disjoint subset of the tenants. Its state (the tenants map
// and every engine in it) is touched only by the shard goroutine; the
// counters are atomics so Stats can read them from outside.
type shard struct {
	id      int
	reqs    chan *request
	tenants map[string]*core.Engine

	// Residency tier (shard-goroutine only): parked holds evicted tenants'
	// footprints, lru/lruAt order the resident tenants by recency (front =
	// hottest), resBytes sums their estimated engine memory.
	parked   map[string]*parked
	lru      *list.List
	lruAt    map[string]*list.Element
	resBytes int64

	ntenants  atomic.Int64
	nresident atomic.Int64
	nparked   atomic.Int64
	processed atomic.Uint64
	ticks     atomic.Uint64
	imputed   atomic.Uint64
	waited    atomic.Uint64 // submissions that found the queue full
}

// Manager routes tenant operations onto shards.
type Manager struct {
	shards  []*shard
	routing *Table
	wal     *wal.Manager // nil = durability disabled
	senders sync.WaitGroup
	closed  atomic.Bool
	closing sync.Once
	wg      sync.WaitGroup

	// Residency tier: per-shard budgets (0 = unlimited), the hydration hook,
	// transition counters, and the fail-stop registry the health path reads.
	residentCap      int
	residentBytesCap int64
	hydrate          func(string) (*core.Engine, error)
	parkable         func(string) bool
	evictions        atomic.Uint64
	hydrations       atomic.Uint64
	hydrationHist    obs.Histogram
	failedMu         sync.Mutex
	failedTenants    map[string]error

	// Live-migration state: at most one tenant is in transit at a time
	// (migrateMu), and the hot path discovers it with one atomic load.
	migrateMu  sync.Mutex
	migrating  atomic.Pointer[migration]
	migrations atomic.Uint64
}

// New starts a manager with one goroutine per shard. The shard count comes
// from opts.Routing when set (so persisted routes always resolve), from
// opts.Shards otherwise.
func New(opts Options) *Manager {
	rt := opts.Routing
	if rt == nil {
		n := opts.Shards
		if n <= 0 {
			n = 4
		}
		rt = NewTable(n)
	}
	n := rt.NumShards()
	q := opts.QueueLen
	if q <= 0 {
		q = 64
	}
	m := &Manager{routing: rt, wal: opts.WAL, failedTenants: make(map[string]error)}
	if opts.Hydrate != nil {
		m.hydrate = opts.Hydrate
		m.parkable = opts.Parkable
		if opts.ResidentEngines > 0 {
			m.residentCap = (opts.ResidentEngines + n - 1) / n
		}
		if opts.ResidentBytes > 0 {
			m.residentBytesCap = (opts.ResidentBytes + int64(n) - 1) / int64(n)
		}
	}
	for i := 0; i < n; i++ {
		sh := &shard{id: i, reqs: make(chan *request, q), tenants: make(map[string]*core.Engine), parked: make(map[string]*parked)}
		sh.lru, sh.lruAt = newLRU()
		m.shards = append(m.shards, sh)
		m.wg.Add(1)
		go func() {
			defer m.wg.Done()
			sh.loop()
		}()
	}
	return m
}

// loop executes requests until the queue is closed and drained, then closes
// every hosted engine (releasing their tick worker pools).
func (sh *shard) loop() {
	for req := range sh.reqs {
		req.done <- req.op(sh)
		sh.processed.Add(1)
	}
	for _, eng := range sh.tenants {
		eng.Close()
	}
}

// Shards returns the shard count.
func (m *Manager) Shards() int { return len(m.shards) }

// RoutingInfo snapshots the routing table for the cluster routing endpoint.
func (m *Manager) RoutingInfo() RoutingInfo { return m.routing.Info() }

// Migrations counts completed tenant migrations.
func (m *Manager) Migrations() uint64 { return m.migrations.Load() }

// shardFor resolves a tenant id through the routing table — one lock-free
// table lookup per request (explicit assignment, else default hash).
func (m *Manager) shardFor(tenantID string) *shard {
	return m.shards[m.routing.ShardFor(tenantID)]
}

// ShardOf reports which shard tenantID currently routes to — the same
// lock-free, allocation-free lookup the request path uses. The answer is a
// snapshot: a live migration can move the tenant right after. Metric
// attribution (which shard's histogram a tick lands in) is its intended
// consumer, where a stale read mislabels at most a migration-window of
// ticks.
func (m *Manager) ShardOf(tenantID string) int { return m.routing.ShardFor(tenantID) }

// errMisrouted reports that an operation ran on a shard the tenant had
// already migrated away from (it was queued behind the migration's capture
// step). Internal: do retries it against the current route; it never
// escapes to callers.
var errMisrouted = errors.New("shard: tenant rerouted mid-operation")

// do routes op to the tenant's shard and waits for the result. A full
// queue blocks (recorded as a backpressure event) until space frees, ctx is
// done, or the manager closes. Once accepted, the operation always runs —
// even if ctx expires meanwhile — because Close drains accepted requests.
// While the tenant is mid-migration, op parks in the migration's bounded
// handoff buffer instead and runs on whichever shard the migration
// concludes on.
func (m *Manager) do(ctx context.Context, tenantID string, op func(*shard) error) error {
	for {
		if mig := m.migrating.Load(); mig != nil && mig.tenant == tenantID {
			err, handled := m.park(ctx, mig, op)
			if handled {
				return err
			}
			continue // migration concluded while we looked — re-resolve
		}
		err := m.submit(ctx, m.shardFor(tenantID), op)
		if errors.Is(err, errMisrouted) {
			continue
		}
		return err
	}
}

// misrouted reports that tenantID does not currently route to sh — the
// operation raced a migration (it was queued behind the capture step, or
// resolved the route just before the flip) and must be retried on the
// tenant's current shard. Called from op bodies on the shard goroutine, so
// a miss in sh.tenants plus a still-matching route is a genuinely unknown
// tenant: the map and the route only diverge while a migration is in
// flight, which the first check catches.
func (m *Manager) misrouted(sh *shard, tenantID string) bool {
	if mig := m.migrating.Load(); mig != nil && mig.tenant == tenantID {
		return true
	}
	return m.shards[m.routing.ShardFor(tenantID)] != sh
}

// missing classifies a tenant lookup miss on sh: a rerouted tenant retries,
// anything else is ErrNoTenant.
func (m *Manager) missing(sh *shard, tenantID string) error {
	if m.misrouted(sh, tenantID) {
		return errMisrouted
	}
	return fmt.Errorf("%w: %q", ErrNoTenant, tenantID)
}

// park enqueues op in the migration's handoff buffer. It returns
// handled=false when the caller must re-resolve the route: the migration
// has concluded, or the buffer is full and the flip arrived while waiting.
func (m *Manager) park(ctx context.Context, mig *migration, op func(*shard) error) (error, bool) {
	mig.mu.Lock()
	if mig.done {
		mig.mu.Unlock()
		return nil, false
	}
	if len(mig.parked) < handoffLen {
		req := &request{op: op, done: make(chan error, 1)}
		mig.parked = append(mig.parked, req)
		mig.mu.Unlock()
		// Accepted: like a queued request, it always runs (the migration's
		// conclusion forwards it, answering with ErrClosed if the manager
		// shut down meanwhile), so waiting without ctx mirrors submit.
		return <-req.done, true
	}
	mig.mu.Unlock()
	// Handoff buffer full — the migration-time backpressure. Wait for the
	// flip (or give up with the caller's context), then re-resolve.
	select {
	case <-mig.flipped:
		return nil, false
	case <-ctx.Done():
		return ctx.Err(), true
	}
}

func (m *Manager) submit(ctx context.Context, sh *shard, op func(*shard) error) error {
	// The senders WaitGroup brackets the send so Close can wait out every
	// in-flight submission before closing the queues; the closed check sits
	// after Add, which makes the pair race-free: either we see closed and
	// back out, or Close's Wait covers our send.
	m.senders.Add(1)
	if m.closed.Load() {
		m.senders.Done()
		return ErrClosed
	}
	req := &request{op: op, done: make(chan error, 1)}
	select {
	case sh.reqs <- req:
	default:
		sh.waited.Add(1)
		select {
		case sh.reqs <- req:
		case <-ctx.Done():
			m.senders.Done()
			return ctx.Err()
		}
	}
	m.senders.Done()
	return <-req.done
}

// Create hosts a new tenant engine over the named streams. refs may be nil
// (reference sets are then ranked from the data on first need). With a WAL
// configured, the tenant's log is opened before the tenant is visible; a
// tenant whose ticks cannot be made durable is refused outright.
func (m *Manager) Create(ctx context.Context, tenantID string, cfg core.Config, streams []string, refs map[string]core.ReferenceSet) error {
	return m.do(ctx, tenantID, func(sh *shard) error {
		if _, ok := sh.tenants[tenantID]; ok {
			return fmt.Errorf("%w: %q", ErrTenantExists, tenantID)
		}
		if _, ok := sh.parked[tenantID]; ok {
			// A parked tenant exists exactly like a resident one — and a
			// fail-stopped one must never be silently re-created over.
			return fmt.Errorf("%w: %q", ErrTenantExists, tenantID)
		}
		if m.misrouted(sh, tenantID) {
			// The id migrated away while this create was queued: creating
			// here would host a second engine under an id that lives on
			// another shard. Retry on the current route (where it will
			// correctly collide).
			return errMisrouted
		}
		eng, err := core.NewEngine(cfg, streams, refs)
		if err != nil {
			return err
		}
		if m.wal != nil {
			// A fresh tenant must start a fresh log. A stale directory can
			// survive a lost checkpoint (the restore path refuses to host a
			// tenant whose config it cannot recover); resuming it would pin
			// the log at the dead tenant's sequence numbers and make every
			// tick of the new one fail as out-of-order.
			if err := m.wal.Remove(tenantID); err != nil {
				eng.Close()
				return err
			}
			if _, err := m.wal.Open(tenantID); err != nil {
				eng.Close()
				return err
			}
		}
		sh.install(tenantID, eng)
		sh.ntenants.Add(1)
		m.maybeEvict(sh)
		return nil
	})
}

// Attach hosts an existing engine — typically one restored from a snapshot
// — as tenant tenantID. The manager takes ownership (it will Close the
// engine); on an error the caller still owns it. With a WAL configured, the
// tenant's log is opened, its records past the engine's sequence number are
// replayed into the engine the way hydration replays them, and the log is
// fast-forwarded past the engine's sequence number, so the next tick appends
// contiguously even when the checkpoint is newer than the log.
func (m *Manager) Attach(ctx context.Context, tenantID string, eng *core.Engine) error {
	return m.do(ctx, tenantID, func(sh *shard) error {
		if _, ok := sh.tenants[tenantID]; ok {
			return fmt.Errorf("%w: %q", ErrTenantExists, tenantID)
		}
		if _, ok := sh.parked[tenantID]; ok {
			return fmt.Errorf("%w: %q", ErrTenantExists, tenantID)
		}
		if m.misrouted(sh, tenantID) {
			return errMisrouted
		}
		if m.wal != nil {
			l, err := m.wal.Open(tenantID)
			if err != nil {
				return err
			}
			if err := m.replayLog(tenantID, eng); err != nil {
				return fmt.Errorf("replaying the WAL of tenant %q: %w", tenantID, err)
			}
			if err := l.SetNextSeq(eng.Seq() + 1); err != nil {
				return err
			}
		}
		sh.install(tenantID, eng)
		sh.ntenants.Add(1)
		m.maybeEvict(sh)
		return nil
	})
}

// Delete removes a tenant, closes its engine, and deletes its write-ahead
// log (a deleted tenant must not resurrect from its log on restart). The
// tenant's explicit routing assignment, if any, is dropped inside the same
// shard operation: flipping the route after the op returned would let a
// concurrent Create of the same id land on the stale shard and then be
// orphaned by the flip. Inside the op, such a Create either queues behind
// this one on the old shard (its miss then classifies as misrouted and
// retries on the new route) or resolves the new route directly. The
// unassign itself is best-effort — a stale entry only pins where a future
// tenant of the same id would land. Only the in-memory flip runs on the
// shard goroutine; the table save (an fsync) happens after the op, off the
// shard's critical path.
func (m *Manager) Delete(ctx context.Context, tenantID string) error {
	flipped := false
	err := m.do(ctx, tenantID, func(sh *shard) error {
		if _, ok := sh.tenants[tenantID]; ok {
			sh.detach(tenantID).Close()
		} else if _, ok := sh.parked[tenantID]; ok {
			// A parked tenant deletes without hydrating — there is no engine
			// state to tear down, only the footprint, the durable files, and
			// (for a fail-stopped tenant) the latched error. Delete is the
			// one operation that clears a fail-stop.
			delete(sh.parked, tenantID)
			sh.nparked.Add(-1)
			m.clearFailed(tenantID)
		} else {
			return m.missing(sh, tenantID)
		}
		sh.ntenants.Add(-1)
		flipped = m.routing.UnassignMem(tenantID)
		if m.wal != nil {
			return m.wal.Remove(tenantID)
		}
		return nil
	})
	if flipped {
		m.routing.Flush()
	}
	return err
}

// TickBatch feeds consecutive rows (NaN = missing) to the tenant's engine
// in one shard-queue operation — the manager's one tick operation, whether
// the caller holds one row or many: one routing lookup, one queue slot, one
// write-ahead-log record (and thus one group-commit slot), and one engine
// ingest for the whole batch. A lone row goes to the engine's scalar Tick;
// two or more are transposed once and ingested columnar, which is
// bit-identical to feeding them one at a time.
//
// seq makes the rows idempotent for replaying clients: it carries the
// sequence number of rows[0], and row i carries seq+i; 0 means unsequenced
// (always applied). Rows the engine has already applied are acked as
// duplicates in place, a batch straddling the engine's sequence number
// applies only the unseen suffix, and a batch skipping ahead is refused
// whole with ErrSeqGap. A row the engine would reject (wrong width, ±Inf)
// refuses the WHOLE batch before any row is logged or applied: the error
// names the offending row. With a WAL configured the rows are validated,
// then logged, then applied — rsp.Durable resolves when the log record is
// fsynced, and only then may the caller acknowledge them.
func (m *Manager) TickBatch(ctx context.Context, tenantID string, seq uint64, rows [][]float64, rsp *BatchResponse) error {
	if len(rows) == 0 {
		return errors.New("shard: empty batch")
	}
	enq := obs.Now()
	return m.do(ctx, tenantID, func(sh *shard) error {
		// Queue wait: submission to running on the shard goroutine. A
		// misrouted retry re-enters here, so the clock accumulates the full
		// wait across requeues — which is exactly what the line experienced.
		rsp.QueueNanos = obs.Now() - enq
		rsp.EngineNanos = 0
		eng, err := m.resident(sh, tenantID)
		if err != nil {
			return err
		}
		engSeq := eng.Seq()
		rsp.Durable = wal.Commit{}
		if cap(rsp.Rows) < len(rows) {
			rsp.Rows = append(rsp.Rows[:cap(rsp.Rows)], make([]RowResult, len(rows)-cap(rsp.Rows))...)
		}
		rsp.Rows = rsp.Rows[:len(rows)]

		skip := 0 // duplicate prefix length (sequenced client replay)
		if seq != 0 {
			if seq > engSeq+1 {
				return fmt.Errorf("%w: tenant %q: client seq %d, next is %d", ErrSeqGap, tenantID, seq, engSeq+1)
			}
			if last := seq + uint64(len(rows)) - 1; last <= engSeq {
				skip = len(rows)
			} else if seq <= engSeq {
				skip = int(engSeq + 1 - seq)
			}
		}
		for r := 0; r < skip; r++ {
			out := &rsp.Rows[r]
			out.Duplicate = true
			out.Seq = seq + uint64(r)
			out.Tick = eng.Window().Tick()
			out.Values = out.Values[:0]
			out.Imputed = out.Imputed[:0]
		}
		live := rows[skip:]
		if len(live) == 0 {
			// Every row was already applied — but "applied" is not
			// "durable": the original append's group commit may still be
			// pending, or may have failed after the rows reached the engine.
			// A duplicate ack is a durability promise like any other, so hand
			// back a handle that verifies (and if needed forces) coverage at
			// Wait time, on the caller's goroutine — syncing here would block
			// every tenant on this shard behind an fsync.
			if m.wal != nil {
				l := m.wal.Get(tenantID)
				if l == nil {
					return fmt.Errorf("shard: tenant %q has no open log", tenantID)
				}
				rsp.Durable = l.DurableCommit(seq + uint64(len(rows)) - 1)
			}
			rsp.AppliedAt = obs.Now()
			return nil
		}
		// Validate every live row up front so the batch is atomic — the WAL
		// record below must never hold a row the engine would refuse, neither
		// on the ingest that follows nor on crash replay, keeping the log and
		// the engine sequence in lockstep.
		for r, row := range live {
			if err := eng.ValidateRow(row); err != nil {
				return fmt.Errorf("shard: tenant %q: batch row %d: %w", tenantID, skip+r, err)
			}
		}
		if m.wal != nil {
			commit, err := m.wal.AppendBatch(tenantID, engSeq+1, live)
			if err != nil {
				return fmt.Errorf("shard: tenant %q: %w", tenantID, err)
			}
			// One commit slot covers the live rows, and — fsync being
			// sequential — everything appended before them, so the duplicate
			// prefix (if any) is covered by the same Wait.
			rsp.Durable = commit
		}
		var one []float64     // the lone row's completed values
		var cols core.Columns // the completed batch, stream-major
		if len(live) == 1 {
			// A lone row skips the transpose and the columnar set-up.
			e0 := obs.Now()
			one, _, err = eng.Tick(live[0])
			rsp.EngineNanos = obs.Now() - e0
		} else {
			rsp.transpose(live)
			e0 := obs.Now()
			cols, _, err = eng.TickColumns(rsp.cols)
			rsp.EngineNanos = obs.Now() - e0
		}
		if err != nil {
			return err // unreachable: every row was validated above
		}
		sh.ticks.Add(uint64(len(live)))
		baseTick := eng.Window().Tick() - len(live)
		baseSeq := eng.Seq() - uint64(len(live))
		for r := range live {
			out := &rsp.Rows[skip+r]
			out.Duplicate = false
			out.Tick = baseTick + r + 1
			out.Seq = baseSeq + uint64(r) + 1
			out.Values = out.Values[:0]
			out.Imputed = out.Imputed[:0]
			for i, v := range live[r] {
				if !math.IsNaN(v) {
					continue
				}
				if cols == nil {
					v = one[i]
				} else {
					v = cols[i][r]
				}
				out.Values = append(out.Values, v)
				out.Imputed = append(out.Imputed, i)
			}
			sh.imputed.Add(uint64(len(out.Imputed)))
		}
		rsp.AppliedAt = obs.Now()
		return nil
	})
}

// transpose copies rows into the stream-major scratch the columnar ingest
// reads.
func (rsp *BatchResponse) transpose(rows [][]float64) {
	width := len(rows[0])
	if cap(rsp.cols) < width {
		rsp.cols = make(core.Columns, width)
	}
	rsp.cols = rsp.cols[:width]
	for i := range rsp.cols {
		if cap(rsp.cols[i]) < len(rows) {
			rsp.cols[i] = make([]float64, len(rows))
		}
		rsp.cols[i] = rsp.cols[i][:len(rows)]
		for r, row := range rows {
			rsp.cols[i][r] = row[i]
		}
	}
}

// Snapshot streams the tenant engine's snapshot (core snapshot format) to
// w, serialized with the tenant's ticks on its shard goroutine, and
// returns the engine sequence number the snapshot covers — the safe
// truncation point for the tenant's write-ahead log.
func (m *Manager) Snapshot(ctx context.Context, tenantID string, w io.Writer) (uint64, error) {
	var seq uint64
	err := m.do(ctx, tenantID, func(sh *shard) error {
		// An explicit snapshot download hydrates a parked tenant: the caller
		// wants the full image, and the disk already holds everything needed
		// to rebuild it.
		eng, err := m.resident(sh, tenantID)
		if err != nil {
			return err
		}
		seq = eng.Seq()
		return eng.Snapshot(w)
	})
	return seq, err
}

// TenantInfo describes one hosted tenant.
type TenantInfo struct {
	ID      string   `json:"id"`
	Shard   int      `json:"shard"`
	Streams []string `json:"streams"`
	Ticks   int      `json:"ticks"`
	// Seq is the engine's sequence number: rows ingested over the tenant's
	// lifetime. A sequenced client resumes sending at Seq+1.
	Seq uint64 `json:"seq"`
	// Imputations counts the missing values this tenant's engine has filled.
	Imputations int `json:"imputations"`
	// Resident reports whether the tenant's engine is in memory; a parked
	// tenant serves this listing from its footprint without hydrating.
	Resident bool `json:"resident"`
	// Failed reports a tenant latched fail-stopped by a hydration failure.
	Failed bool `json:"failed,omitempty"`
}

// infoFor builds the TenantInfo of a resident engine. Shard-goroutine only.
func infoFor(sh *shard, id string, eng *core.Engine) TenantInfo {
	return TenantInfo{
		ID:          id,
		Shard:       sh.id,
		Streams:     eng.Window().Names(),
		Ticks:       eng.Stats.Ticks,
		Seq:         eng.Seq(),
		Imputations: eng.Stats.Imputations,
		Resident:    true,
	}
}

// infoForParked builds the TenantInfo of a parked tenant from its footprint.
func infoForParked(sh *shard, id string, p *parked) TenantInfo {
	return TenantInfo{
		ID:          id,
		Shard:       sh.id,
		Streams:     p.streams,
		Ticks:       p.ticks,
		Seq:         p.seq,
		Imputations: p.imputations,
		Failed:      p.failed != nil,
	}
}

// Info describes a single tenant, or ErrNoTenant. A parked tenant answers
// from its footprint — metadata queries must not churn the residency tier.
func (m *Manager) Info(ctx context.Context, tenantID string) (TenantInfo, error) {
	var info TenantInfo
	err := m.do(ctx, tenantID, func(sh *shard) error {
		if eng, ok := sh.tenants[tenantID]; ok {
			info = infoFor(sh, tenantID, eng)
			return nil
		}
		if p, ok := sh.parked[tenantID]; ok {
			info = infoForParked(sh, tenantID, p)
			return nil
		}
		return m.missing(sh, tenantID)
	})
	return info, err
}

// Tenants lists every hosted tenant, sorted by id. The walk holds
// migrateMu: a tenant mid-migration is in no shard map between the source's
// detach and the destination's install, and one moving ahead of (or behind)
// the shard iterator would be listed twice or not at all. Tenants change
// shards only inside Migrate, so excluding migrations for the walk's
// duration makes the listing a consistent snapshot — a listing that races a
// move waits it out (the same transient delay every per-tenant operation
// already accepts) instead of showing a live tenant as deleted.
func (m *Manager) Tenants(ctx context.Context) ([]TenantInfo, error) {
	m.migrateMu.Lock()
	defer m.migrateMu.Unlock()
	var all []TenantInfo
	for _, sh := range m.shards {
		err := m.submit(ctx, sh, func(sh *shard) error {
			for id, eng := range sh.tenants {
				all = append(all, infoFor(sh, id, eng))
			}
			for id, p := range sh.parked {
				all = append(all, infoForParked(sh, id, p))
			}
			return nil
		})
		if err != nil {
			return nil, err
		}
	}
	sort.Slice(all, func(i, j int) bool { return all[i].ID < all[j].ID })
	return all, nil
}

// ShardStats is one shard's activity counters.
type ShardStats struct {
	Shard        int    `json:"shard"`
	Tenants      int64  `json:"tenants"`
	Resident     int64  `json:"resident"`
	Parked       int64  `json:"parked"`
	QueueDepth   int    `json:"queue_depth"`
	QueueCap     int    `json:"queue_cap"`
	Processed    uint64 `json:"processed"`
	Ticks        uint64 `json:"ticks"`
	Imputations  uint64 `json:"imputations"`
	Backpressure uint64 `json:"backpressure"` // submissions that found the queue full
}

// Stats samples every shard's counters (lock-free; queue depth is a racy
// instantaneous read, fine for metrics).
func (m *Manager) Stats() []ShardStats {
	out := make([]ShardStats, len(m.shards))
	for i, sh := range m.shards {
		out[i] = ShardStats{
			Shard:        sh.id,
			Tenants:      sh.ntenants.Load(),
			Resident:     sh.nresident.Load(),
			Parked:       sh.nparked.Load(),
			QueueDepth:   len(sh.reqs),
			QueueCap:     cap(sh.reqs),
			Processed:    sh.processed.Load(),
			Ticks:        sh.ticks.Load(),
			Imputations:  sh.imputed.Load(),
			Backpressure: sh.waited.Load(),
		}
	}
	return out
}

// Close drains and stops the manager: new submissions fail with ErrClosed,
// requests already accepted (including queued ones) still complete, then the
// shard goroutines close their engines and exit. Idempotent; safe to call
// concurrently.
func (m *Manager) Close() {
	m.closed.Store(true)
	m.closing.Do(func() {
		m.senders.Wait()
		for _, sh := range m.shards {
			close(sh.reqs)
		}
	})
	m.wg.Wait()
}
