package shard

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"sync/atomic"

	"tkcm/internal/durable"
)

// Routing table file format — one self-verifying image:
//
//	magic       "TKCMRT01" (8 bytes)
//	payloadLen  uint32 LE (bytes of payload)
//	crc         uint32 LE, IEEE CRC-32 of the payload
//	payload:
//	    version     uint64 LE  (bumped on every mutation)
//	    numShards   uint32 LE  (shard count the table was saved against)
//	    defaultMod  uint32 LE  (modulus of the default hash route, 1..numShards)
//	    nEntries    uint32 LE
//	    entries:    tenantLen uint16 LE | tenant bytes | shard uint32 LE
//
// The image is written atomically (temp + rename + fsync of file and
// directory), so a crash mid-save leaves the previous good table intact.
const (
	tableMagic = "TKCMRT01"
	// MaxShards bounds the shard count a routing table (and therefore a
	// manager) will accept — far above any deployment this process model
	// supports, low enough that a crafted image cannot demand absurdity.
	MaxShards = 1 << 12
	// maxTenantIDLen mirrors the server's tenant id pattern bound.
	maxTenantIDLen = 64
	// maxTablePayload bounds a table image against crafted length fields:
	// the largest legal payload is nEntries × (2 + 64 + 4) + 20 header
	// bytes, and far fewer tenants than this fit in one process anyway.
	maxTablePayload = 1 << 26
)

// ErrBadTable is returned when a routing-table image cannot be decoded —
// wrong magic, bad checksum, truncated entries, out-of-range shard ids,
// duplicate tenants. Match with errors.Is.
var ErrBadTable = errors.New("shard: bad routing table")

// RoutingInfo is a point-in-time description of the routing table, as
// exposed on GET /v1/cluster/routing.
type RoutingInfo struct {
	// Version counts table mutations; it bumps on every assignment flip.
	Version uint64 `json:"version"`
	// Shards is the shard count the table routes onto.
	Shards int `json:"shards"`
	// DefaultMod is the modulus of the default hash route. It is pinned at
	// table creation so growing the shard count never reroutes tenants that
	// have no explicit assignment.
	DefaultMod int `json:"default_mod"`
	// Assignments maps explicitly-routed tenants to their shards; tenants
	// absent here follow the default hash route.
	Assignments map[string]int `json:"assignments"`
}

// routeView is one immutable version of the table. Lookups load it with a
// single atomic read; mutations build a fresh view and swap the pointer, so
// the tick hot path never takes a lock.
type routeView struct {
	version    uint64
	numShards  int
	defaultMod int
	assigned   map[string]int
}

// Table is the persisted, versioned tenant→shard routing table: explicit
// assignments (created by migrations and the rebalancer) over a default
// FNV-1a hash route whose modulus is pinned at creation. Pinning the
// modulus is what lets -shards grow across restarts without silently
// rerouting every tenant: unassigned tenants keep hashing onto the original
// shard range, and new shards only receive tenants through explicit
// (persisted) assignments.
//
// Lookups (ShardFor) are lock-free and allocation-free. Mutations publish
// immutable views by compare-and-swap, so a memory-only mutation
// (UnassignMem, called on a shard goroutine) never waits on a disk write;
// saveMu serializes only the file I/O. Assign persists and fsyncs the new
// view before swapping it in — a reader can never observe an assignment
// that would not survive a crash.
type Table struct {
	path string // "" = ephemeral (never touches disk)

	// saveMu serializes disk writes only — never held across a view swap.
	// savedVersion (guarded by saveMu) is the highest version written: a
	// save of an older image is skipped, so racing savers cannot regress
	// the on-disk table behind a flip that was already made durable.
	saveMu       sync.Mutex
	savedVersion uint64
	view         atomic.Pointer[routeView]
}

// NewTable creates an ephemeral table over shards shards (no persistence) —
// the default for managers constructed without a routing path.
func NewTable(shards int) *Table {
	t := &Table{}
	t.view.Store(&routeView{
		version:    1,
		numShards:  shards,
		defaultMod: shards,
		assigned:   map[string]int{},
	})
	return t
}

// OpenTable loads the table at path, creating and persisting a fresh one
// (defaultMod = shards) if none exists. An existing table is validated
// against the requested shard count: growth re-saves the table with the new
// count (new shards start empty — the default modulus is pinned), shrinking
// is allowed only while no route, explicit or default, points at a removed
// shard; otherwise the open fails and the operator must migrate tenants off
// the doomed shards first.
func OpenTable(path string, shards int) (*Table, error) {
	if shards <= 0 || shards > MaxShards {
		return nil, fmt.Errorf("shard: routing table needs 1..%d shards, got %d", MaxShards, shards)
	}
	t := &Table{path: path}
	data, err := os.ReadFile(path)
	if errors.Is(err, os.ErrNotExist) {
		v := &routeView{version: 1, numShards: shards, defaultMod: shards, assigned: map[string]int{}}
		if err := t.save(v); err != nil {
			return nil, err
		}
		t.view.Store(v)
		return t, nil
	}
	if err != nil {
		return nil, fmt.Errorf("shard: reading routing table: %w", err)
	}
	v, err := decodeTable(data)
	if err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	if shards != v.numShards {
		if shards < v.defaultMod {
			return nil, fmt.Errorf("shard: %d shards requested but the routing table's default route spans %d — migrate tenants off shards ≥ %d first", shards, v.defaultMod, shards)
		}
		for id, s := range v.assigned {
			if s >= shards {
				return nil, fmt.Errorf("shard: %d shards requested but tenant %q is assigned to shard %d — migrate it first", shards, id, s)
			}
		}
		grown := v.clone()
		grown.numShards = shards
		grown.version++
		if err := t.save(grown); err != nil {
			return nil, err
		}
		v = grown
	}
	t.view.Store(v)
	return t, nil
}

// clone copies the view (a fresh assignment map included).
func (v *routeView) clone() *routeView {
	m := make(map[string]int, len(v.assigned))
	for k, s := range v.assigned {
		m[k] = s
	}
	return &routeView{version: v.version, numShards: v.numShards, defaultMod: v.defaultMod, assigned: m}
}

// NumShards returns the shard count the table routes onto.
func (t *Table) NumShards() int { return t.view.Load().numShards }

// Version returns the table's mutation counter.
func (t *Table) Version() uint64 { return t.view.Load().version }

// fnv32a is FNV-1a over the tenant id, inlined so the routing hot path —
// consulted once per request — allocates nothing (hash.Hash32 would escape).
// It matches hash/fnv bit-for-bit, preserving historical default placements.
func fnv32a(s string) uint32 {
	h := uint32(2166136261)
	for i := 0; i < len(s); i++ {
		h ^= uint32(s[i])
		h *= 16777619
	}
	return h
}

// ShardFor resolves a tenant id to its shard: the explicit assignment when
// one exists, the default hash route otherwise. Lock-free and
// allocation-free — this is consulted once per request on the tick path
// (guarded by BenchmarkTableShardFor and TestShardForAllocates).
func (t *Table) ShardFor(tenantID string) int {
	v := t.view.Load()
	if s, ok := v.assigned[tenantID]; ok {
		return s
	}
	return int(fnv32a(tenantID) % uint32(v.defaultMod))
}

// Assign routes tenant explicitly onto shard, persists the new table, and
// only then makes it visible — the atomic flip of a migration. Assigning a
// tenant to the shard its default route already names removes the explicit
// entry instead (same routing outcome, smaller table). Returns ErrBadTable
// wrapped errors for out-of-range shards or invalid tenant ids.
func (t *Table) Assign(tenant string, shard int) error {
	if !validTenantID(tenant) {
		return fmt.Errorf("%w: invalid tenant id %q", ErrBadTable, tenant)
	}
	for {
		v := t.view.Load()
		if shard < 0 || shard >= v.numShards {
			return fmt.Errorf("%w: shard %d out of range [0,%d)", ErrBadTable, shard, v.numShards)
		}
		next := v.clone()
		if int(fnv32a(tenant)%uint32(next.defaultMod)) == shard {
			delete(next.assigned, tenant)
		} else {
			next.assigned[tenant] = shard
		}
		next.version++
		if err := t.save(next); err != nil {
			return err
		}
		if t.view.CompareAndSwap(v, next) {
			return nil
		}
		// A concurrent memory-only mutation (UnassignMem) slipped in between
		// the load and the swap: the saved image is built on a stale view.
		// Retry from the fresh view — the re-save overwrites the stale image
		// before anyone acts on the flip, and a crash in the window just
		// leaves a valid (slightly older) table.
	}
}

// UnassignMem drops tenant's explicit assignment in memory only, reporting
// whether anything changed; pair with Flush to persist. Tenant delete uses
// the split because its route flip must happen inside the delete's shard
// operation (so a racing Create of the same id cannot land on the stale
// shard and be orphaned by a later flip) while no disk wait may run on the
// shard goroutine (it would head-of-line-block every co-resident tenant's
// ticks) — hence CAS, not a lock an Assign could hold across its fsync.
// Flipping before saving is safe here, unlike Assign: a crash that loses
// the save leaves a stale entry pointing at the shard the deleted tenant
// lived on — it pins where a future tenant of that id lands, nothing more.
func (t *Table) UnassignMem(tenant string) bool {
	for {
		v := t.view.Load()
		if _, ok := v.assigned[tenant]; !ok {
			return false
		}
		next := v.clone()
		delete(next.assigned, tenant)
		next.version++
		if t.view.CompareAndSwap(v, next) {
			return true
		}
	}
}

// Flush persists the current in-memory table.
func (t *Table) Flush() error {
	return t.save(t.view.Load())
}

// Info snapshots the table for the routing endpoint.
func (t *Table) Info() RoutingInfo {
	v := t.view.Load()
	m := make(map[string]int, len(v.assigned))
	for k, s := range v.assigned {
		m[k] = s
	}
	return RoutingInfo{Version: v.version, Shards: v.numShards, DefaultMod: v.defaultMod, Assignments: m}
}

// validTenantID mirrors the server's tenant id pattern
// (^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$) without a regexp dependency.
func validTenantID(s string) bool {
	if len(s) == 0 || len(s) > maxTenantIDLen {
		return false
	}
	for i := 0; i < len(s); i++ {
		c := s[i]
		switch {
		case c >= 'a' && c <= 'z', c >= 'A' && c <= 'Z', c >= '0' && c <= '9':
		case i > 0 && (c == '_' || c == '.' || c == '-'):
		default:
			return false
		}
	}
	return true
}

// encodeTable serializes v (entries in sorted tenant order, so identical
// tables produce identical bytes).
func encodeTable(v *routeView) []byte {
	ids := make([]string, 0, len(v.assigned))
	for id := range v.assigned {
		ids = append(ids, id)
	}
	sort.Strings(ids)
	payload := make([]byte, 0, 20+len(ids)*(2+maxTenantIDLen+4))
	var u64 [8]byte
	var u32 [4]byte
	var u16 [2]byte
	binary.LittleEndian.PutUint64(u64[:], v.version)
	payload = append(payload, u64[:]...)
	binary.LittleEndian.PutUint32(u32[:], uint32(v.numShards))
	payload = append(payload, u32[:]...)
	binary.LittleEndian.PutUint32(u32[:], uint32(v.defaultMod))
	payload = append(payload, u32[:]...)
	binary.LittleEndian.PutUint32(u32[:], uint32(len(ids)))
	payload = append(payload, u32[:]...)
	for _, id := range ids {
		binary.LittleEndian.PutUint16(u16[:], uint16(len(id)))
		payload = append(payload, u16[:]...)
		payload = append(payload, id...)
		binary.LittleEndian.PutUint32(u32[:], uint32(v.assigned[id]))
		payload = append(payload, u32[:]...)
	}
	out := make([]byte, 0, len(tableMagic)+8+len(payload))
	out = append(out, tableMagic...)
	binary.LittleEndian.PutUint32(u32[:], uint32(len(payload)))
	out = append(out, u32[:]...)
	binary.LittleEndian.PutUint32(u32[:], crc32.ChecksumIEEE(payload))
	out = append(out, u32[:]...)
	return append(out, payload...)
}

// decodeTable parses and validates one table image. Every length is checked
// against the bytes that actually remain before it is trusted, shard ids
// must fall inside the declared shard count, tenant ids must be valid and
// unique — a crafted CRC-valid image cannot smuggle a table that would
// route requests off the end of the shard slice or panic the manager.
func decodeTable(data []byte) (*routeView, error) {
	if len(data) < len(tableMagic)+8 {
		return nil, fmt.Errorf("%w: %d bytes is shorter than the header", ErrBadTable, len(data))
	}
	if string(data[:len(tableMagic)]) != tableMagic {
		return nil, fmt.Errorf("%w: bad magic %q", ErrBadTable, data[:len(tableMagic)])
	}
	payloadLen := binary.LittleEndian.Uint32(data[8:12])
	crc := binary.LittleEndian.Uint32(data[12:16])
	rest := data[16:]
	if payloadLen > maxTablePayload {
		return nil, fmt.Errorf("%w: implausible payload length %d", ErrBadTable, payloadLen)
	}
	if uint32(len(rest)) != payloadLen {
		return nil, fmt.Errorf("%w: payload is %d bytes, header says %d", ErrBadTable, len(rest), payloadLen)
	}
	if got := crc32.ChecksumIEEE(rest); got != crc {
		return nil, fmt.Errorf("%w: checksum mismatch", ErrBadTable)
	}
	if len(rest) < 20 {
		return nil, fmt.Errorf("%w: payload truncated before the entry count", ErrBadTable)
	}
	v := &routeView{
		version:    binary.LittleEndian.Uint64(rest[0:8]),
		numShards:  int(binary.LittleEndian.Uint32(rest[8:12])),
		defaultMod: int(binary.LittleEndian.Uint32(rest[12:16])),
	}
	n := binary.LittleEndian.Uint32(rest[16:20])
	rest = rest[20:]
	if v.numShards < 1 || v.numShards > MaxShards {
		return nil, fmt.Errorf("%w: shard count %d out of range [1,%d]", ErrBadTable, v.numShards, MaxShards)
	}
	if v.defaultMod < 1 || v.defaultMod > v.numShards {
		return nil, fmt.Errorf("%w: default modulus %d out of range [1,%d]", ErrBadTable, v.defaultMod, v.numShards)
	}
	// The smallest possible entry is 2 (len) + 1 (id) + 4 (shard) bytes; a
	// count the remaining bytes cannot hold is a lie, not an allocation size.
	if uint64(n) > uint64(len(rest))/7 {
		return nil, fmt.Errorf("%w: %d entries cannot fit in %d remaining bytes", ErrBadTable, n, len(rest))
	}
	v.assigned = make(map[string]int, n)
	for i := uint32(0); i < n; i++ {
		if len(rest) < 2 {
			return nil, fmt.Errorf("%w: entry %d truncated before its id length", ErrBadTable, i)
		}
		idLen := int(binary.LittleEndian.Uint16(rest[0:2]))
		rest = rest[2:]
		if idLen < 1 || idLen > maxTenantIDLen {
			return nil, fmt.Errorf("%w: entry %d id length %d out of range [1,%d]", ErrBadTable, i, idLen, maxTenantIDLen)
		}
		if len(rest) < idLen+4 {
			return nil, fmt.Errorf("%w: entry %d truncated (%d bytes left, need %d)", ErrBadTable, i, len(rest), idLen+4)
		}
		id := string(rest[:idLen])
		shard := int(binary.LittleEndian.Uint32(rest[idLen : idLen+4]))
		rest = rest[idLen+4:]
		if !validTenantID(id) {
			return nil, fmt.Errorf("%w: entry %d has invalid tenant id %q", ErrBadTable, i, id)
		}
		if _, dup := v.assigned[id]; dup {
			return nil, fmt.Errorf("%w: duplicate tenant %q", ErrBadTable, id)
		}
		if shard < 0 || shard >= v.numShards {
			return nil, fmt.Errorf("%w: tenant %q assigned to shard %d, out of range [0,%d)", ErrBadTable, id, shard, v.numShards)
		}
		v.assigned[id] = shard
	}
	if len(rest) != 0 {
		return nil, fmt.Errorf("%w: %d trailing bytes after the last entry", ErrBadTable, len(rest))
	}
	return v, nil
}

// save persists v atomically with durable.Replace, as the checkpoint path
// does. An ephemeral table (no path) skips the disk entirely. saveMu
// serializes concurrent savers (an Assign racing a Flush) so renames cannot
// interleave; it is never held while the in-memory view swaps, so lookups
// and memory-only mutations never wait on the disk.
func (t *Table) save(v *routeView) error {
	if t.path == "" {
		return nil
	}
	t.saveMu.Lock()
	defer t.saveMu.Unlock()
	if v.version < t.savedVersion {
		// A newer image is already durable; writing this one would roll the
		// disk back. (A skipped Assign save cannot leak an undurable flip:
		// savedVersion ≥ its version implies the view has already moved on,
		// so its CompareAndSwap fails and it retries on the fresh view.)
		return nil
	}
	dir := filepath.Dir(t.path)
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return fmt.Errorf("shard: routing table dir: %w", err)
	}
	// The replace is durable before the new route is acted on: a crash
	// that kept the old table while ticks already flowed to the new shard
	// would re-home the tenant on restart — harmless for durability (the WAL
	// is shard-agnostic) but a silent routing rollback all the same.
	if err := durable.Replace(durable.OS{}, dir, filepath.Base(t.path), func(w io.Writer) error {
		_, err := w.Write(encodeTable(v))
		return err
	}); err != nil {
		return fmt.Errorf("shard: saving routing table: %w", err)
	}
	t.savedVersion = v.version
	return nil
}
