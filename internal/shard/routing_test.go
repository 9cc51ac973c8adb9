package shard

import (
	"bytes"
	"encoding/binary"
	"errors"
	"hash/crc32"
	"hash/fnv"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

func TestTableDefaultMatchesFNV(t *testing.T) {
	tb := NewTable(7)
	for _, id := range []string{"a", "plant-a", "loadgen-123-0007", "x.y_z-9"} {
		h := fnv.New32a()
		h.Write([]byte(id))
		want := int(h.Sum32() % 7)
		if got := tb.ShardFor(id); got != want {
			t.Fatalf("ShardFor(%q) = %d, want FNV default %d", id, got, want)
		}
	}
}

func TestTableAssignPersistsAndReloads(t *testing.T) {
	path := filepath.Join(t.TempDir(), "routing.tkcmrt")
	tb, err := OpenTable(path, 4)
	if err != nil {
		t.Fatal(err)
	}
	v0 := tb.Version()
	def := tb.ShardFor("plant-a")
	dst := (def + 1) % 4
	if err := tb.Assign("plant-a", dst); err != nil {
		t.Fatal(err)
	}
	if got := tb.ShardFor("plant-a"); got != dst {
		t.Fatalf("after assign: shard %d, want %d", got, dst)
	}
	if tb.Version() <= v0 {
		t.Fatalf("version %d did not advance past %d", tb.Version(), v0)
	}

	// Reload from disk: the assignment and version must survive.
	tb2, err := OpenTable(path, 4)
	if err != nil {
		t.Fatal(err)
	}
	if got := tb2.ShardFor("plant-a"); got != dst {
		t.Fatalf("reloaded: shard %d, want %d", got, dst)
	}
	if tb2.Version() != tb.Version() {
		t.Fatalf("reloaded version %d, want %d", tb2.Version(), tb.Version())
	}

	// Assigning back to the default route removes the explicit entry.
	if err := tb2.Assign("plant-a", def); err != nil {
		t.Fatal(err)
	}
	if n := len(tb2.Info().Assignments); n != 0 {
		t.Fatalf("assignment back to default left %d explicit entries", n)
	}
	if got := tb2.ShardFor("plant-a"); got != def {
		t.Fatalf("after default re-assign: shard %d, want %d", got, def)
	}
}

func TestTableUnassign(t *testing.T) {
	tb := NewTable(4)
	def := tb.ShardFor("x1")
	if err := tb.Assign("x1", (def+1)%4); err != nil {
		t.Fatal(err)
	}
	v := tb.Version()
	if !tb.UnassignMem("x1") {
		t.Fatal("unassign found no entry for x1")
	}
	if err := tb.Flush(); err != nil {
		t.Fatal(err)
	}
	if got := tb.ShardFor("x1"); got != def {
		t.Fatalf("after unassign: shard %d, want default %d", got, def)
	}
	if tb.Version() != v+1 {
		t.Fatalf("unassign version %d, want %d", tb.Version(), v+1)
	}
	// Unassigning a tenant with no entry is a free no-op.
	if tb.UnassignMem("never-assigned") {
		t.Fatal("unassigning a tenant with no entry changed the table")
	}
	if tb.Version() != v+1 {
		t.Fatalf("no-op unassign bumped version to %d", tb.Version())
	}
}

func TestTableAssignValidates(t *testing.T) {
	tb := NewTable(4)
	if err := tb.Assign("ok", 4); !errors.Is(err, ErrBadTable) {
		t.Fatalf("out-of-range shard: %v", err)
	}
	if err := tb.Assign("ok", -1); !errors.Is(err, ErrBadTable) {
		t.Fatalf("negative shard: %v", err)
	}
	if err := tb.Assign("", 0); !errors.Is(err, ErrBadTable) {
		t.Fatalf("empty id: %v", err)
	}
	if err := tb.Assign("-leading-dash", 0); !errors.Is(err, ErrBadTable) {
		t.Fatalf("bad leading char: %v", err)
	}
	if err := tb.Assign(strings.Repeat("a", 65), 0); !errors.Is(err, ErrBadTable) {
		t.Fatalf("overlong id: %v", err)
	}
}

// TestTableGrowKeepsDefaultRoutes is the resharding contract: reopening the
// table with more shards must not move a single default-routed tenant —
// the pinned modulus, not the live shard count, drives the hash.
func TestTableGrowKeepsDefaultRoutes(t *testing.T) {
	path := filepath.Join(t.TempDir(), "routing.tkcmrt")
	tb, err := OpenTable(path, 3)
	if err != nil {
		t.Fatal(err)
	}
	ids := []string{"t1", "t2", "t3", "plant-a", "plant-b", "x-9"}
	before := map[string]int{}
	for _, id := range ids {
		before[id] = tb.ShardFor(id)
	}
	if err := tb.Assign("plant-a", (before["plant-a"]+1)%3); err != nil {
		t.Fatal(err)
	}

	grown, err := OpenTable(path, 8)
	if err != nil {
		t.Fatal(err)
	}
	if grown.NumShards() != 8 {
		t.Fatalf("NumShards = %d, want 8", grown.NumShards())
	}
	for _, id := range ids {
		want := before[id]
		if id == "plant-a" {
			want = (before[id] + 1) % 3
		}
		if got := grown.ShardFor(id); got != want {
			t.Fatalf("after growth, %q routes to %d, want %d", id, got, want)
		}
	}
	// New shards are reachable through explicit assignment.
	if err := grown.Assign("t1", 7); err != nil {
		t.Fatal(err)
	}
	if got := grown.ShardFor("t1"); got != 7 {
		t.Fatalf("assignment to grown shard: %d, want 7", got)
	}
}

func TestTableShrinkRefusedWhileOccupied(t *testing.T) {
	path := filepath.Join(t.TempDir(), "routing.tkcmrt")
	tb, err := OpenTable(path, 4)
	if err != nil {
		t.Fatal(err)
	}
	// The default modulus spans 4 shards: shrinking below it must fail.
	if _, err := OpenTable(path, 2); err == nil {
		t.Fatal("shrink below the default modulus was accepted")
	}
	// Growth then shrink back to the modulus is fine while no explicit
	// assignment points above it.
	if _, err := OpenTable(path, 6); err != nil {
		t.Fatal(err)
	}
	tb6, err := OpenTable(path, 6)
	if err != nil {
		t.Fatal(err)
	}
	if err := tb6.Assign("pinned", 5); err != nil {
		t.Fatal(err)
	}
	if _, err := OpenTable(path, 4); err == nil {
		t.Fatal("shrink below an explicit assignment was accepted")
	}
	if !tb6.UnassignMem("pinned") {
		t.Fatal("unassign found no entry for pinned")
	}
	if err := tb6.Flush(); err != nil {
		t.Fatal(err)
	}
	if _, err := OpenTable(path, 4); err != nil {
		t.Fatalf("shrink back to the modulus after unassign: %v", err)
	}
	_ = tb
}

// craftTable builds a CRC-valid table image from raw payload bytes — the
// adversary's toolkit: the checksum is right, the content lies.
func craftTable(payload []byte) []byte {
	out := make([]byte, 0, len(tableMagic)+8+len(payload))
	out = append(out, tableMagic...)
	var u32 [4]byte
	binary.LittleEndian.PutUint32(u32[:], uint32(len(payload)))
	out = append(out, u32[:]...)
	binary.LittleEndian.PutUint32(u32[:], crc32.ChecksumIEEE(payload))
	return append(out, payload...)
}

// craftPayload assembles version/numShards/defaultMod/nEntries + entries.
func craftPayload(version uint64, numShards, defaultMod, nEntries uint32, entries []byte) []byte {
	p := make([]byte, 20, 20+len(entries))
	binary.LittleEndian.PutUint64(p[0:8], version)
	binary.LittleEndian.PutUint32(p[8:12], numShards)
	binary.LittleEndian.PutUint32(p[12:16], defaultMod)
	binary.LittleEndian.PutUint32(p[16:20], nEntries)
	return append(p, entries...)
}

func entry(id string, shard uint32) []byte {
	b := make([]byte, 2, 2+len(id)+4)
	binary.LittleEndian.PutUint16(b, uint16(len(id)))
	b = append(b, id...)
	var u32 [4]byte
	binary.LittleEndian.PutUint32(u32[:], shard)
	return append(b, u32[:]...)
}

// TestTableDecodeRejectsCrafted mirrors the RestoreEngine hardening: every
// image here carries a correct CRC, and every one must still be refused.
func TestTableDecodeRejectsCrafted(t *testing.T) {
	cases := []struct {
		name string
		data []byte
	}{
		{"empty", nil},
		{"short header", []byte(tableMagic)},
		{"bad magic", append([]byte("NOTATBL0"), craftTable(craftPayload(1, 4, 4, 0, nil))[8:]...)},
		{"truncated payload", craftTable(craftPayload(1, 4, 4, 0, nil))[:len(tableMagic)+8+10]},
		{"zero shards", craftTable(craftPayload(1, 0, 0, 0, nil))},
		{"huge shards", craftTable(craftPayload(1, MaxShards+1, 1, 0, nil))},
		{"zero default mod", craftTable(craftPayload(1, 4, 0, 0, nil))},
		{"default mod above shards", craftTable(craftPayload(1, 4, 5, 0, nil))},
		{"out-of-range shard id", craftTable(craftPayload(1, 4, 4, 1, entry("t1", 4)))},
		{"duplicate tenant", craftTable(craftPayload(1, 4, 4, 2, append(entry("t1", 0), entry("t1", 1)...)))},
		{"entry count beyond bytes", craftTable(craftPayload(1, 4, 4, 1000, entry("t1", 0)))},
		{"truncated entry id", craftTable(craftPayload(1, 4, 4, 1, entry("t1", 0)[:3]))},
		{"truncated entry shard", craftTable(craftPayload(1, 4, 4, 1, entry("t1", 0)[:4]))},
		{"zero-length id", craftTable(craftPayload(1, 4, 4, 1, entry("", 0)))},
		{"invalid id bytes", craftTable(craftPayload(1, 4, 4, 1, entry("bad/slash", 0)))},
		{"trailing garbage", craftTable(append(craftPayload(1, 4, 4, 1, entry("t1", 0)), 0xAA))},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			if _, err := decodeTable(tc.data); err == nil {
				t.Fatalf("crafted image %q decoded without error", tc.name)
			} else if !errors.Is(err, ErrBadTable) {
				t.Fatalf("crafted image %q: error %v is not ErrBadTable", tc.name, err)
			}
		})
	}
	// A wrong CRC is also refused (the only non-CRC-valid case).
	good := craftTable(craftPayload(1, 4, 4, 0, nil))
	good[12] ^= 0xFF
	if _, err := decodeTable(good); !errors.Is(err, ErrBadTable) {
		t.Fatalf("bad checksum: %v", err)
	}
}

func TestTableEncodeDecodeRoundtrip(t *testing.T) {
	v := &routeView{version: 42, numShards: 9, defaultMod: 3, assigned: map[string]int{
		"a": 8, "plant-b": 0, "x.y_z-9": 5,
	}}
	got, err := decodeTable(encodeTable(v))
	if err != nil {
		t.Fatal(err)
	}
	if got.version != v.version || got.numShards != v.numShards || got.defaultMod != v.defaultMod {
		t.Fatalf("header roundtrip: %+v vs %+v", got, v)
	}
	if len(got.assigned) != len(v.assigned) {
		t.Fatalf("entries roundtrip: %v vs %v", got.assigned, v.assigned)
	}
	for id, s := range v.assigned {
		if got.assigned[id] != s {
			t.Fatalf("entry %q: %d, want %d", id, got.assigned[id], s)
		}
	}
	// Encoding is deterministic (sorted entries) — byte-identical images
	// for equal tables, so repeated saves of an unchanged table are stable.
	if !bytes.Equal(encodeTable(v), encodeTable(got)) {
		t.Fatal("re-encoding a decoded table produced different bytes")
	}
}

func TestOpenTableRejectsCorruptFile(t *testing.T) {
	path := filepath.Join(t.TempDir(), "routing.tkcmrt")
	if err := os.WriteFile(path, []byte("garbage that is not a table"), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := OpenTable(path, 4); !errors.Is(err, ErrBadTable) {
		t.Fatalf("corrupt table file: %v", err)
	}
}

// FuzzTableDecode hammers the routing-table decoder with mutated images.
// Whatever the bytes, the decoder must never panic, and anything it accepts
// must be internally consistent and re-encode to an image that decodes to
// the same table.
func FuzzTableDecode(f *testing.F) {
	f.Add(encodeTable(&routeView{version: 1, numShards: 4, defaultMod: 4, assigned: map[string]int{}}))
	f.Add(encodeTable(&routeView{version: 9, numShards: 8, defaultMod: 2, assigned: map[string]int{
		"plant-a": 7, "t2": 0,
	}}))
	f.Add(craftTable(craftPayload(3, 16, 4, 1, entry("hot-tenant", 15))))
	f.Add(craftTable(craftPayload(1, 4, 4, 1, entry("t1", 4))))               // out of range
	f.Add(craftTable(append(craftPayload(1, 4, 4, 1, entry("t1", 0)), 0x00))) // trailing
	f.Add([]byte(tableMagic))
	f.Fuzz(func(t *testing.T, data []byte) {
		v, err := decodeTable(data)
		if err != nil {
			if v != nil {
				t.Fatal("error with non-nil table")
			}
			return
		}
		if v.numShards < 1 || v.numShards > MaxShards {
			t.Fatalf("accepted shard count %d", v.numShards)
		}
		if v.defaultMod < 1 || v.defaultMod > v.numShards {
			t.Fatalf("accepted default modulus %d over %d shards", v.defaultMod, v.numShards)
		}
		for id, s := range v.assigned {
			if s < 0 || s >= v.numShards {
				t.Fatalf("accepted assignment %q → %d over %d shards", id, s, v.numShards)
			}
			if !validTenantID(id) {
				t.Fatalf("accepted invalid tenant id %q", id)
			}
		}
		back, err := decodeTable(encodeTable(v))
		if err != nil {
			t.Fatalf("accepted table does not re-encode: %v", err)
		}
		if back.version != v.version || back.numShards != v.numShards ||
			back.defaultMod != v.defaultMod || len(back.assigned) != len(v.assigned) {
			t.Fatal("re-encoded table differs")
		}
	})
}

// TestShardForAllocates pins the routing hot path at zero allocations: it
// runs once per request, and an allocation here would show up at every
// tick of every tenant.
func TestShardForAllocates(t *testing.T) {
	tb := NewTable(8)
	if err := tb.Assign("assigned-tenant", 5); err != nil {
		t.Fatal(err)
	}
	for _, id := range []string{"assigned-tenant", "default-routed-tenant"} {
		if n := testing.AllocsPerRun(200, func() { tb.ShardFor(id) }); n != 0 {
			t.Fatalf("ShardFor(%q) allocates %.1f per call, want 0", id, n)
		}
	}
	m := New(Options{Routing: tb})
	defer m.Close()
	if n := testing.AllocsPerRun(200, func() { m.shardFor("default-routed-tenant") }); n != 0 {
		t.Fatalf("Manager.shardFor allocates %.1f per call, want 0", n)
	}
}

// BenchmarkTableShardFor guards the routing lookup that sits on the tick
// hot path — run with -benchmem; any allocation or lock here is a
// regression.
func BenchmarkTableShardFor(b *testing.B) {
	tb := NewTable(16)
	for i := 0; i < 64; i++ {
		tb.Assign("assigned-"+string(rune('a'+i%26))+"0", i%16)
	}
	ids := []string{"assigned-a0", "some-default-routed-tenant", "plant-a", "loadgen-1234-0042"}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		tb.ShardFor(ids[i&3])
	}
}
