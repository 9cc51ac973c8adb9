package server

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"net/http"
	"net/http/httptest"
	"path/filepath"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"tkcm/client"
	"tkcm/internal/core"
	"tkcm/internal/shard"
)

// postMigrate drives the migration endpoint raw and returns the response.
func postMigrate(t *testing.T, base, id string, body string) *http.Response {
	t.Helper()
	resp, err := http.Post(base+"/v1/tenants/"+id+"/migrate", "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	return resp
}

func TestMigrateEndpointAndRoutingDoc(t *testing.T) {
	s, ts := newTestServer(t, t.TempDir())
	defer s.m.Close()

	resp := createTenant(t, ts.URL, "me1", testTenantBody)
	resp.Body.Close()
	if resp.StatusCode != http.StatusCreated {
		t.Fatalf("create: %d", resp.StatusCode)
	}

	c := client.New(ts.URL)
	ctx := context.Background()
	before, err := c.Routing(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if before.Shards != 3 || before.DefaultMod != 3 {
		t.Fatalf("routing doc before: %+v", before)
	}

	info, err := c.GetTenant(ctx, "me1")
	if err != nil {
		t.Fatal(err)
	}
	dst := (info.Shard + 1) % 3
	res, err := c.MigrateTenant(ctx, "me1", dst)
	if err != nil {
		t.Fatal(err)
	}
	if res.Tenant != "me1" || res.From != info.Shard || res.To != dst {
		t.Fatalf("migrate result %+v, want from %d to %d", res, info.Shard, dst)
	}
	after, err := c.GetTenant(ctx, "me1")
	if err != nil {
		t.Fatal(err)
	}
	if after.Shard != dst {
		t.Fatalf("tenant on shard %d after migration to %d", after.Shard, dst)
	}
	doc, err := c.Routing(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if doc.Version <= before.Version {
		t.Fatalf("routing version %d did not advance past %d", doc.Version, before.Version)
	}
	if doc.MigrationsTotal != 1 {
		t.Fatalf("migrations_total %d, want 1", doc.MigrationsTotal)
	}
	if got, ok := doc.Assignments["me1"]; !ok || got != dst {
		t.Fatalf("assignments %v, want me1→%d", doc.Assignments, dst)
	}

	// The metrics exposition carries the migration counter and the gauge.
	metrics, err := c.Metrics(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(metrics, "tkcm_shard_migrations_total 1") {
		t.Fatal("metrics missing tkcm_shard_migrations_total")
	}
	if !strings.Contains(metrics, "tkcm_shard_imbalance") {
		t.Fatal("metrics missing tkcm_shard_imbalance")
	}

	// Error surface: unknown tenant, bad shard, missing body field.
	for _, tc := range []struct {
		id, body string
		status   int
	}{
		{"ghost", `{"shard": 1}`, http.StatusNotFound},
		{"me1", `{"shard": 99}`, http.StatusBadRequest},
		{"me1", `{}`, http.StatusBadRequest},
		{"me1", `not json`, http.StatusBadRequest},
	} {
		resp := postMigrate(t, ts.URL, tc.id, tc.body)
		resp.Body.Close()
		if resp.StatusCode != tc.status {
			t.Errorf("migrate %q body %q: status %d, want %d", tc.id, tc.body, resp.StatusCode, tc.status)
		}
	}
}

// TestMigrationStreamEquivalence is the property-test satellite: a client
// streaming sequenced rows straight through several live migrations must
// observe ack values byte-identical to a never-migrated control engine, and
// the final migrated engine must equal the control bit-for-bit. Afterwards,
// rows replayed across the flips are deduplicated exactly once.
func TestMigrationStreamEquivalence(t *testing.T) {
	s, ts := newTestServer(t, t.TempDir())
	defer s.m.Close()
	resp := createTenant(t, ts.URL, "eq", testTenantBody)
	resp.Body.Close()
	if resp.StatusCode != http.StatusCreated {
		t.Fatalf("create: %d", resp.StatusCode)
	}

	const total = 400
	rowFor := func(n int) []float64 {
		return e2eRow(n, 0.7)
	}

	c := client.New(ts.URL)
	ctx, cancel := context.WithTimeout(context.Background(), 120*time.Second)
	defer cancel()
	st, err := c.OpenStream(ctx, "eq", client.StreamOptions{Sequenced: true, MaxInFlight: 32})
	if err != nil {
		t.Fatal(err)
	}

	// Control: the same rows through an engine that never migrates.
	control, err := core.NewEngine(testCoreConfig(), []string{"s", "r1", "r2", "r3"}, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer control.Close()
	want := make([][]float64, total+1)
	for n := 1; n <= total; n++ {
		out, _, err := control.Tick(rowFor(n))
		if err != nil {
			t.Fatal(err)
		}
		want[n] = append([]float64(nil), out...)
	}

	var acked atomic.Uint64
	sendErr := make(chan error, 1)
	go func() {
		for n := 1; n <= total; n++ {
			if err := st.Send(ctx, rowFor(n)); err != nil {
				sendErr <- fmt.Errorf("send %d: %w", n, err)
				return
			}
		}
		sendErr <- nil
	}()
	recvDone := make(chan error, 1)
	go func() {
		for got := 0; got < total; got++ {
			ack, err := st.Recv(ctx)
			if err != nil {
				recvDone <- fmt.Errorf("recv after %d acks: %w", got, err)
				return
			}
			if ack.Duplicate {
				recvDone <- fmt.Errorf("seq %d acked as duplicate on first delivery", ack.Seq)
				return
			}
			w := want[ack.Seq]
			if len(ack.Values) != len(w) {
				recvDone <- fmt.Errorf("seq %d: %d values, want %d", ack.Seq, len(ack.Values), len(w))
				return
			}
			for i := range w {
				// Byte-identical: same float64 bits, no tolerance.
				if math.Float64bits(ack.Values[i]) != math.Float64bits(w[i]) {
					recvDone <- fmt.Errorf("seq %d stream %d: %x != control %x",
						ack.Seq, i, math.Float64bits(ack.Values[i]), math.Float64bits(w[i]))
					return
				}
			}
			acked.Store(ack.Seq)
		}
		recvDone <- nil
	}()

	// Walk the tenant across all three shards while the stream runs, pacing
	// each move on ack progress (a zero-pause migrate loop would starve the
	// single-P scheduler; real moves are endpoint-paced too). The pacing
	// also ends when the receiver exits, so a mismatch fails at once.
	migrations := 0
	for done := false; !done; {
		select {
		case err := <-recvDone:
			if err != nil {
				t.Fatal(err)
			}
			done = true
		default:
			if _, err := c.MigrateTenant(ctx, "eq", migrations%3); err != nil {
				t.Fatalf("migration %d: %v", migrations, err)
			}
			migrations++
			before := acked.Load()
			for acked.Load() == before && acked.Load() < total && len(recvDone) == 0 {
				time.Sleep(200 * time.Microsecond)
			}
		}
	}
	if err := <-sendErr; err != nil {
		t.Fatal(err)
	}
	if err := st.Close(); err != nil {
		t.Fatalf("close: %v", err)
	}
	if migrations < 2 {
		t.Fatalf("only %d migrations ran during the stream", migrations)
	}

	// The migrated engine is bit-identical to the control.
	var snap bytes.Buffer
	if _, err := c.Snapshot(ctx, "eq", &snap); err != nil {
		t.Fatal(err)
	}
	migrated, err := core.RestoreEngine(&snap)
	if err != nil {
		t.Fatal(err)
	}
	defer migrated.Close()
	if migrated.Seq() != control.Seq() {
		t.Fatalf("migrated seq %d, control %d", migrated.Seq(), control.Seq())
	}
	for i := 0; i < 4; i++ {
		g, w := migrated.Window().Snapshot(i), control.Window().Snapshot(i)
		if len(g) != len(w) {
			t.Fatalf("stream %d: %d ticks, want %d", i, len(g), len(w))
		}
		for j := range w {
			if math.Float64bits(g[j]) != math.Float64bits(w[j]) {
				t.Fatalf("stream %d tick %d: %x != %x", i, j, math.Float64bits(g[j]), math.Float64bits(w[j]))
			}
		}
	}

	// Exactly-once dedup across the flips: replay a tail of already-applied
	// sequenced rows on a fresh connection — every one must come back as a
	// duplicate, and the engine must not advance.
	raw := openTickStream(t, ts.URL, "eq")
	for n := total - 20; n <= total; n++ {
		out, err := raw.sendSeq(uint64(n), rowFor(n))
		if err != nil {
			t.Fatalf("replaying seq %d: %v", n, err)
		}
		if !out.Duplicate {
			t.Fatalf("replayed seq %d not marked duplicate", n)
		}
	}
	// And the next fresh row still applies normally.
	out, err := raw.sendSeq(total+1, rowFor(total+1))
	if err != nil {
		t.Fatal(err)
	}
	if out.Duplicate || out.Seq != total+1 {
		t.Fatalf("row after replay: %+v", out)
	}
	raw.close()
}

// sendSeq writes one sequenced row and returns the server's ack line.
func (st *tickStream) sendSeq(seq uint64, row []float64) (tickOut, error) {
	vals := make([]*float64, len(row))
	for i := range row {
		if !math.IsNaN(row[i]) {
			v := row[i]
			vals[i] = &v
		}
	}
	if err := st.enc.Encode(tickIn{Seq: seq, Values: vals}); err != nil {
		return tickOut{}, err
	}
	return st.readAck()
}

// readAck consumes one response line (waiting for headers first if needed).
func (st *tickStream) readAck() (tickOut, error) {
	if st.resp == nil {
		select {
		case st.resp = <-st.rc:
		case err := <-st.ec:
			return tickOut{}, err
		case <-time.After(10 * time.Second):
			st.t.Fatal("timeout waiting for response headers")
		}
		st.sc = bufio.NewScanner(st.resp.Body)
		st.sc.Buffer(make([]byte, 1<<20), 1<<20)
	}
	if !st.sc.Scan() {
		if err := st.sc.Err(); err != nil {
			return tickOut{}, err
		}
		return tickOut{}, io.EOF
	}
	line := st.sc.Bytes()
	var e apiError
	if json.Unmarshal(line, &e) == nil && e.Error != "" {
		return tickOut{}, fmt.Errorf("server error line: %s", e.Error)
	}
	var out tickOut
	if err := json.Unmarshal(line, &out); err != nil {
		return tickOut{}, fmt.Errorf("bad line %q: %w", line, err)
	}
	return out, nil
}

// TestRestartWithMoreShardsKeepsPlacement proves the resharding contract
// end-to-end: a server restarted over the same directories with a larger
// -shards keeps every tenant where it was — explicit assignments and
// default-routed tenants alike — and the new shards are usable targets.
func TestRestartWithMoreShardsKeepsPlacement(t *testing.T) {
	dir := t.TempDir()
	ckDir := filepath.Join(dir, "ck")
	ctx := context.Background()

	open := func(shards int) (*Server, *httptest.Server, *shard.Manager) {
		tb, err := shard.OpenTable(filepath.Join(ckDir, "routing.tkcmrt"), shards)
		if err != nil {
			t.Fatal(err)
		}
		m := shard.New(shard.Options{Routing: tb, QueueLen: 16})
		s := New(Options{Manager: m, CheckpointDir: ckDir, Log: quietLog()})
		if _, err := s.RestoreFromCheckpoints(ctx); err != nil {
			t.Fatal(err)
		}
		ts := httptest.NewServer(s.Handler())
		return s, ts, m
	}

	s, ts, m := open(2)
	for _, id := range []string{"ra", "rb", "rc"} {
		resp := createTenant(t, ts.URL, id, testTenantBody)
		resp.Body.Close()
		if resp.StatusCode != http.StatusCreated {
			t.Fatalf("create %s: %d", id, resp.StatusCode)
		}
	}
	c := client.New(ts.URL)
	infoA, err := c.GetTenant(ctx, "ra")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := c.MigrateTenant(ctx, "ra", 1-infoA.Shard); err != nil {
		t.Fatal(err)
	}
	placement := map[string]int{}
	tenants, err := c.ListTenants(ctx)
	if err != nil {
		t.Fatal(err)
	}
	for _, info := range tenants {
		placement[info.ID] = info.Shard
	}
	ts.Close()
	if err := s.Shutdown(ctx); err != nil {
		t.Fatal(err)
	}
	_ = m

	// Reopen with twice the shards.
	s4, ts4, m4 := open(4)
	defer func() {
		ts4.Close()
		m4.Close()
	}()
	c4 := client.New(ts4.URL)
	tenants4, err := c4.ListTenants(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if len(tenants4) != 3 {
		t.Fatalf("restored %d tenants, want 3", len(tenants4))
	}
	for _, info := range tenants4 {
		if info.Shard != placement[info.ID] {
			t.Fatalf("tenant %q moved from shard %d to %d across the grow",
				info.ID, placement[info.ID], info.Shard)
		}
	}
	doc, err := c4.Routing(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if doc.Shards != 4 {
		t.Fatalf("routing doc shards %d, want 4", doc.Shards)
	}
	// The grown shard is reachable.
	if _, err := c4.MigrateTenant(ctx, "rb", 3); err != nil {
		t.Fatal(err)
	}
	info, err := c4.GetTenant(ctx, "rb")
	if err != nil {
		t.Fatal(err)
	}
	if info.Shard != 3 {
		t.Fatalf("rb on shard %d after migration to grown shard 3", info.Shard)
	}
	_ = s4
}

func TestPlanRebalance(t *testing.T) {
	cases := []struct {
		name   string
		rates  []float64
		ten    []tenantRate
		wantID string
		wantTo int
		wantOK bool
	}{
		{
			name:  "balanced fleet stands pat",
			rates: []float64{100, 100, 100},
			ten:   []tenantRate{{"a", 0, 100}, {"b", 1, 100}, {"c", 2, 100}},
		},
		{
			name:  "gap below noise floor stands pat",
			rates: []float64{40, 10, 10},
			ten:   []tenantRate{{"a", 0, 40}},
		},
		{
			name:   "hot shard sheds the half-gap tenant",
			rates:  []float64{240, 12, 0},
			ten:    []tenantRate{{"x", 0, 150}, {"y", 0, 60}, {"z", 0, 30}, {"w", 1, 12}},
			wantID: "x",
			wantTo: 2,
			wantOK: true,
		},
		{
			name:  "single dominant tenant cannot improve",
			rates: []float64{200, 0},
			ten:   []tenantRate{{"only", 0, 200}},
		},
		{
			name:  "idle fleet stands pat",
			rates: []float64{0, 0, 0},
			ten:   nil,
		},
		{
			name:  "one shard is never rebalanced",
			rates: []float64{500},
			ten:   []tenantRate{{"a", 0, 500}},
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			id, to, ok := planRebalance(tc.rates, tc.ten)
			if ok != tc.wantOK || id != tc.wantID || (ok && to != tc.wantTo) {
				t.Fatalf("planRebalance = (%q, %d, %v), want (%q, %d, %v)",
					id, to, ok, tc.wantID, tc.wantTo, tc.wantOK)
			}
		})
	}
}

// TestRebalancerMovesHotTenant drives rebalanceOnce directly (the loop is a
// ticker around it): after a baseline sample, a hot shard with several busy
// tenants must shed its half-gap tenant to the idlest shard, and the
// imbalance gauge must reflect the skew.
func TestRebalancerMovesHotTenant(t *testing.T) {
	s, ts := newTestServer(t, t.TempDir())
	defer s.m.Close()
	defer ts.Close()
	ctx := context.Background()
	for _, id := range []string{"h1", "h2", "cold"} {
		resp := createTenant(t, ts.URL, id, testTenantBody)
		resp.Body.Close()
		if resp.StatusCode != http.StatusCreated {
			t.Fatalf("create %s: %d", id, resp.StatusCode)
		}
	}
	// Pin placement: h1+h2 share shard 0, cold sits on 1, shard 2 idle.
	for id, dst := range map[string]int{"h1": 0, "h2": 0, "cold": 1} {
		if _, err := s.m.Migrate(ctx, id, dst); err != nil {
			t.Fatal(err)
		}
	}

	s.rebalanceOnce(ctx) // baseline sample

	var rsp shard.BatchResponse
	feed := func(id string, n int) {
		for i := 0; i < n; i++ {
			if err := s.m.TickBatch(ctx, id, 0, [][]float64{e2eRow(i, 0)}, &rsp); err != nil {
				t.Fatal(err)
			}
		}
	}
	feed("h1", 150)
	feed("h2", 60)
	feed("cold", 12)

	s.rebalanceOnce(ctx)
	if got := s.imbalanceValue(); got < 1.5 {
		t.Fatalf("imbalance gauge %.2f, want the hot-shard skew (≥1.5)", got)
	}
	// h1 (closest to half the 210-tick gap) moves to the idle shard 2.
	info, err := s.m.Info(ctx, "h1")
	if err != nil {
		t.Fatal(err)
	}
	if info.Shard != 2 {
		t.Fatalf("hot tenant on shard %d after rebalance, want 2", info.Shard)
	}
	if s.m.Migrations() == 0 {
		t.Fatal("rebalance did not migrate")
	}
}
