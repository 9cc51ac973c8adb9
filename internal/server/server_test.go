package server

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"log"
	"log/slog"
	"math"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"tkcm/internal/core"
	"tkcm/internal/shard"
	"tkcm/internal/wal"
)

func quietLog() *slog.Logger {
	return slog.New(slog.NewTextHandler(io.Discard, nil))
}

func newTestServer(t *testing.T, dir string) (*Server, *httptest.Server) {
	t.Helper()
	m := shard.New(shard.Options{Shards: 3, QueueLen: 16})
	s := New(Options{Manager: m, CheckpointDir: dir, Log: quietLog()})
	ts := httptest.NewServer(s.Handler())
	t.Cleanup(ts.Close)
	return s, ts
}

func createTenant(t *testing.T, base, id string, body string) *http.Response {
	t.Helper()
	resp, err := http.Post(base+"/v1/tenants/"+id, "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	return resp
}

const testTenantBody = `{
	"streams": ["s", "r1", "r2", "r3"],
	"config": {"k": 2, "pattern_length": 3, "d": 2, "window_length": 24}
}`

func testCoreConfig() core.Config {
	return core.Config{K: 2, PatternLength: 3, D: 2, WindowLength: 24}
}

// tickStream drives one NDJSON /ticks request in lock-step: send a row, read
// its ack and complete the row from it. The Go HTTP transport's split
// read/write loops make the request fully duplex.
type tickStream struct {
	t    *testing.T
	pw   *io.PipeWriter
	enc  *json.Encoder
	sc   *bufio.Scanner
	resp *http.Response
	rc   chan *http.Response
	ec   chan error
}

func openTickStream(t *testing.T, base, tenant string) *tickStream {
	t.Helper()
	pr, pw := io.Pipe()
	req, err := http.NewRequest("POST", base+"/v1/tenants/"+tenant+"/ticks", pr)
	if err != nil {
		t.Fatal(err)
	}
	req.Header.Set("Content-Type", "application/x-ndjson")
	st := &tickStream{t: t, pw: pw, enc: json.NewEncoder(pw), rc: make(chan *http.Response, 1), ec: make(chan error, 1)}
	// A test that fails mid-stream skips close; ending the body lets the
	// handler return, or the server's Close would wait for it forever.
	t.Cleanup(func() { pw.Close() })
	go func() {
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			st.ec <- err
			return
		}
		st.rc <- resp
	}()
	return st
}

// send writes one unsequenced row (NaN → null) and returns its ack with
// Values completed.
func (st *tickStream) send(row []float64) (tickOut, error) {
	return st.sendSeq(0, row)
}

// sendSeq writes one row numbered seq (0 = unsequenced) and returns its ack
// with Values completed.
func (st *tickStream) sendSeq(seq uint64, row []float64) (tickOut, error) {
	if err := st.enc.Encode(tickIn{Seq: seq, Values: nulls(row)}); err != nil {
		return tickOut{}, err
	}
	return st.readAck(row)
}

// nulls converts a row to its JSON form, NaN becoming null.
func nulls(row []float64) []*float64 {
	vals := make([]*float64, len(row))
	for i := range row {
		if !math.IsNaN(row[i]) {
			vals[i] = &row[i]
		}
	}
	return vals
}

// readAck consumes one response line (waiting for headers first if needed)
// and, unless it is a duplicate, completes sent — the row it answers — from
// it: the line carries only the imputed cells. Values is then the completed
// row, and an ack that does not impute exactly sent's missing cells is an
// error.
func (st *tickStream) readAck(sent []float64) (tickOut, error) {
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
	if out.Duplicate {
		return out, nil
	}
	if len(out.Values) != len(out.Imputed) {
		return tickOut{}, fmt.Errorf("ack %q: %d values for %d imputed cells", line, len(out.Values), len(out.Imputed))
	}
	row := append([]float64(nil), sent...)
	for x, c := range out.Imputed {
		if c < 0 || c >= len(row) || !math.IsNaN(row[c]) {
			return tickOut{}, fmt.Errorf("ack %q imputes cell %d of %v", line, c, sent)
		}
		row[c] = out.Values[x]
	}
	for c, v := range row {
		if math.IsNaN(v) {
			return tickOut{}, fmt.Errorf("ack %q leaves cell %d of %v missing", line, c, sent)
		}
	}
	out.Values = row
	return out, nil
}

func (st *tickStream) close() {
	st.pw.Close()
	if st.resp == nil {
		select {
		case st.resp = <-st.rc:
		case err := <-st.ec:
			st.t.Logf("stream close: %v", err)
			return
		case <-time.After(10 * time.Second):
			st.t.Fatal("timeout closing stream")
		}
	}
	io.Copy(io.Discard, st.resp.Body)
	st.resp.Body.Close()
}

// e2eRow synthesizes tick t for a 4-stream tenant; offset decorrelates
// tenants so they exercise different values.
func e2eRow(t int, offset float64) []float64 {
	row := make([]float64, 4)
	for i := range row {
		ph := 2*math.Pi*float64(t)/16 + 1.1*float64(i) + offset
		row[i] = 10 + 3*math.Sin(ph) + math.Sin(2*ph)
	}
	if t > 10 && t%4 == 0 {
		row[0] = math.NaN()
	}
	if t > 10 && t%6 == 0 {
		row[2] = math.NaN()
	}
	return row
}

// TestEndToEndTwoTenantsMatchDirectEngines is the tentpole acceptance test:
// two tenants streamed concurrently over HTTP must produce responses
// numerically identical to directly-driven engines on the same rows.
func TestEndToEndTwoTenantsMatchDirectEngines(t *testing.T) {
	_, ts := newTestServer(t, "")
	for _, id := range []string{"alpha", "beta"} {
		resp := createTenant(t, ts.URL, id, testTenantBody)
		if resp.StatusCode != http.StatusCreated {
			b, _ := io.ReadAll(resp.Body)
			t.Fatalf("create %s: %d %s", id, resp.StatusCode, b)
		}
		resp.Body.Close()
	}

	const ticks = 200
	var wg sync.WaitGroup
	for ti, id := range []string{"alpha", "beta"} {
		wg.Add(1)
		go func() {
			defer wg.Done()
			offset := 0.7 * float64(ti)
			direct, err := core.NewEngine(testCoreConfig(), []string{"s", "r1", "r2", "r3"}, nil)
			if err != nil {
				t.Error(err)
				return
			}
			defer direct.Close()
			st := openTickStream(t, ts.URL, id)
			defer st.close()
			for tk := 0; tk < ticks; tk++ {
				row := e2eRow(tk, offset)
				want, _, err := direct.Tick(append([]float64(nil), row...))
				if err != nil {
					t.Errorf("%s direct tick %d: %v", id, tk, err)
					return
				}
				got, err := st.send(row)
				if err != nil {
					t.Errorf("%s stream tick %d: %v", id, tk, err)
					return
				}
				if got.Tick != tk {
					t.Errorf("%s tick index %d, want %d", id, got.Tick, tk)
					return
				}
				for i := range want {
					if got.Values[i] != want[i] {
						t.Errorf("%s tick %d stream %d: served %v, direct %v", id, tk, i, got.Values[i], want[i])
						return
					}
				}
			}
		}()
	}
	wg.Wait()

	// The metrics endpoint must reflect the streamed work.
	resp, err := http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	body, _ := io.ReadAll(resp.Body)
	if !bytes.Contains(body, []byte(fmt.Sprintf("tkcm_ticks_total %d", 2*ticks))) {
		t.Errorf("metrics missing tick totals:\n%s", body)
	}
	if !bytes.Contains(body, []byte("tkcm_tenants 2")) {
		t.Errorf("metrics missing tenant gauge:\n%s", body)
	}
}

// TestCheckpointRestoreMidStream kills a serving process mid-stream (no
// graceful shutdown) and restores a fresh one from the last checkpoint; a
// client replaying from the checkpointed tick must then see imputations
// matching an uninterrupted engine within 1e-9 — the snapshot/restore
// acceptance criterion end to end.
func TestCheckpointRestoreMidStream(t *testing.T) {
	dir := t.TempDir()
	const preCk, lost, post = 120, 7, 80

	sA, tsA := newTestServer(t, dir)
	resp := createTenant(t, tsA.URL, "ten", testTenantBody)
	if resp.StatusCode != http.StatusCreated {
		t.Fatalf("create: %d", resp.StatusCode)
	}
	resp.Body.Close()

	stA := openTickStream(t, tsA.URL, "ten")
	for tk := 0; tk < preCk; tk++ {
		if _, err := stA.send(e2eRow(tk, 0)); err != nil {
			t.Fatalf("tick %d: %v", tk, err)
		}
	}
	// Force a checkpoint, then stream a few more rows that will be lost in
	// the "crash".
	cr, err := http.Post(tsA.URL+"/v1/checkpoint", "", nil)
	if err != nil {
		t.Fatal(err)
	}
	if cr.StatusCode != http.StatusOK {
		t.Fatalf("checkpoint: %d", cr.StatusCode)
	}
	cr.Body.Close()
	for tk := preCk; tk < preCk+lost; tk++ {
		if _, err := stA.send(e2eRow(tk, 0)); err != nil {
			t.Fatalf("post-checkpoint tick %d: %v", tk, err)
		}
	}
	stA.close()
	tsA.Close() // kill: no Shutdown, no final checkpoint
	_ = sA

	// New process: restore from the checkpoint directory.
	sB, tsB := newTestServer(t, dir)
	n, err := sB.RestoreFromCheckpoints(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if n != 1 {
		t.Fatalf("restored %d tenants, want 1", n)
	}

	// Uninterrupted reference: the rows the restored engine has actually
	// seen — everything up to the checkpoint, then the replayed tail.
	direct, err := core.NewEngine(testCoreConfig(), []string{"s", "r1", "r2", "r3"}, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer direct.Close()
	for tk := 0; tk < preCk; tk++ {
		if _, _, err := direct.Tick(e2eRow(tk, 0)); err != nil {
			t.Fatal(err)
		}
	}

	stB := openTickStream(t, tsB.URL, "ten")
	defer stB.close()
	imputed := 0
	for tk := preCk; tk < preCk+post; tk++ {
		row := e2eRow(tk, 0)
		want, _, err := direct.Tick(append([]float64(nil), row...))
		if err != nil {
			t.Fatal(err)
		}
		got, err := stB.send(row)
		if err != nil {
			t.Fatalf("restored tick %d: %v", tk, err)
		}
		if got.Tick != tk {
			t.Fatalf("restored tick index %d, want %d (checkpoint lost ticks?)", got.Tick, tk)
		}
		imputed += len(got.Imputed)
		for i := range want {
			if d := math.Abs(got.Values[i] - want[i]); !(d <= 1e-9) {
				t.Fatalf("tick %d stream %d: restored %v, uninterrupted %v (|Δ|=%g)", tk, i, got.Values[i], want[i], d)
			}
		}
	}
	if imputed == 0 {
		t.Fatal("restored stream exercised no imputations")
	}
}

// TestGracefulShutdownWritesFinalSnapshot: Shutdown after the HTTP layer
// drains must persist every applied tick, restorable with full state.
func TestGracefulShutdownWritesFinalSnapshot(t *testing.T) {
	dir := t.TempDir()
	s, ts := newTestServer(t, dir)
	resp := createTenant(t, ts.URL, "tg", testTenantBody)
	resp.Body.Close()

	const ticks = 60
	st := openTickStream(t, ts.URL, "tg")
	for tk := 0; tk < ticks; tk++ {
		if _, err := st.send(e2eRow(tk, 0.3)); err != nil {
			t.Fatal(err)
		}
	}
	st.close()
	ts.Close() // HTTP layer drained (httptest.Close waits for handlers)

	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if err := s.Shutdown(ctx); err != nil {
		t.Fatalf("shutdown: %v", err)
	}
	// Idempotent.
	if err := s.Shutdown(ctx); err != nil {
		t.Fatalf("second shutdown: %v", err)
	}

	f, err := os.Open(filepath.Join(dir, "tg.tkcm"))
	if err != nil {
		t.Fatalf("final checkpoint missing: %v", err)
	}
	defer f.Close()
	eng, err := core.RestoreEngine(f)
	if err != nil {
		t.Fatalf("final checkpoint unreadable: %v", err)
	}
	if eng.Stats.Ticks != ticks {
		t.Fatalf("final checkpoint holds %d ticks, want %d", eng.Stats.Ticks, ticks)
	}
}

// TestBeginDrainTerminatesStream: once a drain starts, an open tick stream
// must end with a terminal error line before applying another row, so every
// acked row is covered by the final checkpoint.
func TestBeginDrainTerminatesStream(t *testing.T) {
	s, ts := newTestServer(t, t.TempDir())
	resp := createTenant(t, ts.URL, "dr", testTenantBody)
	resp.Body.Close()

	st := openTickStream(t, ts.URL, "dr")
	defer st.close()
	const applied = 20
	for tk := 0; tk < applied; tk++ {
		if _, err := st.send(e2eRow(tk, 0)); err != nil {
			t.Fatal(err)
		}
	}
	s.BeginDrain()
	if _, err := st.send(e2eRow(applied, 0)); err == nil || !strings.Contains(err.Error(), "draining") {
		t.Fatalf("post-drain send: err = %v, want draining error line", err)
	}

	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if err := s.Shutdown(ctx); err != nil {
		t.Fatal(err)
	}
	f, err := os.Open(filepath.Join(s.dir, "dr.tkcm"))
	if err != nil {
		t.Fatalf("final checkpoint missing: %v", err)
	}
	defer f.Close()
	eng, err := core.RestoreEngine(f)
	if err != nil {
		t.Fatal(err)
	}
	if eng.Stats.Ticks != applied {
		t.Fatalf("final checkpoint holds %d ticks, want %d (acked rows must all be checkpointed)", eng.Stats.Ticks, applied)
	}
}

// TestDeleteRemovesCheckpoint: deleting a tenant must be durable — its
// checkpoint file goes too, so a restart cannot resurrect the tenant and its
// data via RestoreFromCheckpoints. Also covers the orphan-file backstop:
// CheckpointAll prunes a stray .tkcm whose tenant is not hosted.
func TestDeleteRemovesCheckpoint(t *testing.T) {
	dir := t.TempDir()
	_, ts := newTestServer(t, dir)
	resp := createTenant(t, ts.URL, "doomed", testTenantBody)
	if resp.StatusCode != http.StatusCreated {
		t.Fatalf("create: %d", resp.StatusCode)
	}
	resp.Body.Close()

	st := openTickStream(t, ts.URL, "doomed")
	for tk := 0; tk < 30; tk++ {
		if _, err := st.send(e2eRow(tk, 0)); err != nil {
			t.Fatal(err)
		}
	}
	st.close()
	cr, err := http.Post(ts.URL+"/v1/checkpoint", "", nil)
	if err != nil {
		t.Fatal(err)
	}
	cr.Body.Close()
	ckFile := filepath.Join(dir, "doomed.tkcm")
	if _, err := os.Stat(ckFile); err != nil {
		t.Fatalf("checkpoint not written: %v", err)
	}

	dr, _ := http.NewRequest("DELETE", ts.URL+"/v1/tenants/doomed", nil)
	dresp, err := http.DefaultClient.Do(dr)
	if err != nil {
		t.Fatal(err)
	}
	if dresp.StatusCode != http.StatusOK {
		t.Fatalf("delete: %d", dresp.StatusCode)
	}
	dresp.Body.Close()
	if _, err := os.Stat(ckFile); !os.IsNotExist(err) {
		t.Fatalf("checkpoint survived delete (stat err = %v); tenant would resurrect on restart", err)
	}

	// A fresh process over the same directory must restore nothing.
	sB, _ := newTestServer(t, dir)
	if n, err := sB.RestoreFromCheckpoints(context.Background()); err != nil || n != 0 {
		t.Fatalf("restored %d tenants (err %v), want 0 — deleted tenant resurrected", n, err)
	}

	// Orphan-file backstop: a stray checkpoint with no hosted tenant (e.g. a
	// manual copy, or a removal that failed and was only logged) is pruned by
	// the next CheckpointAll, as is a temp file left by a crash mid-write.
	if err := os.WriteFile(filepath.Join(dir, "ghost.tkcm"), []byte("stale"), 0o644); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(filepath.Join(dir, "ghost.tmp-12345"), []byte("torn"), 0o644); err != nil {
		t.Fatal(err)
	}
	// A hosted tenant whose id itself contains ".tmp-" must keep its
	// checkpoint: pruning matches temp names, not tenant names.
	if err := sB.m.Create(context.Background(), "dot.tmp-1", testCoreConfig(), []string{"s", "r1", "r2", "r3"}, nil); err != nil {
		t.Fatal(err)
	}
	if _, err := sB.CheckpointAll(context.Background()); err != nil {
		t.Fatal(err)
	}
	if _, err := os.Stat(filepath.Join(dir, "dot.tmp-1.tkcm")); err != nil {
		t.Fatalf("checkpoint of tenant with .tmp- in its id was pruned: %v", err)
	}
	if _, err := os.Stat(filepath.Join(dir, "ghost.tkcm")); !os.IsNotExist(err) {
		t.Fatalf("orphaned checkpoint not pruned (stat err = %v)", err)
	}
	if _, err := os.Stat(filepath.Join(dir, "ghost.tmp-12345")); !os.IsNotExist(err) {
		t.Fatalf("stale checkpoint temp file not pruned (stat err = %v)", err)
	}
}

// TestAPIValidation covers the non-streaming surface: bad ids, bad bodies,
// unknown tenants, delete, list, health, snapshot download.
func TestAPIValidation(t *testing.T) {
	_, ts := newTestServer(t, "")

	if resp := createTenant(t, ts.URL, "bad..%2f..id!", testTenantBody); resp.StatusCode != http.StatusBadRequest {
		t.Errorf("hostile id: %d", resp.StatusCode)
	}
	if resp := createTenant(t, ts.URL, "x", `{"streams": []}`); resp.StatusCode != http.StatusBadRequest {
		t.Errorf("empty streams: %d", resp.StatusCode)
	}
	if resp := createTenant(t, ts.URL, "x", `{"streams": ["a","b"], "config": {"profiler": "warp"}}`); resp.StatusCode != http.StatusBadRequest {
		t.Errorf("bad profiler: %d", resp.StatusCode)
	}
	if resp := createTenant(t, ts.URL, "x", `{"streams": ["a","b","c"], "config": {"k": 2, "pattern_length": 50, "window_length": 10}}`); resp.StatusCode != http.StatusBadRequest {
		t.Errorf("invalid core config: %d", resp.StatusCode)
	}
	// A small body naming 16 streams at the maximum window length asks for
	// 2 GiB of window values; the engine size bound refuses it by name.
	names := make([]string, 16)
	for i := range names {
		names[i] = fmt.Sprintf(`"s%d"`, i)
	}
	huge := fmt.Sprintf(`{"streams": [%s], "config": {"k": 2, "pattern_length": 8, "window_length": %d}}`, strings.Join(names, ","), core.MaxWindowLength)
	{
		resp := createTenant(t, ts.URL, "huge", huge)
		body, _ := io.ReadAll(resp.Body)
		resp.Body.Close()
		if resp.StatusCode != http.StatusBadRequest || !strings.Contains(string(body), "MaxWindowCells") {
			t.Errorf("oversized engine: %d %s, want 400 naming MaxWindowCells", resp.StatusCode, body)
		}
	}
	// Two streams fit the window bound, but k = 2^23 anchors at l = 1 ask
	// the Eq. 5 selection for 2^47 cells; the same bound refuses them.
	{
		resp := createTenant(t, ts.URL, "wide-k", fmt.Sprintf(`{"streams": ["a","b"], "config": {"k": %d, "pattern_length": 1, "window_length": %d}}`, 1<<23, core.MaxWindowLength))
		body, _ := io.ReadAll(resp.Body)
		resp.Body.Close()
		if resp.StatusCode != http.StatusBadRequest || !strings.Contains(string(body), "MaxWindowCells") {
			t.Errorf("oversized selection: %d %s, want 400 naming MaxWindowCells", resp.StatusCode, body)
		}
	}

	resp := createTenant(t, ts.URL, "ok", testTenantBody)
	if resp.StatusCode != http.StatusCreated {
		t.Fatalf("create: %d", resp.StatusCode)
	}
	resp.Body.Close()
	if resp := createTenant(t, ts.URL, "ok", testTenantBody); resp.StatusCode != http.StatusConflict {
		t.Errorf("duplicate create: %d", resp.StatusCode)
	}

	lr, err := http.Get(ts.URL + "/v1/tenants")
	if err != nil {
		t.Fatal(err)
	}
	var listed struct {
		Tenants []shard.TenantInfo `json:"tenants"`
	}
	if err := json.NewDecoder(lr.Body).Decode(&listed); err != nil {
		t.Fatal(err)
	}
	lr.Body.Close()
	if len(listed.Tenants) != 1 || listed.Tenants[0].ID != "ok" {
		t.Errorf("list: %+v", listed)
	}

	hr, err := http.Get(ts.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	if hr.StatusCode != http.StatusOK {
		t.Errorf("healthz: %d", hr.StatusCode)
	}
	hr.Body.Close()

	// Snapshot download of a live tenant round-trips through RestoreEngine.
	sr, err := http.Get(ts.URL + "/v1/tenants/ok/snapshot")
	if err != nil {
		t.Fatal(err)
	}
	if sr.StatusCode != http.StatusOK {
		t.Fatalf("snapshot: %d", sr.StatusCode)
	}
	if _, err := core.RestoreEngine(sr.Body); err != nil {
		t.Errorf("downloaded snapshot unreadable: %v", err)
	}
	sr.Body.Close()

	// Ticks against an unknown tenant must 404 before any stream output.
	tr, err := http.Post(ts.URL+"/v1/tenants/ghost/ticks", "application/x-ndjson",
		strings.NewReader(`{"values": [1, 2, 3, 4]}`+"\n"))
	if err != nil {
		t.Fatal(err)
	}
	if tr.StatusCode != http.StatusNotFound {
		t.Errorf("ticks for unknown tenant: %d", tr.StatusCode)
	}
	tr.Body.Close()

	// A row the engine rejects (wrong width) terminates with an error line.
	tr2, err := http.Post(ts.URL+"/v1/tenants/ok/ticks", "application/x-ndjson",
		strings.NewReader(`{"values": [1, 2]}`+"\n"))
	if err != nil {
		t.Fatal(err)
	}
	b, _ := io.ReadAll(tr2.Body)
	tr2.Body.Close()
	if !bytes.Contains(b, []byte("error")) {
		t.Errorf("wrong-width row: got %q", b)
	}

	dr, err := http.NewRequest("DELETE", ts.URL+"/v1/tenants/ok", nil)
	if err != nil {
		t.Fatal(err)
	}
	dresp, err := http.DefaultClient.Do(dr)
	if err != nil {
		t.Fatal(err)
	}
	if dresp.StatusCode != http.StatusOK {
		t.Errorf("delete: %d", dresp.StatusCode)
	}
	dresp.Body.Close()
	if resp := createTenant(t, ts.URL, "ok", testTenantBody); resp.StatusCode != http.StatusCreated {
		t.Errorf("recreate after delete: %d", resp.StatusCode)
	}
	// Unknown config fields are ignored, so an older client that still sends
	// the retired float32_profiles or skip_diagnostics flag creates its tenant.
	if resp := createTenant(t, ts.URL, "legacy", `{"streams": ["s","r1","r2","r3"],
		"config": {"k": 2, "pattern_length": 3, "d": 2, "window_length": 24, "float32_profiles": true, "skip_diagnostics": true}}`); resp.StatusCode != http.StatusCreated {
		t.Errorf("create with a retired config field: %d", resp.StatusCode)
	}
}

// sendBatch writes one batch line (NaN → null, seq numbering the first row)
// and returns the per-row acks the server answers with, Values completed.
func (st *tickStream) sendBatch(seq uint64, rows [][]float64) ([]tickOut, error) {
	in := tickIn{Seq: seq, Rows: make([][]*float64, len(rows))}
	for j, row := range rows {
		in.Rows[j] = nulls(row)
	}
	if err := st.enc.Encode(in); err != nil {
		return nil, err
	}
	outs := make([]tickOut, 0, len(rows))
	for _, row := range rows {
		out, err := st.readAck(row)
		if err != nil {
			return outs, err
		}
		outs = append(outs, out)
	}
	return outs, nil
}

// TestBatchTickLines: a tenant fed batch lines, and one fed one-row batch
// lines, must stream back exactly the acks of a tenant fed the same rows as
// values lines; replayed batches ack as duplicates; and the batch metrics
// count the rows and sizes of rows lines only.
func TestBatchTickLines(t *testing.T) {
	_, ts := newTestServer(t, t.TempDir())
	for _, id := range []string{"bat", "one", "row"} {
		resp := createTenant(t, ts.URL, id, testTenantBody)
		if resp.StatusCode != http.StatusCreated {
			t.Fatalf("create %s: %d", id, resp.StatusCode)
		}
		resp.Body.Close()
	}
	stBat := openTickStream(t, ts.URL, "bat")
	stOne := openTickStream(t, ts.URL, "one")
	stRow := openTickStream(t, ts.URL, "row")
	defer stBat.close()
	defer stOne.close()
	defer stRow.close()

	// sameAck fails unless got (from a rows line) is the ack want (from a
	// values line) of the same row.
	sameAck := func(kind string, tk int, got, want tickOut) {
		t.Helper()
		if got.Duplicate || got.Tick != want.Tick || got.Seq != want.Seq {
			t.Fatalf("tick %d: %s ack %+v, rowwise %+v", tk, kind, got, want)
		}
		if len(got.Values) != len(want.Values) {
			t.Fatalf("tick %d: %s %d values vs %d", tk, kind, len(got.Values), len(want.Values))
		}
		for i := range want.Values {
			if got.Values[i] != want.Values[i] {
				t.Fatalf("tick %d stream %d: %s %v, rowwise %v", tk, i, kind, got.Values[i], want.Values[i])
			}
		}
		if fmt.Sprint(got.Imputed) != fmt.Sprint(want.Imputed) {
			t.Fatalf("tick %d: %s imputed %v vs %v", tk, kind, got.Imputed, want.Imputed)
		}
	}

	const n, batch = 96, 12
	all := make([][]float64, n)
	for tk := range all {
		all[tk] = e2eRow(tk, 0)
	}
	for a := 0; a < n; a += batch {
		outs, err := stBat.sendBatch(uint64(a+1), all[a:a+batch])
		if err != nil {
			t.Fatalf("batch %d: %v", a, err)
		}
		if len(outs) != batch {
			t.Fatalf("batch %d: %d acks, want %d", a, len(outs), batch)
		}
		for r, got := range outs {
			tk := a + r
			want, err := stRow.send(all[tk])
			if err != nil {
				t.Fatalf("rowwise %d: %v", tk, err)
			}
			sameAck("batch", tk, got, want)
			ones, err := stOne.sendBatch(uint64(tk+1), all[tk:tk+1])
			if err != nil {
				t.Fatalf("one-row batch %d: %v", tk, err)
			}
			if len(ones) != 1 {
				t.Fatalf("one-row batch %d: %d acks, want 1", tk, len(ones))
			}
			sameAck("one-row batch", tk, ones[0], want)
		}
	}

	// Replaying an already-applied batch acks every row as a duplicate.
	outs, err := stBat.sendBatch(1, all[:batch])
	if err != nil {
		t.Fatal(err)
	}
	for r, got := range outs {
		if !got.Duplicate || got.Seq != uint64(r+1) || len(got.Values) != 0 {
			t.Fatalf("replayed row %d: %+v", r, got)
		}
	}

	// Metrics: 9 rows lines of 12 rows (8 live + 1 replayed) and 96 one-row
	// rows lines were observed; the 96 values lines are not batch lines.
	resp, err := http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	for _, want := range []string{
		"tkcm_ticks_batched_total 204",
		`tkcm_tick_batch_size_bucket{le="1"} 96`,
		`tkcm_tick_batch_size_bucket{le="8"} 96`,
		`tkcm_tick_batch_size_bucket{le="16"} 105`,
		`tkcm_tick_batch_size_bucket{le="+Inf"} 105`,
		"tkcm_tick_batch_size_sum 204",
		"tkcm_tick_batch_size_count 105",
	} {
		if !strings.Contains(string(body), want) {
			t.Fatalf("metrics missing %q:\n%s", want, body)
		}
	}

	// A line setting both values and rows is refused.
	stBad := openTickStream(t, ts.URL, "bat")
	defer stBad.close()
	if err := stBad.enc.Encode(map[string]any{"values": []float64{1, 2, 3, 4}, "rows": [][]float64{{1, 2, 3, 4}}}); err != nil {
		t.Fatal(err)
	}
	if _, err := stBad.sendBatch(109, all[:1]); err == nil || !strings.Contains(err.Error(), "both values and rows") {
		t.Fatalf("mixed line: err = %v, want refusal", err)
	}
}

// TestAckCarriesOnlyImputedCells pins the ack lines themselves: a healthy
// row acks empty values and imputed arrays; a row with missing cells
// carries one value per missing cell, bit-equal to a direct engine's
// imputation; a replayed row acks as a duplicate, both arrays empty.
func TestAckCarriesOnlyImputedCells(t *testing.T) {
	_, ts := newTestServer(t, "")
	resp := createTenant(t, ts.URL, "raw", testTenantBody)
	resp.Body.Close()
	if resp.StatusCode != http.StatusCreated {
		t.Fatalf("create: %d", resp.StatusCode)
	}
	direct, err := core.NewEngine(testCoreConfig(), []string{"s", "r1", "r2", "r3"}, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer direct.Close()
	line := func(seq uint64, row []float64) string {
		b, err := json.Marshal(tickIn{Seq: seq, Values: nulls(row)})
		if err != nil {
			t.Fatal(err)
		}
		return string(b) + "\n"
	}

	const ticks = 40
	pw, resp := openRawStream(t, ts, "raw", line(1, e2eRow(0, 0)))
	sc := bufio.NewScanner(resp.Body)
	oneMissing := 0
	for tk := 0; tk < ticks; tk++ {
		row := e2eRow(tk, 0)
		if tk > 0 {
			io.WriteString(pw, line(uint64(tk+1), row))
		}
		want, _, err := direct.Tick(append([]float64(nil), row...))
		if err != nil {
			t.Fatal(err)
		}
		if !sc.Scan() {
			t.Fatalf("tick %d: no ack: %v", tk, sc.Err())
		}
		got := sc.Text()
		var missing []int
		for c, v := range row {
			if math.IsNaN(v) {
				missing = append(missing, c)
			}
		}
		if len(missing) == 0 {
			if w := fmt.Sprintf(`{"tick":%d,"seq":%d,"values":[],"imputed":[]}`, tk, tk+1); got != w {
				t.Fatalf("healthy tick %d acked %s, want %s", tk, got, w)
			}
			continue
		}
		var out tickOut
		if err := json.Unmarshal([]byte(got), &out); err != nil {
			t.Fatalf("tick %d: %v", tk, err)
		}
		if out.Tick != tk || out.Seq != uint64(tk+1) || out.Duplicate ||
			fmt.Sprint(out.Imputed) != fmt.Sprint(missing) || len(out.Values) != len(missing) {
			t.Fatalf("tick %d with cells %v missing acked %s", tk, missing, got)
		}
		for x, c := range missing {
			if math.Float64bits(out.Values[x]) != math.Float64bits(want[c]) {
				t.Fatalf("tick %d cell %d: acked %v, direct %v", tk, c, out.Values[x], want[c])
			}
		}
		if len(missing) == 1 {
			oneMissing++
		}
	}
	if oneMissing == 0 {
		t.Fatal("no row with exactly one missing cell was sent")
	}

	io.WriteString(pw, line(1, e2eRow(0, 0)))
	if !sc.Scan() {
		t.Fatalf("replayed row: no ack: %v", sc.Err())
	}
	if w := fmt.Sprintf(`{"tick":%d,"seq":1,"values":[],"imputed":[],"duplicate":true}`, ticks-1); sc.Text() != w {
		t.Fatalf("replayed row acked %s, want %s", sc.Text(), w)
	}
	pw.Close()
}

// openRawStream POSTs a tick stream to tenant whose request body is a pipe,
// sends first on it and returns the pipe's writer with the response. The
// body stays open until the caller closes it or the test ends.
func openRawStream(t *testing.T, ts *httptest.Server, tenant, first string) (*io.PipeWriter, *http.Response) {
	t.Helper()
	pr, pw := io.Pipe()
	t.Cleanup(func() { pw.Close() })
	req, err := http.NewRequest("POST", ts.URL+"/v1/tenants/"+tenant+"/ticks", pr)
	if err != nil {
		t.Fatal(err)
	}
	respc := make(chan *http.Response, 1)
	errc := make(chan error, 1)
	go func() {
		resp, err := ts.Client().Do(req)
		if err != nil {
			errc <- err
			return
		}
		respc <- resp
	}()
	io.WriteString(pw, first)
	select {
	case resp := <-respc:
		t.Cleanup(func() { resp.Body.Close() })
		return pw, resp
	case err = <-errc:
	case <-time.After(10 * time.Second):
		err = errors.New("no response")
	}
	t.Fatalf("stream to %s: %v", tenant, err)
	return nil, nil
}

// TestRefusedTickStreamsEndCleanly refuses tick streams while their clients
// are still sending, and asserts net/http logged no recovered panic. Two
// refusals are driven 100 times each: the first line is refused (unknown
// tenant, a pre-stream error response), and a sequence gap after one acked
// row (a mid-stream error line). Each client sends one more line, closes its
// body and reads the refusal. Unless the handler closes the connection
// (pre-stream) or consumes the body itself (mid-stream), the server's
// post-handler body close and its keep-alive read of the next request race
// on the connection ("invalid concurrent Body.Read call").
func TestRefusedTickStreamsEndCleanly(t *testing.T) {
	m := shard.New(shard.Options{Shards: 2, QueueLen: 16})
	defer m.Close()
	s := New(Options{Manager: m, Log: quietLog()})
	var errLog logBuffer
	ts := httptest.NewUnstartedServer(s.Handler())
	ts.Config.ErrorLog = log.New(&errLog, "", 0)
	ts.Start()
	defer ts.Close()
	t.Cleanup(func() {
		if t.Failed() {
			t.Logf("net/http log:\n%s", errLog.String())
		}
	})
	resp := createTenant(t, ts.URL, "gap", testTenantBody)
	resp.Body.Close()
	if resp.StatusCode != http.StatusCreated {
		t.Fatalf("create: %d", resp.StatusCode)
	}

	line := func(seq int) string {
		return fmt.Sprintf(`{"seq":%d,"values":[1,2,3,4]}`+"\n", seq)
	}
	// refuse sends a refused line (after an acked one when acked) and one
	// more, closes the body, and returns the response status and last
	// line. Writes after the refusal may fail once the transport gives up
	// on the body; the refusal is what is checked.
	refuse := func(tenant string, acked bool, seq int) (int, string) {
		first := line(seq + 2)
		if acked {
			first = line(seq)
		}
		pw, resp := openRawStream(t, ts, tenant, first)
		sc := bufio.NewScanner(resp.Body)
		if acked {
			if !sc.Scan() {
				t.Fatalf("no ack: %v", sc.Err())
			}
			io.WriteString(pw, line(seq+2))
		}
		io.WriteString(pw, line(seq+3))
		pw.Close()
		var last string
		for sc.Scan() {
			last = sc.Text()
		}
		return resp.StatusCode, last
	}
	for i := 0; i < 100; i++ {
		if status, last := refuse("ghost", false, 1); status != http.StatusNotFound {
			t.Fatalf("unknown tenant: %d %s, want 404", status, last)
		}
	}
	for i := 1; i <= 100; i++ {
		if status, last := refuse("gap", true, i); status != http.StatusOK || !strings.Contains(last, "sequence gap") {
			t.Fatalf("stream %d: %d, last line %q, want a sequence gap", i, status, last)
		}
	}
	ts.Close() // waits for every connection, so the log is complete
	if strings.Contains(errLog.String(), "panic serving") {
		t.Fatal("net/http recovered a panic")
	}
}

// TestRefusalEndsResponseWhileBodyOpen refuses rows whose WAL sync fails
// (fail-stop latched through the fault seam) while the client keeps its
// request body open and reads the response to its end, as the Go client
// reads a pre-stream error. The refusal must end the response: a handler
// still blocked reading the next line would hold both sides until the
// client gave up.
func TestRefusalEndsResponseWhileBodyOpen(t *testing.T) {
	var failSync atomic.Bool
	walOpts := wal.Options{SyncInterval: time.Millisecond, FS: segmentSyncFS{hook: func() error {
		if failSync.Load() {
			return errors.New("injected fsync failure")
		}
		return nil
	}}}
	s, _, _ := newWALServer(t, t.TempDir(), t.TempDir(), walOpts)
	ts := newHTTPServer(t, s)
	for _, id := range []string{"mid", "pre"} {
		resp := createTenant(t, ts.URL, id, testTenantBody)
		resp.Body.Close()
		if resp.StatusCode != http.StatusCreated {
			t.Fatalf("create %s: %d", id, resp.StatusCode)
		}
	}
	const row = `{"values":[1,2,3,4]}` + "\n"
	// readToEnd returns the rest of body once the server ends it.
	readToEnd := func(tenant string, body io.Reader) string {
		done := make(chan []byte, 1)
		go func() {
			b, _ := io.ReadAll(body)
			done <- b
		}()
		select {
		case b := <-done:
			return string(b)
		case <-time.After(5 * time.Second):
			t.Fatalf("%s: refused, but the response did not end within 5s", tenant)
		}
		return ""
	}

	// Mid-stream: the first row is acked, the second is not durable.
	pw, resp := openRawStream(t, ts, "mid", row)
	sc := bufio.NewScanner(resp.Body)
	if !sc.Scan() {
		t.Fatalf("mid: no ack: %v", sc.Err())
	}
	failSync.Store(true)
	io.WriteString(pw, row)
	if !sc.Scan() || !strings.Contains(sc.Text(), "not durable") {
		t.Fatalf("mid: %q, want a not-durable error line", sc.Text())
	}
	readToEnd("mid", resp.Body)

	// Pre-stream: the first row is not durable.
	_, resp = openRawStream(t, ts, "pre", row)
	if resp.StatusCode != http.StatusInternalServerError {
		t.Fatalf("pre: status %d, want 500", resp.StatusCode)
	}
	if body := readToEnd("pre", resp.Body); !strings.Contains(body, "not durable") {
		t.Fatalf("pre: body %q, want a not-durable error", body)
	}
}

// TestLatchedLogAnswers503: once a failed fsync has latched a tenant's
// write-ahead log, every later append is refused before the engine applies
// the row. That is a server fault the client recovers from by replaying, so
// a new stream's refusal must be 503 with the retry marker — the status
// /healthz reports as degraded for the same tenant — not a 400.
func TestLatchedLogAnswers503(t *testing.T) {
	var failSync atomic.Bool
	walOpts := wal.Options{SyncInterval: time.Millisecond, FS: segmentSyncFS{hook: func() error {
		if failSync.Load() {
			return errors.New("injected fsync failure")
		}
		return nil
	}}}
	s, _, _ := newWALServer(t, t.TempDir(), t.TempDir(), walOpts)
	ts := newHTTPServer(t, s)
	resp := createTenant(t, ts.URL, "latched", testTenantBody)
	resp.Body.Close()
	if resp.StatusCode != http.StatusCreated {
		t.Fatalf("create: %d", resp.StatusCode)
	}
	const row = `{"values":[1,2,3,4]}` + "\n"
	failSync.Store(true)
	_, resp = openRawStream(t, ts, "latched", row)
	body, _ := io.ReadAll(resp.Body)
	if resp.StatusCode != http.StatusInternalServerError || !strings.Contains(string(body), "not durable") {
		t.Fatalf("first row: %d %s, want 500 not durable", resp.StatusCode, body)
	}

	_, resp = openRawStream(t, ts, "latched", row)
	var refusal apiError
	if err := json.NewDecoder(resp.Body).Decode(&refusal); err != nil {
		t.Fatalf("latched refusal body: %v", err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusServiceUnavailable || !refusal.Retry ||
		!strings.Contains(refusal.Error, "wal: log failed, refusing append: wal: sync: injected fsync failure") {
		t.Fatalf("latched log: %d %+v, want 503 with retry naming the latched cause", resp.StatusCode, refusal)
	}
}

// TestHydrationFailStopAnswers500: a parked tenant whose hydration fails is
// latched fail-stopped. That is a server fault, so its tick stream and its
// snapshot answer 500, not 400 — and without the retry marker, because only
// deleting the tenant clears the latch: a replaying client would spend its
// reconnect budget for nothing.
func TestHydrationFailStopAnswers500(t *testing.T) {
	m := shard.New(shard.Options{
		Shards:          1,
		ResidentEngines: 1,
		Parkable:        func(string) bool { return true },
		Hydrate: func(string) (*core.Engine, error) {
			return nil, errors.New("injected hydration failure")
		},
	})
	defer m.Close()
	ts := newHTTPServer(t, New(Options{Manager: m, Log: quietLog()}))
	// Creating b parks a, the only other resident engine.
	for _, id := range []string{"a", "b"} {
		resp := createTenant(t, ts.URL, id, testTenantBody)
		resp.Body.Close()
		if resp.StatusCode != http.StatusCreated {
			t.Fatalf("create %s: %d", id, resp.StatusCode)
		}
	}
	refused := func(what string, resp *http.Response) {
		t.Helper()
		var refusal apiError
		if err := json.NewDecoder(resp.Body).Decode(&refusal); err != nil {
			t.Fatalf("%s: refusal body: %v", what, err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusInternalServerError || refusal.Retry ||
			!strings.Contains(refusal.Error, "hydration failed: injected hydration failure") {
			t.Fatalf("%s: %d %+v, want 500 without retry naming the hydration failure", what, resp.StatusCode, refusal)
		}
	}
	_, resp := openRawStream(t, ts, "a", `{"values":[1,2,3,4]}`+"\n")
	refused("tick", resp)
	resp, err := http.Get(ts.URL + "/v1/tenants/a/snapshot")
	if err != nil {
		t.Fatal(err)
	}
	refused("snapshot", resp)

	resp, err = http.Get(ts.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusServiceUnavailable || !strings.Contains(string(body), `"degraded"`) {
		t.Fatalf("healthz: %d %s, want 503 degraded", resp.StatusCode, body)
	}
}
