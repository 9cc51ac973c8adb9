package server

import (
	"bytes"
	"encoding/json"
	"errors"
	"io"
	"log/slog"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"tkcm/internal/shard"
	"tkcm/internal/wal"
)

// logBuffer is a concurrency-safe sink for the server's slog output; trace
// lines are emitted from per-stream writer goroutines.
type logBuffer struct {
	mu sync.Mutex
	b  bytes.Buffer
}

func (lb *logBuffer) Write(p []byte) (int, error) {
	lb.mu.Lock()
	defer lb.mu.Unlock()
	return lb.b.Write(p)
}

func (lb *logBuffer) String() string {
	lb.mu.Lock()
	defer lb.mu.Unlock()
	return lb.b.String()
}

// traceLines parses the buffered JSON log and returns every "tick trace"
// record.
func (lb *logBuffer) traceLines(t *testing.T) []map[string]any {
	t.Helper()
	lb.mu.Lock()
	raw := lb.b.String()
	lb.mu.Unlock()
	var out []map[string]any
	for _, line := range strings.Split(raw, "\n") {
		if line == "" {
			continue
		}
		var rec map[string]any
		if err := json.Unmarshal([]byte(line), &rec); err != nil {
			t.Fatalf("log line is not JSON: %q: %v", line, err)
		}
		if rec["msg"] == "tick trace" {
			out = append(out, rec)
		}
	}
	return out
}

// waitTraceLines polls until exactly want trace lines have been logged (the
// trace is written after the ack, so the client can observe the ack first).
func (lb *logBuffer) waitTraceLines(t *testing.T, want int) []map[string]any {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for {
		got := lb.traceLines(t)
		if len(got) > want {
			t.Fatalf("logged %d trace lines, want %d", len(got), want)
		}
		if len(got) == want {
			// Settle briefly to catch spurious extras.
			time.Sleep(20 * time.Millisecond)
			if again := lb.traceLines(t); len(again) != want {
				t.Fatalf("trace lines grew from %d to %d after settling", want, len(again))
			}
			return got
		}
		if time.Now().After(deadline) {
			t.Fatalf("timeout: %d trace lines, want %d", len(got), want)
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// dur reads a slog duration attribute (JSON-encoded as nanoseconds).
func dur(t *testing.T, rec map[string]any, key string) time.Duration {
	t.Helper()
	v, ok := rec[key].(float64)
	if !ok {
		t.Fatalf("trace line missing duration %q: %v", key, rec)
	}
	return time.Duration(int64(v))
}

// TestSlowTickTrace injects a sleeping fsync via the WAL fault seam so the
// group-commit window dominates a tick's end-to-end latency, and asserts
// the breach produces exactly one structured trace whose stage breakdown
// points at wal_commit.
func TestSlowTickTrace(t *testing.T) {
	var lb logBuffer
	var slowSync atomic.Bool
	walOpts := wal.Options{SyncInterval: time.Millisecond}.WithFailSync(func() error {
		if slowSync.Load() {
			time.Sleep(30 * time.Millisecond)
		}
		return nil
	})
	walMgr := wal.NewManager(t.TempDir(), walOpts)
	m := shard.New(shard.Options{Shards: 2, QueueLen: 16, WAL: walMgr})
	s := New(Options{
		Manager:           m,
		CheckpointDir:     t.TempDir(),
		WAL:               walMgr,
		Log:               slog.New(slog.NewJSONHandler(&lb, nil)),
		SlowTickThreshold: 5 * time.Millisecond,
	})
	ts := newHTTPServer(t, s)

	if resp := createTenant(t, ts.URL, "slowpoke", testTenantBody); resp.StatusCode != 201 {
		t.Fatalf("create: %d", resp.StatusCode)
	}
	slowSync.Store(true) // only tick commits crawl; creation ran at full speed
	st := openTickStream(t, ts.URL, "slowpoke")
	if _, err := st.send(e2eRow(0, 0)); err != nil {
		t.Fatalf("tick: %v", err)
	}
	st.close()

	traces := lb.waitTraceLines(t, 1)
	rec := traces[0]
	if rec["reason"] != "slow" {
		t.Errorf("reason = %v, want slow", rec["reason"])
	}
	if rec["tenant"] != "slowpoke" {
		t.Errorf("tenant = %v", rec["tenant"])
	}
	if got := rec["batch"].(float64); got != 1 {
		t.Errorf("batch = %v, want 1", got)
	}
	walCommit := dur(t, rec, "wal_commit")
	if walCommit < 25*time.Millisecond {
		t.Errorf("wal_commit = %v, want ≥ 25ms (the injected stall)", walCommit)
	}
	for _, stage := range []string{"decode", "queue", "engine", "ack"} {
		if d := dur(t, rec, stage); d >= walCommit {
			t.Errorf("stage %s (%v) not dominated by wal_commit (%v)", stage, d, walCommit)
		}
	}
	if total := dur(t, rec, "total"); total < walCommit {
		t.Errorf("total %v < wal_commit %v", total, walCommit)
	}
}

// TestTraceSamplerDeterministic runs the same 9-tick workload twice against
// servers sharing a sampler seed: both must trace exactly 3 lines (1-in-3)
// and select the same sequence numbers.
func TestTraceSamplerDeterministic(t *testing.T) {
	run := func() []uint64 {
		var lb logBuffer
		m := shard.New(shard.Options{Shards: 2, QueueLen: 16})
		s := New(Options{
			Manager:          m,
			Log:              slog.New(slog.NewJSONHandler(&lb, nil)),
			TraceSampleEvery: 3,
			TraceSampleSeed:  7,
		})
		ts := newHTTPServer(t, s)
		if resp := createTenant(t, ts.URL, "sampled", testTenantBody); resp.StatusCode != 201 {
			t.Fatalf("create: %d", resp.StatusCode)
		}
		st := openTickStream(t, ts.URL, "sampled")
		for i := 0; i < 9; i++ {
			if _, err := st.send(e2eRow(i, 0)); err != nil {
				t.Fatalf("tick %d: %v", i, err)
			}
		}
		st.close()
		traces := lb.waitTraceLines(t, 3)
		var seqs []uint64
		for _, rec := range traces {
			if rec["reason"] != "sampled" {
				t.Errorf("reason = %v, want sampled", rec["reason"])
			}
			seqs = append(seqs, uint64(rec["seq"].(float64)))
		}
		return seqs
	}
	a, b := run(), run()
	if len(a) != 3 || len(b) != 3 {
		t.Fatalf("runs traced %d and %d lines, want 3 each", len(a), len(b))
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("same seed selected different ticks: %v vs %v", a, b)
		}
	}
}

// TestDegradedEndpointsConsistent latches a tenant's WAL fail-stop through
// the fault seam and requires /healthz, /metrics and /v1/debug/tenants to
// all answer 503 — with /metrics and the debug listing still carrying their
// full bodies for triage.
func TestDegradedEndpointsConsistent(t *testing.T) {
	var failSync atomic.Bool
	walOpts := wal.Options{SyncInterval: time.Millisecond}.WithFailSync(func() error {
		if failSync.Load() {
			return errors.New("injected fsync failure")
		}
		return nil
	})
	walMgr := wal.NewManager(t.TempDir(), walOpts)
	m := shard.New(shard.Options{Shards: 2, QueueLen: 16, WAL: walMgr})
	s := New(Options{Manager: m, CheckpointDir: t.TempDir(), WAL: walMgr, Log: quietLog()})
	ts := newHTTPServer(t, s)
	debug := httptest.NewServer(s.DebugHandler())
	t.Cleanup(debug.Close)

	if resp := createTenant(t, ts.URL, "doomed", testTenantBody); resp.StatusCode != 201 {
		t.Fatalf("create: %d", resp.StatusCode)
	}

	// Healthy first: all three answer 200.
	for _, url := range []string{ts.URL + "/healthz", ts.URL + "/metrics", debug.URL + "/v1/debug/tenants"} {
		resp, err := http.Get(url)
		if err != nil {
			t.Fatal(err)
		}
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		if resp.StatusCode != 200 {
			t.Fatalf("%s while healthy: %d", url, resp.StatusCode)
		}
	}

	failSync.Store(true)
	st := openTickStream(t, ts.URL, "doomed")
	if _, err := st.send(e2eRow(0, 0)); err == nil {
		t.Fatal("tick acked despite failed fsync")
	}
	st.close()

	for _, url := range []string{ts.URL + "/healthz", ts.URL + "/metrics", debug.URL + "/v1/debug/tenants"} {
		resp, err := http.Get(url)
		if err != nil {
			t.Fatal(err)
		}
		body, _ := io.ReadAll(resp.Body)
		resp.Body.Close()
		if resp.StatusCode != http.StatusServiceUnavailable {
			t.Errorf("%s while degraded: %d, want 503", url, resp.StatusCode)
		}
		switch {
		case strings.HasSuffix(url, "/metrics"):
			if !strings.Contains(string(body), "tkcm_wal_failed_logs 1") {
				t.Errorf("degraded /metrics body lost its counters")
			}
		case strings.HasSuffix(url, "/v1/debug/tenants"):
			if !strings.Contains(string(body), `"doomed"`) {
				t.Errorf("degraded debug listing lost its tenants: %s", body)
			}
		}
	}
}

// TestPprofOnlyOnDebugListener pins the security posture: profiling and the
// tenant debug listing exist solely on the opt-in DebugHandler tree, never
// on the public Handler.
func TestPprofOnlyOnDebugListener(t *testing.T) {
	s, ts := newTestServer(t, "")
	debug := httptest.NewServer(s.DebugHandler())
	t.Cleanup(debug.Close)

	if resp := createTenant(t, ts.URL, "peek", testTenantBody); resp.StatusCode != 201 {
		t.Fatalf("create: %d", resp.StatusCode)
	}
	st := openTickStream(t, ts.URL, "peek")
	for i := 0; i < 3; i++ {
		if _, err := st.send(e2eRow(i, 0)); err != nil {
			t.Fatalf("tick %d: %v", i, err)
		}
	}
	st.close()

	for _, path := range []string{"/debug/pprof/", "/v1/debug/tenants"} {
		resp, err := http.Get(ts.URL + path)
		if err != nil {
			t.Fatal(err)
		}
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		if resp.StatusCode != http.StatusNotFound {
			t.Errorf("public handler serves %s (%d), must 404", path, resp.StatusCode)
		}
	}

	resp, err := http.Get(debug.URL + "/debug/pprof/")
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if resp.StatusCode != 200 {
		t.Fatalf("debug pprof index: %d", resp.StatusCode)
	}

	// The tenant listing reflects the ticks just streamed; the last-ack
	// gauge is stored just after the ack line flushes, so poll briefly.
	deadline := time.Now().Add(5 * time.Second)
	for {
		resp, err := http.Get(debug.URL + "/v1/debug/tenants")
		if err != nil {
			t.Fatal(err)
		}
		var listing struct {
			Tenants []debugTenant `json:"tenants"`
		}
		err = json.NewDecoder(resp.Body).Decode(&listing)
		resp.Body.Close()
		if err != nil {
			t.Fatal(err)
		}
		if len(listing.Tenants) == 1 {
			dt := listing.Tenants[0]
			if dt.ID != "peek" || dt.Ticks != 3 || dt.Seq != 3 {
				t.Fatalf("debug listing = %+v, want peek with 3 ticks", dt)
			}
			if dt.LastAckSeconds > 0 {
				break
			}
		}
		if time.Now().After(deadline) {
			t.Fatalf("debug listing never showed a last-ack latency: %+v", listing.Tenants)
		}
		time.Sleep(5 * time.Millisecond)
	}
}
