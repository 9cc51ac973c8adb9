package main

import (
	"bytes"
	"context"
	"encoding/json"
	"math"
	"net"
	"os"
	"os/signal"
	"path/filepath"
	"runtime"
	"strings"
	"syscall"
	"testing"
	"time"

	"tkcm/client"
)

// Small shapes of the two drivers, so the lifecycle tests run the real
// stack end to end in a few seconds.
func init() {
	workloads = append(workloads,
		workload{
			name: "tiny", tenants: 2, streams: 4,
			cfg:  client.Config{K: 2, PatternLength: 8, D: 2, WindowLength: 128},
			warm: 128, missing: 0.05, missRun: 2,
			rate: 2000, lead: 100 * time.Millisecond, batch: 16, inflight: 64,
		},
		workload{
			name: "tiny_cold", tenants: 6, streams: 4,
			cfg:  client.Config{K: 2, PatternLength: 8, D: 2, WindowLength: 128},
			warm: 128, missing: 0.05, missRun: 2,
			rate: 1600, lead: 100 * time.Millisecond, batch: 8, inflight: 32,
			resident: 2, burst: 8, zipf: 1.1, checkpoint: 200 * time.Millisecond,
		},
	)
}

// invocation is one runMain call's outcome.
type invocation struct {
	code     int
	stdout   string
	stderr   string
	url      string
	workdir  string
	duration time.Duration
}

func invoke(t *testing.T, ctx context.Context, hook func(*options), args ...string) invocation {
	t.Helper()
	inv := invocation{workdir: t.TempDir()}
	root, err := filepath.Abs("..")
	if err != nil {
		t.Fatal(err)
	}
	args = append(args, "--workdir", inv.workdir, "--root", root)
	var stdout, stderr bytes.Buffer
	start := time.Now()
	inv.code = runMain(ctx, args, &stdout, &stderr, func(o *options) {
		o.onStack = func(url string) { inv.url = url }
		if hook != nil {
			hook(o)
		}
	})
	inv.duration = time.Since(start)
	inv.stdout, inv.stderr = stdout.String(), stderr.String()
	return inv
}

// lastResult parses the contract's last stdout line.
func (inv invocation) lastResult(t *testing.T) (result, bool) {
	t.Helper()
	lines := strings.Split(strings.TrimSpace(inv.stdout), "\n")
	var r result
	if len(lines) == 0 || json.Unmarshal([]byte(lines[len(lines)-1]), &r) != nil || r.Metrics == nil {
		return r, false
	}
	return r, true
}

// assertCleanedUp checks that nothing the run created outlives it: its
// stack and replay directories are gone, its listener no longer accepts,
// and its goroutines have exited. goroutinesBefore < 0 skips the goroutine
// check: a run cancelled mid-burst may abandon a client tick stream whose
// Close hangs (see errCloseHung); those goroutines end with the process.
func assertCleanedUp(t *testing.T, inv invocation, goroutinesBefore int) {
	t.Helper()
	for _, pat := range []string{"stack-*", "layers-*"} {
		left, _ := filepath.Glob(filepath.Join(inv.workdir, pat))
		if len(left) > 0 {
			t.Errorf("left behind: %v", left)
		}
	}
	if inv.url != "" {
		if c, err := net.DialTimeout("tcp", strings.TrimPrefix(inv.url, "http://"), time.Second); err == nil {
			c.Close()
			t.Errorf("listener %s still accepts connections", inv.url)
		}
	}
	if goroutinesBefore < 0 {
		return
	}
	deadline := time.Now().Add(5 * time.Second)
	for runtime.NumGoroutine() > goroutinesBefore+2 && time.Now().Before(deadline) {
		time.Sleep(20 * time.Millisecond)
	}
	if n := runtime.NumGoroutine(); n > goroutinesBefore+2 {
		buf := make([]byte, 1<<16)
		t.Errorf("%d goroutines left (had %d):\n%s", n, goroutinesBefore, buf[:runtime.Stack(buf, true)])
	}
}

func TestRunSucceedsAndCleansUp(t *testing.T) {
	for _, w := range []string{"tiny", "tiny_cold"} {
		t.Run(w, func(t *testing.T) {
			before := runtime.NumGoroutine()
			inv := invoke(t, context.Background(), nil, "--workload", w, "--seconds", "2", "--seed", "3")
			if inv.code != 0 {
				t.Fatalf("exit %d\nstdout:\n%s\nstderr:\n%s", inv.code, inv.stdout, inv.stderr)
			}
			r, ok := inv.lastResult(t)
			if !ok || !r.Correct || r.Attempted == 0 || r.Failed != 0 {
				t.Fatalf("result %+v (parsed %v)", r, ok)
			}
			for _, m := range gatedMetrics {
				if v, ok := r.Metrics[m]; !ok || v.Value <= 0 {
					t.Errorf("metric %s = %+v", m, v)
				}
			}
			if len(r.Metrics) != len(gatedMetrics) {
				t.Errorf("metrics %v, want exactly %v", r.Metrics, gatedMetrics)
			}
			assertCleanedUp(t, inv, before)
		})
	}
}

func TestTracedRunWritesSpansAndLedger(t *testing.T) {
	before := runtime.NumGoroutine()
	inv := invoke(t, context.Background(), nil, "--workload", "tiny", "--seconds", "2", "--trace", "1")
	if inv.code != 0 {
		t.Fatalf("exit %d\nstdout:\n%s\nstderr:\n%s", inv.code, inv.stdout, inv.stderr)
	}
	r, ok := inv.lastResult(t)
	if !ok || !r.Correct {
		t.Fatalf("result %+v", r)
	}
	for _, m := range layerMetrics {
		if _, ok := r.Metrics[m]; !ok {
			t.Errorf("per-layer metric %s missing", m)
		}
	}
	if len(r.Metrics) != len(layerMetrics) {
		t.Errorf("got %d metrics, want exactly the %d per-layer ones", len(r.Metrics), len(layerMetrics))
	}
	sum := r.Metrics["ledger.layer_sum_ns_per_row"].Value + r.Metrics["ledger.trace_overhead_ns_per_row"].Value + r.Metrics["server.residual_ns_per_row"].Value
	if e2e := r.Metrics["ledger.e2e_ns_per_row"].Value; e2e <= 0 || math.Abs(sum-e2e) > 1e-9*e2e {
		t.Errorf("layer sum + tracing overhead + residual = %v, traced end-to-end = %v", sum, e2e)
	}
	st, err := os.Stat(filepath.Join(inv.workdir, "spans-tiny.jsonl"))
	if err != nil || st.Size() == 0 {
		t.Errorf("spans file: %v", err)
	}
	assertCleanedUp(t, inv, before)
}

func TestFailedCheckCleansUp(t *testing.T) {
	before := runtime.NumGoroutine()
	inv := invoke(t, context.Background(), func(o *options) { o.corrupt = true }, "--workload", "tiny", "--seconds", "2")
	if inv.code == 0 {
		t.Fatal("a corrupted reference must fail the run")
	}
	r, ok := inv.lastResult(t)
	if !ok || r.Correct || r.Failed == 0 {
		t.Fatalf("result %+v (parsed %v), want correct=false with failed rows", r, ok)
	}
	assertCleanedUp(t, inv, before)
}

// A tenant that stops accepting rows mid-run (here deleted behind the
// benchmark's back) is not retried or re-created: its rows count as failed
// and the run still prints its result.
func TestBrokenTenantCountsFailedRows(t *testing.T) {
	for _, w := range []string{"tiny", "tiny_cold"} {
		t.Run(w, func(t *testing.T) {
			before := runtime.NumGoroutine()
			inv := invoke(t, context.Background(), func(o *options) {
				record := o.onStack
				o.onStack = func(url string) {
					record(url)
					if err := client.New(url).DeleteTenant(context.Background(), tenantID(0)); err != nil {
						t.Errorf("deleting tenant: %v", err)
					}
				}
			}, "--workload", w, "--seconds", "2")
			if inv.code == 0 {
				t.Fatal("a run with a broken tenant must fail")
			}
			r, ok := inv.lastResult(t)
			if !ok || r.Correct || r.Failed == 0 || r.Failed > r.Attempted {
				t.Fatalf("result %+v (parsed %v), want correct=false with failed rows\nstderr: %s", r, ok, inv.stderr)
			}
			assertCleanedUp(t, inv, before)
		})
	}
}

func TestPanicCleansUp(t *testing.T) {
	before := runtime.NumGoroutine()
	inv := invoke(t, context.Background(), func(o *options) { o.panicAt = "openloop" }, "--workload", "tiny", "--seconds", "2")
	if inv.code == 0 || !strings.Contains(inv.stderr, "panic") {
		t.Fatalf("exit %d, stderr %q", inv.code, inv.stderr)
	}
	if _, ok := inv.lastResult(t); ok {
		t.Fatal("a panicked run must not print a result")
	}
	assertCleanedUp(t, inv, before)
}

func TestInterruptCleansUp(t *testing.T) {
	for _, w := range []string{"tiny", "tiny_cold"} {
		t.Run(w, func(t *testing.T) {
			before := runtime.NumGoroutine()
			ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt)
			defer stop()
			inv := invoke(t, ctx, func(o *options) {
				record := o.onStack
				o.onStack = func(url string) {
					record(url)
					// SIGINT once the measured stack serves, as a user's ^C.
					syscall.Kill(os.Getpid(), syscall.SIGINT)
				}
			}, "--workload", w, "--seconds", "30")
			if inv.code == 0 {
				t.Fatal("an interrupted run must exit non-zero")
			}
			if inv.duration > 20*time.Second {
				t.Fatalf("interrupted run took %v", inv.duration)
			}
			if _, ok := inv.lastResult(t); ok {
				t.Fatal("an interrupted run must not print a result")
			}
			t.Logf("goroutines before %d, after %d", before, runtime.NumGoroutine())
			assertCleanedUp(t, inv, -1)
		})
	}
}

func TestDeadlineCleansUp(t *testing.T) {
	before := runtime.NumGoroutine()
	inv := invoke(t, context.Background(), func(o *options) { o.deadline = 2 * time.Second }, "--workload", "tiny_cold", "--seconds", "30")
	if inv.code == 0 || !strings.Contains(inv.stderr, "deadline") {
		t.Fatalf("exit %d, stderr %q", inv.code, inv.stderr)
	}
	if inv.duration > 20*time.Second {
		t.Fatalf("run past its deadline took %v", inv.duration)
	}
	t.Logf("goroutines before %d, after %d", before, runtime.NumGoroutine())
	assertCleanedUp(t, inv, -1)
}

func TestBadArguments(t *testing.T) {
	for _, args := range [][]string{
		{"--workload", "nope"},
		{"--workload", "ingest", "--seconds", "0"},
		{"--workload", "ingest", "--trace", "2"},
		{"--workload", "ingest", "extra"},
	} {
		var out, errb bytes.Buffer
		if code := runMain(context.Background(), args, &out, &errb, nil); code == 0 || out.Len() != 0 {
			t.Errorf("%v: exit %d, stdout %q", args, code, out.String())
		}
	}
}
