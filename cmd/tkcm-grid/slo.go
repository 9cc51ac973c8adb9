package main

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"net"
	"os"
	"os/exec"
	"path/filepath"
	"sync"
	"sync/atomic"
	"time"

	"tkcm/client"
	"tkcm/internal/experiments"
	"tkcm/internal/obs"
)

// sloResult is one sweep's verdict: the measured p99s against the declared
// budgets, written to paper_runs/slo.json.
type sloResult struct {
	Name        string  `json:"name"`
	Shards      int     `json:"shards"`
	Tenants     int     `json:"tenants"`
	Width       int     `json:"width"`
	Missing     float64 `json:"missing"`
	Migrations  uint64  `json:"migrations"`
	Ticks       uint64  `json:"ticks"`
	TicksPerSec float64 `json:"ticks_per_sec"`
	// AckP99Ms is the server-observed end-to-end ack p99 (tkcm_ack_seconds)
	// in milliseconds; StageP99Ms breaks it down per tick stage
	// (tkcm_tick_stage_seconds).
	AckP99Ms   experiments.JSONFloat `json:"ack_p99_ms"`
	StageP99Ms map[string]float64    `json:"stage_p99_ms"`
	Budgets    []string              `json:"budget_breaches,omitempty"`
	Pass       bool                  `json:"pass"`
}

// runSLO executes every SLO sweep of the spec against a real tkcm-serve
// process and fails on any budget breach.
func runSLO(spec *experiments.GridSpec, o options, out io.Writer) error {
	sweeps := spec.SLO.Sweeps
	if len(sweeps) == 0 {
		return fmt.Errorf("spec %q declares no slo sweeps", spec.Name)
	}
	serveBin := o.serveBin
	if serveBin == "" {
		dir, err := os.MkdirTemp("", "tkcm-grid-serve")
		if err != nil {
			return err
		}
		defer os.RemoveAll(dir)
		serveBin = filepath.Join(dir, "tkcm-serve")
		fmt.Fprintf(out, "# building %s\n", serveBin)
		build := exec.Command("go", "build", "-o", serveBin, "tkcm/cmd/tkcm-serve")
		if raw, err := build.CombinedOutput(); err != nil {
			return fmt.Errorf("building tkcm-serve: %v\n%s", err, raw)
		}
	}

	var results []sloResult
	failed := 0
	for _, sw := range sweeps {
		res, err := runSweep(serveBin, sw, out)
		if err != nil {
			return fmt.Errorf("sweep %q: %w", sw.Name, err)
		}
		if !res.Pass {
			failed++
		}
		results = append(results, *res)
	}

	if o.outDir != "" {
		if err := os.MkdirAll(o.outDir, 0o755); err != nil {
			return err
		}
		raw, err := json.MarshalIndent(results, "", "  ")
		if err != nil {
			return err
		}
		path := filepath.Join(o.outDir, "slo.json")
		if err := os.WriteFile(path, append(raw, '\n'), 0o644); err != nil {
			return err
		}
		fmt.Fprintf(out, "wrote %s\n", path)
	}
	if failed > 0 {
		return fmt.Errorf("%d of %d slo sweeps breached their latency budgets", failed, len(sweeps))
	}
	fmt.Fprintf(out, "all %d slo sweeps within budget\n", len(sweeps))
	return nil
}

// runSweep boots one tkcm-serve process sized for the sweep, drives it for
// the sweep's duration, scrapes /metrics, and judges the budgets.
func runSweep(serveBin string, sw experiments.SLOSweep, out io.Writer) (*sloResult, error) {
	duration, err := time.ParseDuration(sw.Duration)
	if err != nil {
		return nil, fmt.Errorf("bad duration %q: %w", sw.Duration, err)
	}
	var migrate time.Duration
	if sw.MigrateEvery != "" {
		if migrate, err = time.ParseDuration(sw.MigrateEvery); err != nil {
			return nil, fmt.Errorf("bad migrate_every %q: %w", sw.MigrateEvery, err)
		}
	}
	addr, err := freeAddr()
	if err != nil {
		return nil, err
	}
	workDir, err := os.MkdirTemp("", "tkcm-grid-slo")
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(workDir)

	fmt.Fprintf(out, "# sweep %q — %d shards × %d tenants × width %d, %.0f%% missing, %v",
		sw.Name, sw.Shards, sw.Tenants, sw.Width, 100*sw.Missing, duration)
	if migrate > 0 {
		fmt.Fprintf(out, ", migration churn every %v", migrate)
	}
	fmt.Fprintln(out)

	serve := exec.Command(serveBin,
		"-addr", addr,
		"-shards", fmt.Sprint(sw.Shards),
		"-checkpoint-dir", filepath.Join(workDir, "ck"),
		"-wal-dir", filepath.Join(workDir, "wal"),
		"-log-level", "warn",
	)
	serve.Stdout = os.Stderr
	serve.Stderr = os.Stderr
	if err := serve.Start(); err != nil {
		return nil, fmt.Errorf("starting %s: %w", serveBin, err)
	}
	defer func() {
		serve.Process.Kill()
		serve.Wait()
	}()

	ctx, cancel := context.WithTimeout(context.Background(), duration+60*time.Second)
	defer cancel()
	c := client.New("http://" + addr)
	if err := waitHealthy(ctx, c); err != nil {
		return nil, err
	}

	res := &sloResult{
		Name: sw.Name, Shards: sw.Shards, Tenants: sw.Tenants,
		Width: sw.Width, Missing: sw.Missing,
	}
	if err := driveSweep(ctx, c, sw, duration, migrate, nil, res); err != nil {
		return nil, err
	}
	if err := scrapeSweep(ctx, c, res); err != nil {
		return nil, err
	}

	// Judge the budgets.
	ack := float64(res.AckP99Ms)
	if math.IsNaN(ack) {
		res.Budgets = append(res.Budgets, "ack p99 unavailable from /metrics")
	} else if ack > sw.BudgetAckP99Ms {
		res.Budgets = append(res.Budgets,
			fmt.Sprintf("ack p99 %.3fms exceeds budget %.3fms", ack, sw.BudgetAckP99Ms))
	}
	for _, stage := range sortedStageKeys(sw.BudgetStageP99Ms) {
		budget := sw.BudgetStageP99Ms[stage]
		got, ok := res.StageP99Ms[stage]
		if !ok {
			res.Budgets = append(res.Budgets, fmt.Sprintf("stage %q p99 unavailable from /metrics", stage))
			continue
		}
		if got > budget {
			res.Budgets = append(res.Budgets,
				fmt.Sprintf("stage %q p99 %.3fms exceeds budget %.3fms", stage, got, budget))
		}
	}
	res.Pass = len(res.Budgets) == 0

	fmt.Fprintf(out, "  ticks %d (%.0f/s), migrations %d, ack p99 %.3fms (budget %.3fms)\n",
		res.Ticks, res.TicksPerSec, res.Migrations, ack, sw.BudgetAckP99Ms)
	for stage, ms := range res.StageP99Ms {
		fmt.Fprintf(out, "  stage %-12s p99 %.3fms\n", stage, ms)
	}
	for _, b := range res.Budgets {
		fmt.Fprintf(out, "  BREACH: %s\n", b)
	}
	return res, nil
}

// driveSweep creates the sweep's tenants and pumps sequenced streams at the
// configured missing rate until the deadline, with optional live-migration
// churn, filling the throughput fields of res. shares[i] is tenant i's share
// of its send slots (nil: every tenant sends in every slot).
func driveSweep(ctx context.Context, c *client.Client, sw experiments.SLOSweep,
	duration, migrate time.Duration, shares []float64, res *sloResult) error {

	streams := make([]string, sw.Width)
	for i := range streams {
		streams[i] = fmt.Sprintf("s%03d", i)
	}
	ids := make([]string, sw.Tenants)
	for i := range ids {
		ids[i] = fmt.Sprintf("slo-%s-%04d", sanitize(sw.Name), i)
		err := c.CreateTenant(ctx, ids[i], client.CreateTenantRequest{
			Streams: streams,
			Config: &client.Config{
				K: 3, PatternLength: 8, D: 2, WindowLength: 1024,
			},
		})
		if err != nil {
			return fmt.Errorf("creating %s: %w", ids[i], err)
		}
	}

	var (
		ticks      atomic.Uint64
		migrations atomic.Uint64
		wg         sync.WaitGroup
	)
	deadline := time.Now().Add(duration)
	start := time.Now()
	errCh := make(chan error, len(ids)+1)
	for ti := range ids {
		share := 1.0
		if shares != nil {
			share = shares[ti]
		}
		wg.Add(1)
		go func(tenant string, seed uint64, share float64) {
			defer wg.Done()
			if err := pump(ctx, c, tenant, sw, seed, share, deadline, &ticks); err != nil {
				errCh <- fmt.Errorf("%s: %w", tenant, err)
			}
		}(ids[ti], uint64(ti)+1, share)
	}
	if migrate > 0 && sw.Shards > 1 {
		wg.Add(1)
		go func() {
			defer wg.Done()
			t := time.NewTicker(migrate)
			defer t.Stop()
			for i := 0; time.Now().Before(deadline); i++ {
				select {
				case <-t.C:
				case <-ctx.Done():
					return
				}
				id := ids[(i/sw.Shards)%len(ids)]
				mres, err := c.MigrateTenant(ctx, id, i%sw.Shards)
				if err != nil {
					errCh <- fmt.Errorf("migrating %s: %w", id, err)
					return
				}
				if mres.From != mres.To {
					migrations.Add(1)
				}
			}
		}()
	}
	wg.Wait()
	close(errCh)
	for err := range errCh {
		return err // any stream or migration error fails the sweep
	}
	elapsed := time.Since(start)
	res.Ticks = ticks.Load()
	res.TicksPerSec = float64(res.Ticks) / elapsed.Seconds()
	res.Migrations = migrations.Load()
	if res.Ticks == 0 {
		return fmt.Errorf("no ticks were acknowledged")
	}
	if migrate > 0 && sw.Shards > 1 && res.Migrations == 0 {
		return fmt.Errorf("migration churn requested but zero migrations completed")
	}
	return nil
}

// pump drives one tenant's sequenced stream until the deadline, sending a
// row in a random share of its slots and idling 1ms in the others.
func pump(ctx context.Context, c *client.Client, tenant string, sw experiments.SLOSweep,
	seed uint64, share float64, deadline time.Time, ticks *atomic.Uint64) error {

	batch := sw.Batch
	if batch <= 0 {
		batch = 1
	}
	st, err := c.OpenStream(ctx, tenant, client.StreamOptions{
		Sequenced: true, MaxInFlight: 128, Batch: batch,
	})
	if err != nil {
		return err
	}
	done := make(chan error, 1)
	go func() {
		for {
			if _, err := st.Recv(ctx); err == io.EOF {
				done <- nil
				return
			} else if err != nil {
				done <- err
				return
			}
			ticks.Add(1)
		}
	}()

	// splitmix64, matching the deterministic generator idiom of
	// internal/dataset: the sweep's load is reproducible per (sweep, tenant).
	next := func() float64 {
		seed += 0x9e3779b97f4a7c15
		z := seed
		z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
		z = (z ^ (z >> 27)) * 0x94d049bb133111eb
		return float64(z^(z>>31)) / float64(math.MaxUint64)
	}
	row := make([]float64, sw.Width)
	const warmup = 16
	var serr error
	for n := 0; time.Now().Before(deadline); n++ {
		if share < 1 && next() >= share {
			time.Sleep(time.Millisecond)
			continue
		}
		for i := range row {
			base := math.Sin(2*math.Pi*float64(n)/96 + float64(i))
			row[i] = math.Round(100*(20+5*base+0.1*next())) / 100
			if n > warmup && next() < sw.Missing {
				row[i] = math.NaN()
			}
		}
		if serr = st.Send(ctx, row); serr != nil {
			break
		}
	}
	cerr := st.Close()
	rerr := <-done
	if serr == nil {
		serr = rerr
	}
	if serr == nil {
		serr = cerr
	}
	return serr
}

// scrapeSweep pulls the server's /metrics and fills the p99 fields.
func scrapeSweep(ctx context.Context, c *client.Client, res *sloResult) error {
	text, err := c.Metrics(ctx)
	if err != nil {
		return fmt.Errorf("scraping /metrics: %w", err)
	}
	sc, err := obs.ParseProm(text)
	if err != nil {
		return fmt.Errorf("parsing /metrics: %w", err)
	}
	res.AckP99Ms = experiments.JSONFloat(sc.StageQuantile("tkcm_ack_seconds", 0.99, nil) * 1e3)
	res.StageP99Ms = make(map[string]float64)
	for st := 0; st < obs.NumStages; st++ {
		name := obs.Stage(st).String()
		p99 := sc.StageQuantile("tkcm_tick_stage_seconds", 0.99, map[string]string{"stage": name})
		if !math.IsNaN(p99) {
			res.StageP99Ms[name] = p99 * 1e3
		}
	}
	return nil
}

// waitHealthy polls the server until it answers /v1/health (or the context
// dies).
func waitHealthy(ctx context.Context, c *client.Client) error {
	deadline := time.Now().Add(15 * time.Second)
	for time.Now().Before(deadline) {
		if _, err := c.Health(ctx); err == nil {
			return nil
		}
		select {
		case <-ctx.Done():
			return ctx.Err()
		case <-time.After(100 * time.Millisecond):
		}
	}
	return fmt.Errorf("server did not become healthy within 15s")
}

// freeAddr reserves a loopback port for the serve process.
func freeAddr() (string, error) {
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return "", err
	}
	addr := l.Addr().String()
	l.Close()
	return addr, nil
}

// sanitize keeps tenant IDs to the safe charset.
func sanitize(s string) string {
	out := make([]byte, 0, len(s))
	for i := 0; i < len(s); i++ {
		c := s[i]
		if c >= 'a' && c <= 'z' || c >= 'A' && c <= 'Z' || c >= '0' && c <= '9' || c == '-' {
			out = append(out, c)
		} else {
			out = append(out, '-')
		}
	}
	return string(out)
}

// sortedStageKeys returns the budget map's keys in stable order.
func sortedStageKeys(m map[string]float64) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	for i := 1; i < len(keys); i++ {
		for j := i; j > 0 && keys[j] < keys[j-1]; j-- {
			keys[j], keys[j-1] = keys[j-1], keys[j]
		}
	}
	return keys
}
