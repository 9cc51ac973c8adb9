package main

import (
	"context"
	"errors"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"runtime/metrics"
	"sort"
	"sync"
	"syscall"
	"time"

	"tkcm/internal/core"
)

// setupRepeats is how many times a measured run sets the stack up; setup_s
// is the median and the last set-up is the one measured.
const setupRepeats = 5

// phases splits --seconds: the fixed-rate phase and, for the tick-stream
// workloads, the closed-loop capacity phase of a measured run (cold_tenants
// has none: its whole run is paced bursts), or the untraced and traced
// fixed-rate halves of a traced run.
func phases(o options, w *workload) (fixed, capacity time.Duration) {
	total := time.Duration(o.seconds) * time.Second
	switch {
	case o.trace:
		return total / 2, 0
	case w.cold():
		return total, 0
	}
	return total * 6 / 10, total * 4 / 10
}

// newTenants preallocates the per-tenant buffers for a run, so that none
// grows while the fixed-rate phase is measured.
func newTenants(w *workload, g *gen, o options) []*tenant {
	perTenant := w.rate / float64(w.tenants)
	rows := w.warm + int(perTenant*(w.lead.Seconds()+time.Duration(o.seconds*int(time.Second)).Seconds())) + 64
	// A burst's tenant depends only on the seed, so each cold tenant's acks
	// are counted up front: its warm-up burst plus its scheduled bursts.
	acks := make([]int, w.tenants)
	if w.cold() {
		cum := zipfCum(w.tenants, w.zipf)
		for b := range scheduledBursts(w, o) {
			acks[burstTenant(g.seed, cum, b)] += w.burst
		}
	}
	ts := make([]*tenant, w.tenants)
	for i := range ts {
		t := &tenant{idx: i, id: tenantID(i), row: make([]float64, w.streams)}
		if w.cold() {
			n := max(w.warm, w.burst)
			t.sent = make([]int64, 0, n)
			t.ack = make([]int64, 0, n)
			t.hashes = make([]uint64, 0, w.warm+acks[i])
		} else {
			t.due = make([]int64, rows)
			t.sent = make([]int64, rows)
			t.ack = make([]int64, rows)
			t.hashes = make([]uint64, 0, rows)
		}
		ts[i] = t
	}
	return ts
}

// scheduledBursts is how many bursts a cold_tenants run schedules after
// set-up: the lead-in's, then the fixed-rate phase's (a traced run has two
// fixed-rate halves).
func scheduledBursts(w *workload, o options) int {
	fixed, _ := phases(o, w)
	n := w.burstsIn(w.lead) + w.burstsIn(fixed)
	if o.trace {
		n += w.burstsIn(fixed)
	}
	return n
}

func (t *tenant) reset() {
	t.next = 1
	t.hashes = t.hashes[:0]
	t.broken = nil
	clear(t.due)
	clear(t.sent)
	clear(t.ack)
}

// session is one set-up stack with its tenants' open feeds.
type session struct {
	r     *runner
	feeds []*feed
}

func (s *session) close() error {
	var errs []error
	for _, f := range s.feeds {
		if err := f.close(); err != nil {
			errs = append(errs, err)
		}
	}
	s.feeds = nil
	if s.r != nil && s.r.st != nil {
		errs = append(errs, s.r.st.close())
		s.r.st = nil
	}
	return errors.Join(errs...)
}

// setUp boots a stack, creates the tenants and warms their windows through
// the real ingest path; for cold_tenants the residency cap has parked all
// but the last few when it returns.
func setUp(ctx context.Context, o options, w *workload, g *gen, tenants []*tenant, tr *tracer) (*session, error) {
	for _, t := range tenants {
		t.reset()
	}
	st, err := startStack(o.workdir, w, tr)
	if err != nil {
		return nil, err
	}
	r := &runner{w: w, g: g, st: st, tr: tr, tenants: tenants, panicAt: o.panicAt}
	if w.cold() {
		r.zipfCum = zipfCum(len(tenants), w.zipf)
	}
	s := &session{r: r}
	if err := r.createTenants(ctx); err != nil {
		return s, err
	}
	if w.cold() {
		return s, r.warmBursts(ctx)
	}
	for _, t := range tenants {
		f, err := r.openFeed(ctx, t)
		if err != nil {
			return s, err
		}
		s.feeds = append(s.feeds, f)
	}
	return s, r.warmFeeds(ctx, s.feeds)
}

// run executes one invocation: set-up, lead-in, the measured phases, the
// reference check, and (traced) the layer replays. Every path out of it
// closes the stack and removes the run's directories.
func run(ctx context.Context, o options) (rep *report, err error) {
	w, err := lookupWorkload(o.workload)
	if err != nil {
		return nil, err
	}
	if err := os.MkdirAll(o.workdir, 0o755); err != nil {
		return nil, err
	}
	removeStale(o.workdir)
	rep = newReport(o)
	fixed, capDur := phases(o, w)
	g := w.newGen(o.seed)
	tenants := newTenants(w, g, o)
	var tr *tracer
	if o.trace {
		tr = newTracer(1<<21, 8<<20)
	}
	// The benchmark's own buffers are all allocated by now: live_heap_mb is
	// the live heap at the end of the fixed-rate phase above this baseline.
	times := make([]rowTimes, 0, int(w.rate*fixed.Seconds())+w.tenants)
	heap0 := liveHeap()

	var sess *session
	defer func() {
		if sess != nil {
			if cerr := sess.close(); cerr != nil && err == nil {
				err = cerr
			}
		}
	}()
	repeats := setupRepeats
	if o.trace {
		repeats = 1
	}
	// setup_s is the process CPU one set-up costs: the same work moved into
	// set-up shows there, while its wall time swings with the host's steal.
	var setups, setupWall []float64
	for k := 0; k < repeats; k++ {
		t0, c0 := mono(), cpuTime()
		sess, err = setUp(ctx, o, w, g, tenants, tr)
		if err != nil {
			return nil, fmt.Errorf("set-up: %w", err)
		}
		setups = append(setups, (cpuTime()-c0)/1e9)
		setupWall = append(setupWall, float64(mono()-t0)/1e9)
		if k < repeats-1 {
			if err := sess.close(); err != nil {
				return nil, fmt.Errorf("set-up teardown: %w", err)
			}
		}
	}
	r := sess.r
	if o.onStack != nil {
		o.onStack(r.st.url)
	}
	rep.Raw["setup_cpu_s"] = setups
	rep.Raw["setup_wall_s"] = setupWall

	// Lead-in: the same fixed rate, unmeasured.
	next := 0
	if _, err := r.fixedRate(ctx, sess, &next, w.lead, nil); err != nil {
		return nil, fmt.Errorf("lead-in: %w", err)
	}

	if o.trace {
		return rep, r.traced(ctx, o, rep, sess, &next, fixed)
	}

	c0 := readScrape(r.st)
	cpu0, rt0 := cpuTime(), readRuntime()
	r.measuring.Store(true)
	ph, err := r.fixedRate(ctx, sess, &next, fixed, times)
	r.measuring.Store(false)
	if err != nil {
		return nil, fmt.Errorf("fixed-rate phase: %w", err)
	}
	cpu1, rt1 := cpuTime(), readRuntime()
	c1 := readScrape(r.st)
	heap := liveHeap()

	var capRates, capCPU []float64
	if capDur > 0 {
		if capRates, capCPU, err = r.capacity(ctx, sess, capDur); err != nil {
			return nil, fmt.Errorf("capacity phase: %w", err)
		}
	}
	if err := sess.close(); err != nil {
		r.problem("teardown: %v", err)
	}
	cRun := c1.sub(c0)
	rep.Counters = &cRun

	if err := r.finish(ctx, o, rep); err != nil {
		return nil, err
	}

	rep.set("setup_s", median(setups), "s", len(setups))
	rep.inform("setup_wall_s", median(setupWall), "s", len(setupWall))
	if err := ph.setLatency(rep); err != nil {
		return nil, err
	}
	// Process CPU covers the generator and the ack bookkeeping too: they run
	// on every row, at the same cost before and after a change to the stack.
	_, cpuWin := windowRates(ph.samples)
	rep.set("cpu_us_per_row", median(cpuWin)/1e3, "us", len(cpuWin))
	if capDur > 0 {
		rep.inform("capacity_cpu_us_per_row", median(capCPU)/1e3, "us", len(capCPU))
		rep.inform("capacity_rows_per_s", median(capRates), "rows/s", len(capRates))
	}
	rep.set("live_heap_mb", (float64(heap)-float64(heap0))/(1<<20), "MiB", 1)
	rep.Raw["live_heap_mb_total"] = float64(heap) / (1 << 20)
	rep.Raw["live_heap_mb_baseline"] = float64(heap0) / (1 << 20)
	if r.cells == 0 {
		return nil, errors.New("no imputed cells in the fixed-rate phase: impute_rmse undefined")
	}
	rep.set("impute_rmse", math.Sqrt(r.sse/float64(r.cells)), "units", r.cells)
	rep.Raw["phase_rows"] = ph.rows
	rep.Raw["capacity_rows_per_s_windows"] = capRates
	rep.Raw["cpu_us_per_row_windows"] = scale(cpuWin, 1e-3)
	rep.Raw["cpu_us_per_row_whole_phase"] = (cpu1 - cpu0) / 1e3 / float64(ph.rows)
	rep.Raw["go_alloc_bytes_per_row"] = (rt1.allocBytes - rt0.allocBytes) / float64(ph.rows)
	rep.Raw["cross_check"] = map[string]float64{
		"client_rows":        float64(ph.rows),
		"server_tick_rows":   cRun.TickRows,
		"server_lines":       cRun.StageCount["decode"],
		"wal_appends":        cRun.WALAppends,
		"wal_syncs":          cRun.WALSyncs,
		"client_ack_mean_ms": meanLatencyMs(ph.times),
		"server_ack_mean_ms": 1e3 * sumStages(cRun) / math.Max(cRun.StageCount["decode"], 1),
		"server_ack_p50_ms":  cRun.ackQuantile(0.5),
		"server_ack_p99_ms":  cRun.ackQuantile(0.99),
	}
	return rep, nil
}

// phaseResult is what a fixed-rate phase yields, whatever drove it.
type phaseResult struct {
	start      int64
	times      []rowTimes
	rows       int
	backlogMax int64
	samples    []tickSample
}

// latencyWindow is the width of the windows the fixed-rate percentiles are
// taken over; the reported value is the median across windows, so a single
// stall (a slow fsync on a shared disk) moves one window, not the metric.
const latencyWindow = time.Second

func (p *phaseResult) setLatency(rep *report) error {
	for _, q := range []struct {
		name string
		q    float64
	}{{"ack_p50_ms", 0.50}, {"ack_p99_ms", 0.99}} {
		v, n, wins, err := windowedQuantiles(p.times, p.start, int64(latencyWindow), q.q, func(t rowTimes) int64 { return t.ackLatency() })
		rep.Raw[q.name+"_windows"] = scale(wins, 1e-6)
		if err != nil {
			rep.Raw[q.name+"_unreported"] = err.Error()
			continue
		}
		rep.inform(q.name, v/1e6, "ms", n)
	}
	lat := make([]float64, len(p.times))
	late := make([]float64, len(p.times))
	for i, t := range p.times {
		lat[i] = float64(t.ackLatency()) / 1e6
		late[i] = float64(t.lateness()) / 1e6
	}
	sort.Float64s(lat)
	sort.Float64s(late)
	whole := map[string]float64{"max": lat[len(lat)-1], "mean": meanOf(lat)}
	for _, q := range []float64{0.5, 0.99} {
		if v, err := percentile(lat, q); err == nil {
			whole[fmt.Sprintf("p%g", 100*q)] = v.Value
		}
	}
	rep.Raw["ack_ms_whole_phase"] = whole
	lp99, _ := percentile(late, 0.99)
	rep.Raw["late_p99_ms"] = lp99.Value
	rep.Raw["backlog_max_rows"] = p.backlogMax
	return nil
}

// fixedRate runs one fixed-rate phase of dur with whichever load generator
// the workload uses, sampling process CPU and acks once per latencyWindow.
// The rows' clocks are appended to times.
func (r *runner) fixedRate(ctx context.Context, sess *session, next *int, dur time.Duration, times []rowTimes) (*phaseResult, error) {
	smp := startSampler(latencyWindow, r.acks.Load)
	if r.w.cold() {
		bs, err := r.burstLoop(ctx, next, dur, times)
		samples := smp.finish()
		if err != nil {
			return nil, err
		}
		return &phaseResult{start: bs.start, times: bs.times, rows: bs.rows, backlogMax: bs.backlogMax.Load(), samples: samples}, nil
	}
	ol, err := r.openLoop(ctx, sess.feeds, dur)
	samples := smp.finish()
	if err != nil {
		return nil, err
	}
	return &phaseResult{start: ol.start, times: r.rowTimes(ol, times), rows: ol.rows, backlogMax: ol.backlogMax, samples: samples}, nil
}

// capacity runs the closed-loop phase of the tick-stream workloads for dur
// and returns its per-window ack rates (rows/s) and CPU per acked row (ns),
// skipping the first window's ramp-up.
func (r *runner) capacity(ctx context.Context, sess *session, dur time.Duration) (rates, cpu []float64, err error) {
	smp := startSampler(dur/capacityWindows, r.acks.Load)
	err = r.closedLoop(ctx, sess.feeds, dur)
	samples := smp.finish()
	if err != nil {
		return nil, nil, err
	}
	rates, cpu = windowRates(samples)
	if len(rates) < 3 {
		return nil, nil, fmt.Errorf("capacity phase too short: %d windows", len(rates))
	}
	return rates[1:], cpu[1:], nil
}

// capacityWindows is how many windows the closed-loop phase is split into.
const capacityWindows = 10

// tickSample is one periodic reading during a phase.
type tickSample struct {
	at    int64
	cpu   float64
	acked int64
}

type sampler struct {
	stop chan struct{}
	done chan []tickSample
}

// startSampler reads the clock, process CPU and the ack counter now and
// every period until finish.
func startSampler(period time.Duration, acked func() int64) *sampler {
	s := &sampler{stop: make(chan struct{}), done: make(chan []tickSample, 1)}
	read := func() tickSample { return tickSample{at: mono(), cpu: cpuTime(), acked: acked()} }
	out := []tickSample{read()}
	go func() {
		t := time.NewTicker(period)
		defer t.Stop()
		for {
			select {
			case <-t.C:
				out = append(out, read())
			case <-s.stop:
				s.done <- append(out, read())
				return
			}
		}
	}()
	return s
}

// finish stops the sampler and returns its readings.
func (s *sampler) finish() []tickSample {
	close(s.stop)
	return <-s.done
}

// windowRates turns consecutive readings into per-window ack rates (rows/s)
// and CPU per acked row (ns); windows without acks are skipped.
func windowRates(s []tickSample) (rates, cpuPerRow []float64) {
	for i := 1; i < len(s); i++ {
		rows := s[i].acked - s[i-1].acked
		dt := s[i].at - s[i-1].at
		if rows <= 0 || dt <= 0 {
			continue
		}
		rates = append(rates, float64(rows)/(float64(dt)/1e9))
		cpuPerRow = append(cpuPerRow, (s[i].cpu-s[i-1].cpu)/float64(rows))
	}
	return rates, cpuPerRow
}

func scale(v []float64, f float64) []float64 {
	out := make([]float64, len(v))
	for i, x := range v {
		out[i] = x * f
	}
	return out
}

func meanLatencyMs(ts []rowTimes) float64 {
	s := 0.0
	for _, t := range ts {
		s += float64(t.ackLatency()) / 1e6
	}
	return s / math.Max(float64(len(ts)), 1)
}

func meanOf(v []float64) float64 {
	s := 0.0
	for _, x := range v {
		s += x
	}
	return s / math.Max(float64(len(v)), 1)
}

func sumStages(c counters) float64 {
	s := 0.0
	for _, v := range c.StageSum {
		s += v
	}
	return s
}

// finish runs the reference check outside the timed region and fills the
// contract's correctness fields.
func (r *runner) finish(ctx context.Context, o options, rep *report) error {
	mismatches, err := verify(ctx, r.w, r.g, r.tenants, o.corrupt)
	if err != nil {
		return fmt.Errorf("reference check: %w", err)
	}
	var accepted int64
	for _, t := range r.tenants {
		accepted += int64(len(t.hashes))
	}
	rep.Attempted = r.attempted.Load()
	rep.Failed = min(rep.Attempted, rep.Attempted-accepted+int64(mismatches))
	if mismatches > 0 {
		r.problem("%d acked rows differ from the reference engines", mismatches)
	}
	if rep.Counters != nil && (rep.Counters.Failed > 0 || rep.Counters.FailedWAL > 0) {
		r.problem("fail-stopped tenants: %v engines, %v WAL logs", rep.Counters.Failed, rep.Counters.FailedWAL)
	}
	rep.Problems = r.problems
	rep.Correct = rep.Failed == 0 && len(r.problems) == 0 && rep.Attempted > 0
	rep.Raw["reference_rows"] = accepted
	return nil
}

// refConfig is the engine config the server derives from the workload's
// tenant config (its overlay of the API config onto the defaults).
func refConfig(w *workload) core.Config {
	cfg := core.DefaultConfig()
	cfg.K = w.cfg.K
	cfg.PatternLength = w.cfg.PatternLength
	cfg.D = w.cfg.D
	cfg.WindowLength = w.cfg.WindowLength
	return cfg
}

// verify feeds every tenant's rows, one at a time, to a fresh single-
// threaded reference engine and compares each completed row bit for bit
// with the acked one (for cold_tenants, hydrated engines against a never-
// evicted one). It returns the number of differing rows.
func verify(ctx context.Context, w *workload, g *gen, tenants []*tenant, corrupt bool) (int, error) {
	if corrupt && len(tenants) > 0 && len(tenants[0].hashes) > 0 {
		tenants[0].hashes[len(tenants[0].hashes)-1] ^= 1
	}
	names := streamNames(w.streams)
	var mu sync.Mutex
	bad := 0
	work := make(chan *tenant)
	fns := make([]func() error, runtime.GOMAXPROCS(0))
	for i := range fns {
		fns[i] = func() error {
			row := make([]float64, w.streams)
			imputed := make([]int, 0, w.streams)
			for t := range work {
				eng, err := core.NewEngine(refConfig(w), names, nil)
				if err != nil {
					return err
				}
				n := 0
				for k, want := range t.hashes {
					seq := uint64(k + 1)
					g.row(t.idx, seq, row)
					imputed = imputed[:0]
					for j, v := range row {
						if math.IsNaN(v) {
							imputed = append(imputed, j)
						}
					}
					out, _, err := eng.Tick(row)
					if err != nil {
						eng.Close()
						return err
					}
					if ackHash(eng.Window().Tick(), out, imputed) != want {
						n++
					}
				}
				eng.Close()
				mu.Lock()
				bad += n
				mu.Unlock()
			}
			return nil
		}
	}
	feed := func() error {
		defer close(work)
		for _, t := range tenants {
			select {
			case work <- t:
			case <-ctx.Done():
				return ctx.Err()
			}
		}
		return nil
	}
	err := group(append(fns, feed)...)
	return bad, err
}

// ---- Process-level readings ----

// cpuTime is the process's user+system CPU time in nanoseconds.
func cpuTime() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return math.NaN()
	}
	return float64(ru.Utime.Nano() + ru.Stime.Nano())
}

type runtimeReading struct {
	allocBytes, gcCPU, totalCPU, idleCPU float64
}

// busyCPU is the CPU the runtime accounts as used: its total (GOMAXPROCS
// times wall time) minus idle.
func (r runtimeReading) busyCPU() float64 { return r.totalCPU - r.idleCPU }

func readRuntime() runtimeReading {
	s := []metrics.Sample{
		{Name: "/gc/heap/allocs:bytes"},
		{Name: "/cpu/classes/gc/total:cpu-seconds"},
		{Name: "/cpu/classes/total:cpu-seconds"},
		{Name: "/cpu/classes/idle:cpu-seconds"},
	}
	metrics.Read(s)
	f := func(v metrics.Value) float64 {
		switch v.Kind() {
		case metrics.KindUint64:
			return float64(v.Uint64())
		case metrics.KindFloat64:
			return v.Float64()
		}
		return math.NaN()
	}
	return runtimeReading{allocBytes: f(s[0].Value), gcCPU: f(s[1].Value), totalCPU: f(s[2].Value), idleCPU: f(s[3].Value)}
}

// liveHeap forces a GC and returns the live heap in bytes.
func liveHeap() uint64 {
	runtime.GC()
	s := []metrics.Sample{{Name: "/gc/heap/live:bytes"}}
	metrics.Read(s)
	return s[0].Value.Uint64()
}

// readScrape reads the server counters, tolerating a failed read (the
// counters are a cross-check, not a metric of the measured run).
func readScrape(st *stack) counters {
	sc, err := st.scrape()
	if err != nil {
		return counters{StageSum: map[string]float64{}, StageCount: map[string]float64{}, AckBuckets: map[float64]float64{}}
	}
	return readCounters(sc)
}

// removeStale deletes run directories a killed run left behind. Only
// directories far older than any run's deadline go, so a concurrent run's
// live state is never touched.
func removeStale(workdir string) {
	for _, pat := range []string{"stack-*", "layers-*"} {
		old, _ := filepath.Glob(filepath.Join(workdir, pat))
		for _, d := range old {
			if st, err := os.Stat(d); err == nil && time.Since(st.ModTime()) > 10*time.Minute {
				os.RemoveAll(d)
			}
		}
	}
}
