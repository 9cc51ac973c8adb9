package core

import (
	"fmt"
	"math"
	"slices"
	"sync"

	"tkcm/internal/window"
)

// Engine performs continuous imputation over a set of co-evolving streams:
// at every tick it records the new row of measurements and immediately
// imputes every missing value using TKCM, so the retained window is always
// complete (the paper's streaming setting, Sec. 3). Each incomplete stream
// is imputed individually with its own reference set.
//
// Pattern extraction — the dominant phase (Sec. 7.4) — runs through the
// profiler Config.Profiler selects. The default (ProfilerAuto under L2) is
// the incremental profiler with demand-driven state: recording a tick costs
// one window append per stream — the profiler reads its history from the
// window, with no copy of its own — and profile aggregates are caught up
// only for streams actually consulted as references, so per-tick cost scales
// with the missing work, not the stream count. With Config.Workers > 1, the
// anchor selections of one tick fan out across a persistent worker pool.
type Engine struct {
	cfg  Config
	w    *window.Window
	refs map[string]ReferenceSet
	// fallback records per-stream last imputed/observed value, used only
	// while the window is too short for TKCM (cold start).
	last []float64
	// prof is the resolved extraction strategy; inc aliases it when it is
	// the stateful incremental profiler.
	prof Profiler
	inc  *IncrementalProfiler
	// scratch backs the profile and snapshot buffers of the jobs a tick runs
	// inline; the worker pool keeps one scratch per worker.
	scratch       imputeScratch
	workerScratch []imputeScratch
	// Tick-owned result buffers, handed to the caller and valid until the
	// next Tick: the completed row, the per-stream results, the missing
	// indices, the reference-index scratch of reference resolution, and the
	// sorted present values of a row-mean cold fill.
	out      []float64
	results  []*Result
	missing  []int
	refIdx   []int
	coldVals []float64
	// resPool holds the Results Tick and TickColumns hand out, resUsed of
	// them taken since the call began. Between calls it keeps at most one
	// per stream, which is what one Tick can need.
	resPool []*Result
	resUsed int
	// tick counts the rows applied over the engine's life; unlike the
	// exported (caller-resettable) Stats.Ticks it is private and monotone,
	// which is what Seq reports and a snapshot preserves.
	tick int
	// Imputation state of a tick: one job per distinct reference set, the
	// missing streams mapped onto those jobs, and the persistent pool feeding
	// the jobs to workers. poolMu guards the pool's lifecycle (start,
	// dispatch, Close) so Close is idempotent and safe to call while a Tick
	// is mid-dispatch.
	jobs    []tickJob
	targets []tickTarget
	poolMu  sync.Mutex
	pool    *tickPool
	// Columnar batch state, reused across TickColumns calls: the completed
	// output columns, the per-tick result rows, the per-tick missing counts,
	// and the gather scratch for ticks that need the scalar path.
	colOut         Columns
	colRes         [][]*Result
	missingPerTick []int32
	rowScratch     []float64
	// Stats accumulates counters for observability.
	Stats EngineStats
}

// EngineStats counts engine activity.
type EngineStats struct {
	Ticks            int // rows consumed
	Imputations      int // TKCM imputations performed
	ColdStartFills   int // missing values filled by cold-start carry-forward
	ReferenceErrors  int // ticks where a stream lacked d usable references
	InsufficientHist int // imputations skipped due to a short window
}

// NewEngine creates a continuous-imputation engine over the named streams.
// refs maps stream name to its ordered candidate reference series; streams
// without an entry get a correlation-ranked reference set lazily on their
// first missing value (RankCandidates). Engines with more than
// MaxWindowCells window values (streams × WindowLength) are refused before
// anything is allocated. Each stream's window backing holds L + l + L/4
// values under the incremental profiler and L + L/4 under the stateless ones
// (see historyCapacity); the output bits do not depend on that capacity.
func NewEngine(cfg Config, names []string, refs map[string]ReferenceSet) (*Engine, error) {
	return newEngine(cfg, names, refs, historyCapacity(cfg.engineProfilerKind(), cfg.WindowLength, cfg.PatternLength))
}

// newEngine is NewEngine with the per-stream window backing capacity given;
// it must exceed L plus the slid-out values the profiler keeps.
func newEngine(cfg Config, names []string, refs map[string]ReferenceSet, capacity int) (*Engine, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	if cells := int64(len(names)) * int64(cfg.WindowLength); cells > MaxWindowCells {
		return nil, fmt.Errorf("core: %d streams × window length %d = %d window cells exceeds the maximum %d (MaxWindowCells)",
			len(names), cfg.WindowLength, cells, MaxWindowCells)
	}
	if refs == nil {
		refs = make(map[string]ReferenceSet)
	}
	kind := cfg.engineProfilerKind()
	e := &Engine{
		cfg:  cfg,
		w:    window.New(cfg.WindowLength, capacity, historyKeep(kind, cfg.PatternLength), names...),
		refs: refs,
		last: make([]float64, len(names)),
	}
	switch kind {
	case ProfilerFFT:
		e.prof = FFTProfiler{}
	case ProfilerIncremental:
		e.inc = NewIncrementalProfiler(cfg.PatternLength, e.w)
		e.prof = e.inc
	default:
		e.prof = NaiveProfiler{}
	}
	for i := range e.last {
		e.last[i] = math.NaN()
	}
	return e, nil
}

// Window exposes the engine's streaming window (read-mostly; imputers write
// the current slot).
func (e *Engine) Window() *window.Window { return e.w }

// Config returns the engine's TKCM configuration.
func (e *Engine) Config() Config { return e.cfg }

// Profiler returns the resolved pattern-extraction strategy the engine runs.
func (e *Engine) Profiler() Profiler { return e.prof }

// Seq returns the number of rows the engine has ingested over its lifetime —
// the sequence number of the last applied row (0 for a fresh engine). Unlike
// the caller-resettable Stats.Ticks it is monotone and preserved exactly by
// Snapshot/RestoreEngine, which is what lets a write-ahead-log replay resume
// precisely where a checkpoint ends.
func (e *Engine) Seq() uint64 { return uint64(e.tick) }

// MemoryBytes estimates the engine's resident heap footprint when every
// stream was consulted as a reference within about the last l ticks. Per
// stream of window length L it counts, in float64s:
//
//   - the window backing: L + l + L/4 under the incremental profiler, whose
//     replays read up to l slid-out values, and L + L/4 under the stateless
//     ones;
//   - under the incremental profiler, the candidate energies: L − 2l + 1
//     live entries plus l of slack;
//   - and the cross products: L − 2l + 1.
//
// That is at most 3.25× the window bytes with the incremental profiler
// (3.21× at l = 72, L = 4032) and 1.25× without. Per engine it adds the
// selection scratch of a full window's n = L − 2l + 1 candidates: the
// profile buffer (n floats) and the Eq. 5 scratch, two rows of n+1 floats
// and k rows of ⌈(n+1)/64⌉ words of take bits (which the greedy and
// overlapping ablations do not allocate), once for the jobs a tick runs
// inline and once more per worker when Workers > 1. A stream holds its
// energies and cross products only while the incremental profiler's replay
// rule can still use them, at most l + ⌈l/4⌉ ticks after its last consult
// (or to the end of a longer TickColumns batch), so a tenant whose streams
// serve as references less often holds less than the estimate, and a
// never-ticked engine holds no window backing yet. The estimate is a pure
// function of the configuration and the stream count, so residency
// budgeting (shard.Options.ResidentBytes) can add it on install and subtract
// the same amount on detach; it is a sizing estimate, not an exact
// accounting. It leaves out the pool of Results that ticks hand out,
// (12 + 3k) words per stream, about 0.2% of a stream's history at k = 5,
// l = 72, L = 4032.
func (e *Engine) MemoryBytes() int64 {
	perStream := int64(e.w.Capacity())
	if e.inc != nil {
		perStream += int64(e.inc.energyLen + e.inc.maxCand)
	}
	n := int64(e.cfg.WindowLength - 2*e.cfg.PatternLength + 1)
	scratches := int64(1)
	if e.cfg.Workers > 1 {
		scratches += int64(e.cfg.Workers)
	}
	selection := n + 2*(n+1) + int64(e.cfg.K)*((n+64)/64)
	return (int64(e.w.Width())*perStream + scratches*selection) * 8
}

// ValidateRow checks row against the engine's stream width and value domain
// (NaN marks a missing value and is legal; ±Inf never is) without mutating
// any state. It is exactly the precondition Tick enforces before touching
// the window, exposed so a serving layer can write-ahead-log a row knowing
// the engine cannot reject it afterwards (or on crash replay).
func (e *Engine) ValidateRow(row []float64) error {
	if len(row) != e.w.Width() {
		return fmt.Errorf("core: row width %d != stream count %d", len(row), e.w.Width())
	}
	for i, v := range row {
		if math.IsInf(v, 0) {
			return fmt.Errorf("core: row[%d] (stream %q): non-finite measurement %v (use NaN for missing)", i, e.w.Names()[i], v)
		}
	}
	return nil
}

// Tick consumes one row of measurements (one value per stream, NaN =
// missing) and imputes every missing value. It returns the completed row
// (imputed in place of NaN) and the per-stream imputation results: every
// stream imputed by TKCM carries one, and streams that were present or
// cold-start filled have nil entries.
//
// The returned slices and Results are owned by the engine and valid until
// the next call to Tick or TickColumns; callers that retain them across
// ticks must copy. A steady-state tick performs no allocations, whether or
// not it imputes.
//
// Every missing stream's references are resolved against the raw row, so a
// value imputed or cold-filled in this tick never serves as a reference in
// the same tick, and the output depends on the row alone: not on
// Config.Workers, which only fans a tick's anchor selections out across a
// worker pool, and not on the order the streams were declared in.
func (e *Engine) Tick(row []float64) ([]float64, []*Result, error) {
	// Validate before mutating any state, so a rejected row leaves the
	// engine exactly as it was (service boundaries retry or drop the row).
	// NaN is the missing-value marker and passes; ±Inf is never a valid
	// measurement and would poison the window aggregates.
	if err := e.ValidateRow(row); err != nil {
		return nil, nil, err
	}
	if e.out == nil {
		e.out = make([]float64, len(row))
		e.results = make([]*Result, len(row))
	}
	e.resUsed = 0
	e.tickApplied(row, e.out, e.results)
	e.sweep()
	return e.out, e.results, nil
}

// tickApplied is the post-validation body of Tick: it advances the window by
// the (already validated) row — NaN stays in a missing stream's newest slot
// until its imputed or cold-filled value overwrites it — and imputes every
// missing value, writing the completed row into out and the per-stream
// results into results. The columnar path calls it for ticks that contain
// missing values, so batched and unbatched ingest run literally the same
// imputation code.
func (e *Engine) tickApplied(row []float64, out []float64, results []*Result) {
	e.w.Advance(row)
	e.tick++
	e.Stats.Ticks++
	copy(out, row)
	for i := range results {
		results[i] = nil
	}
	missing := e.missing[:0]
	for i, v := range row {
		if math.IsNaN(v) {
			missing = append(missing, i)
			continue
		}
		e.last[i] = v
	}
	e.missing = missing
	if len(missing) == 0 {
		return
	}
	e.imputeMissing(row, missing, out, results)
}

// Columns is a stream-major batch of ticks: Columns[i][t] holds stream i's
// measurement at the t-th tick of the batch (NaN = missing). All columns
// must have equal length — the batch's tick count. It is the layout the
// columnar ingest path (TickColumns) consumes without further shuffling.
type Columns [][]float64

// TickColumns ingests a batch of ticks in stream-major layout, producing
// exactly the same state, imputed values, and statistics as ticking the rows
// one by one (bit-identical under every profiler). Runs of complete ticks —
// the steady state of a healthy feed — are bulk-appended: one contiguous copy
// per stream into the window backing, which the incremental profiler reads,
// skipping all per-tick dispatch; the profiler's demand-driven aggregates
// then catch up across the whole run at the next consult (per-batch catch-up
// instead of per-tick bookkeeping). Ticks containing missing values fall back
// to the scalar tick at their exact position, sharing reference resolution
// and anchor-selection storage across the batch.
//
// It returns the completed columns and the per-tick results (indexed
// [tick][stream], nil entries as in Tick). Both, and every Result of the
// batch, are engine-owned and valid until the next Tick/TickColumns call.
// The whole batch is validated up front — on error no state is mutated. A
// steady-state batch performs no allocations, provided it imputes no more
// values than there are streams.
func (e *Engine) TickColumns(cols Columns) (Columns, [][]*Result, error) {
	width := e.w.Width()
	if len(cols) != width {
		return nil, nil, fmt.Errorf("core: %d columns != stream count %d", len(cols), width)
	}
	k := len(cols[0])
	for i, col := range cols {
		if len(col) != k {
			return nil, nil, fmt.Errorf("core: column %d (stream %q) has %d ticks, column 0 has %d", i, e.w.Names()[i], len(col), k)
		}
	}
	for i, col := range cols {
		for t, v := range col {
			if math.IsInf(v, 0) {
				return nil, nil, fmt.Errorf("core: batch tick %d: stream %q: non-finite measurement %v (use NaN for missing)", t, e.w.Names()[i], v)
			}
		}
	}
	// Per-tick missing counts, accumulated column by column so every scan is
	// a contiguous pass.
	mpt := e.missingPerTick
	if cap(mpt) < k {
		mpt = make([]int32, k)
	}
	mpt = mpt[:k]
	for t := range mpt {
		mpt[t] = 0
	}
	e.missingPerTick = mpt
	for _, col := range cols {
		col := col[:k:k]
		for t, v := range col {
			if math.IsNaN(v) {
				mpt[t]++
			}
		}
	}
	out := e.colOut
	for len(out) < width {
		out = append(out, nil)
	}
	out = out[:width]
	for i := range out {
		if cap(out[i]) < k {
			out[i] = make([]float64, k)
		}
		out[i] = out[i][:k]
	}
	e.colOut = out
	// Drop the previous batch's Results, then reuse every row allocated so
	// far: rows past the previous batch hold no Results.
	res := e.colRes
	for _, r := range res {
		clear(r)
	}
	res = res[:cap(res)]
	for len(res) < k {
		res = append(res, nil)
	}
	res = res[:k]
	for t := range res {
		if cap(res[t]) < width {
			res[t] = make([]*Result, width)
		}
		res[t] = res[t][:width]
	}
	e.colRes = res
	e.resUsed = 0
	for t := 0; t < k; {
		if mpt[t] == 0 {
			// Maximal run of complete ticks: bulk-append it.
			r := t + 1
			for r < k && mpt[r] == 0 {
				r++
			}
			e.w.AdvanceColumns(cols, t, r)
			e.tick += r - t
			e.Stats.Ticks += r - t
			for i, col := range cols {
				copy(out[i][t:r], col[t:r])
				e.last[i] = col[r-1]
			}
			t = r
			continue
		}
		// Tick with missing values: gather its row and run the scalar tick.
		row := e.rowScratch
		if cap(row) < width {
			row = make([]float64, width)
		}
		row = row[:width]
		for i, col := range cols {
			row[i] = col[t]
		}
		e.rowScratch = row
		if e.out == nil {
			e.out = make([]float64, width)
			e.results = make([]*Result, width)
		}
		e.tickApplied(row, e.out, res[t])
		for i := range cols {
			out[i][t] = e.out[i]
		}
		t++
	}
	if len(e.resPool) > width {
		clear(e.resPool[width:])
		e.resPool = e.resPool[:width]
	}
	e.sweep()
	return out, res, nil
}

// sweep lets the incremental profiler release the aggregates its replay rule
// can no longer use. It runs once the tick's imputations are done, on the
// caller's goroutine, so it never races the worker pool's reads.
func (e *Engine) sweep() {
	if e.inc != nil {
		e.inc.sweep()
	}
}

// imputeMissing imputes the tick's missing streams in three steps, so the
// completed row depends on the raw row alone, not on Config.Workers or on
// the order the streams were declared in:
//
//   - Resolve: every missing stream picks its references against the raw row
//     before any value at tn is written (Sec. 3: the first d candidates
//     present at tn, and an imputed value is not a measurement). Equal
//     reference sets share one job; a stream with fewer than d present
//     candidates is queued for a cold fill.
//   - Select: every job's reference streams are caught up serially, then the
//     jobs' profile assembly and anchor selection — the ~92% phase — run
//     inline, or on the persistent worker pool (started on first use) when
//     Workers > 1 and the tick has several jobs. Each job writes only its own
//     selection slot, and a caught-up profiler is only read.
//   - Aggregate: each target averages its own anchor values (Def. 4) from its
//     job's selection into the next Result of the engine's pool, and the
//     queued streams are cold-filled, serially. Neither reads a value
//     written at tn.
func (e *Engine) imputeMissing(row []float64, missing []int, out []float64, results []*Result) {
	nJobs := 0
	tgts := e.targets[:0]
	for _, i := range missing {
		refIdx, err := e.pickRefsInto(i, e.refIdx[:0])
		e.refIdx = refIdx
		if err != nil {
			tgts = append(tgts, tickTarget{stream: i, job: -1})
			continue
		}
		j := -1
		for x := 0; x < nJobs; x++ {
			if slices.Equal(e.jobs[x].refIdx, refIdx) {
				j = x
				break
			}
		}
		if j < 0 {
			if nJobs == len(e.jobs) {
				e.jobs = append(e.jobs, tickJob{})
			}
			j = nJobs
			e.jobs[j].refIdx = append(e.jobs[j].refIdx[:0], refIdx...)
			nJobs++
		}
		tgts = append(tgts, tickTarget{stream: i, job: j})
	}
	e.targets = tgts
	if e.inc != nil {
		for j := 0; j < nJobs; j++ {
			e.inc.Prepare(e.jobs[j].refIdx)
		}
	}
	if e.cfg.Workers > 1 && nJobs > 1 {
		e.dispatch(nJobs)
	} else {
		for j := 0; j < nJobs; j++ {
			jb := &e.jobs[j]
			jb.err = profileSelectWindow(e.cfg, e.w, jb.refIdx, e.prof, &e.scratch, &jb.sel)
		}
	}
	for _, t := range tgts {
		i := t.stream
		if t.job < 0 {
			e.Stats.ReferenceErrors++
			out[i] = e.coldFill(i, row)
			continue
		}
		jb := &e.jobs[t.job]
		err := jb.err
		var res *Result
		if err == nil {
			res = e.nextResult()
			err = aggregateWindow(e.cfg, e.w, i, &jb.sel, res)
		}
		switch {
		case err == nil:
			e.Stats.Imputations++
			results[i] = res
			out[i] = res.Value
			e.last[i] = res.Value
		case err == ErrInsufficientHistory:
			e.Stats.InsufficientHist++
			out[i] = e.coldFill(i, row)
		default:
			e.Stats.ReferenceErrors++
			out[i] = e.coldFill(i, row)
		}
	}
}

// nextResult takes the next Result of the engine's pool, growing the pool
// when every Result is taken.
func (e *Engine) nextResult() *Result {
	if e.resUsed == len(e.resPool) {
		e.resPool = append(e.resPool, &Result{})
	}
	e.resUsed++
	return e.resPool[e.resUsed-1]
}

// pickRefsInto resolves the reference set for the stream at index i into dst
// (reusing its storage), ranking candidates from the retained window on
// first use.
func (e *Engine) pickRefsInto(i int, dst []int) ([]int, error) {
	name := e.w.Names()[i]
	rs, ok := e.refs[name]
	if !ok {
		rs = e.rankFromWindow(name)
		e.refs[name] = rs
	}
	return rs.PickInto(e.w, e.cfg.D, dst)
}

// coldFill fills a missing value while TKCM is not applicable: it carries
// the last known value forward, falling back to the mean of the values
// present in the tick's raw row, then to 0. The cold-start path exists only
// for the first ticks of a stream's life; experiments always warm the window
// before injecting missing blocks.
func (e *Engine) coldFill(i int, row []float64) float64 {
	e.Stats.ColdStartFills++
	v := e.last[i]
	if !math.IsNaN(v) {
		e.w.SetCurrent(i, v)
		return v
	}
	// row[i] is missing, so the mean covers the other streams. It sums
	// them in ascending order, so its last bit does not depend on the
	// order the streams were declared in.
	vals := e.coldVals[:0]
	for _, rv := range row {
		if !math.IsNaN(rv) {
			vals = append(vals, rv)
		}
	}
	e.coldVals = vals
	slices.Sort(vals)
	sum := 0.0
	for _, rv := range vals {
		sum += rv
	}
	if len(vals) > 0 {
		v = sum / float64(len(vals))
	} else {
		v = 0
	}
	e.w.SetCurrent(i, v)
	return v
}

// rankFromWindow builds a correlation-ranked reference set for name from the
// retained window contents, read in place through the backing views.
func (e *Engine) rankFromWindow(name string) ReferenceSet {
	hists := make([][]float64, e.w.Width())
	for j := range hists {
		hist, start := e.w.Backing(j)
		hists[j] = hist[start : start+e.w.Filled()]
	}
	tvals := hists[e.w.IndexOf(name)]
	return ReferenceSet{Stream: name, Candidates: rankByCorrelation(tvals, e.w.Names(), hists, name)}
}
