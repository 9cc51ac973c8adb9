// Package tkcm is a streaming missing-value imputation library implementing
// Top-k Case Matching (Wellenzohn, Böhlen, Dignös, Gamper & Mitterer:
// "Continuous Imputation of Missing Values in Streams of Pattern-Determining
// Time Series", EDBT 2017), together with the baselines the paper evaluates
// against (SPIRIT, MUSCLES, centroid decomposition, and classic single-series
// imputers).
//
// # Quickstart
//
//	cfg := tkcm.DefaultConfig()
//	cfg.WindowLength = 4032 // two weeks at 5-minute sampling
//
//	eng, err := tkcm.NewEngine(cfg, []string{"s", "r1", "r2", "r3"}, nil)
//	if err != nil { ... }
//	for rows.Next() {
//		completed, results, err := eng.Tick(rows.Values()) // NaN = missing
//		...
//	}
//
// The engine keeps a sliding window of the last L ticks per stream and
// imputes every missing value the moment it arrives, so the retained history
// is always complete (the paper's continuous-imputation setting). One-shot
// imputation over slices is available via Impute; bulk ingest via
// Engine.TickColumns.
//
// # Pattern extraction strategies
//
// Computing the dissimilarity profile (pattern extraction) dominates TKCM's
// runtime — the paper measures it at ~92% (Sec. 7.4) and names speeding it
// up as the main future-work direction (Sec. 8). Config.Profiler selects
// the implementation:
//
//   - ProfilerNaive — the paper's Def. 2 loop, O(d·l·L) per profile, all
//     norms.
//   - ProfilerFFT — FFT cross-correlation, O(d·L·log L), L2 only.
//   - ProfilerIncremental — engine-maintained float64 aggregates,
//     demand-driven: recording a tick is O(1) per stream, and a stream's
//     aggregates are caught up only when it is consulted as a reference, so
//     on wide stream sets untouched streams cost nothing. L2 only.
//   - ProfilerAuto (default) — incremental in the streaming engine, naive
//     for one-shot slice imputations.
//
// All implementations produce identical imputations up to floating-point
// rounding; equivalence is enforced by tests.
//
// # Engine hot path
//
// Within one tick, every missing stream's references are resolved against
// the raw row, and reference aggregates and anchor selections are shared:
// each reference stream is caught up at most once, and missing streams
// with identical reference sets run pattern extraction and the selection
// DP once (one job) and only aggregate their own anchor values.
// Config.Workers > 1 fans a tick's jobs out across a persistent worker pool
// (call Engine.Close when discarding such an engine); the output is the
// same either way, and whatever order the streams were declared in.
// Engine.Tick returns engine-owned buffers (valid until the next tick),
// among them a Result with the anchors, δ and ε of every TKCM imputation,
// and a steady-state tick performs zero allocations, whether or not it
// imputes.
//
// TKCM's key property: imputation quality does not depend on linear
// correlation between streams. By matching a two-dimensional pattern of the
// last l measurements across d reference streams, it recovers values
// correctly even when references are phase shifted (Pearson ≈ 0), where
// regression- and decomposition-based methods degrade.
//
// # Persistence and serving
//
// Engine.Snapshot writes a versioned binary image of the engine (config,
// reference sets, retained windows, counters) and RestoreEngine rebuilds a
// continuing engine from it, so long-running streams survive process
// restarts. cmd/tkcm-serve wraps engines in a sharded multi-tenant HTTP
// service with NDJSON streaming ingest and periodic checkpoints built on
// exactly these two calls (see the README's Architecture section).
package tkcm

import (
	"io"

	"tkcm/internal/core"
	"tkcm/internal/timeseries"
)

// Missing is the missing-value marker (NaN). Feed it to Engine.Tick for
// absent measurements.
var Missing = timeseries.Missing

// IsMissing reports whether v denotes a missing measurement.
func IsMissing(v float64) bool { return timeseries.IsMissing(v) }

// Config holds TKCM's parameters (paper Table 1): K anchor points,
// PatternLength l, D reference series, WindowLength L, plus the dissimilarity
// norm and anchor-selection strategy.
type Config = core.Config

// Norm selects the pattern dissimilarity norm.
type Norm = core.Norm

// Dissimilarity norms. L2 is the paper's Def. 2; L1 and LInf are the Sec. 8
// future-work alternatives.
const (
	L2   = core.L2
	L1   = core.L1
	LInf = core.LInf
)

// ProfilerKind selects the pattern-extraction strategy (see the package
// documentation); set it via Config.Profiler.
type ProfilerKind = core.ProfilerKind

// Pattern-extraction strategies. ProfilerAuto picks the incremental
// profiler in the streaming engine and the naive Def. 2 loop for one-shot
// slice imputations; non-L2 norms always degrade to naive.
const (
	ProfilerAuto        = core.ProfilerAuto
	ProfilerNaive       = core.ProfilerNaive
	ProfilerFFT         = core.ProfilerFFT
	ProfilerIncremental = core.ProfilerIncremental
)

// ParseProfilerKind maps a flag value ("auto", "naive", "fft",
// "incremental") to its ProfilerKind.
func ParseProfilerKind(s string) (ProfilerKind, error) { return core.ParseProfilerKind(s) }

// Selection selects the anchor-selection strategy.
type Selection = core.Selection

// Anchor selection strategies. SelectDP is the paper's dynamic program;
// the others are ablations.
const (
	SelectDP          = core.SelectDP
	SelectGreedy      = core.SelectGreedy
	SelectOverlapping = core.SelectOverlapping
)

// Result describes one imputation: the value, the chosen anchor points, and
// the pattern-determining diagnostics (ε of Def. 5).
type Result = core.Result

// ReferenceSet is the ordered candidate reference series of one stream.
type ReferenceSet = core.ReferenceSet

// Columns is a stream-major batch of ticks for Engine.TickColumns:
// Columns[i][t] is stream i's measurement at the t-th tick of the batch
// (Missing/NaN = absent). All columns must have equal length. It is the
// layout the columnar ingest hot path consumes without further shuffling.
type Columns = core.Columns

// Engine performs continuous imputation over a set of co-evolving streams.
// Feed it one row per tick (Tick) or many at once (TickColumns, the
// allocation-free columnar path); select the extraction strategy with
// Config.Profiler and intra-tick parallelism with Config.Workers.
type Engine = core.Engine

// EngineStats counts engine activity.
type EngineStats = core.EngineStats

// DefaultConfig returns the paper's calibrated defaults (Sec. 7.2):
// d = 3, k = 5, l = 72, L = 105120 (one year at 5-minute sampling).
func DefaultConfig() Config { return core.DefaultConfig() }

// NewEngine creates a continuous-imputation engine over the named streams.
// refs maps a stream name to its ordered candidate reference series (best
// first); streams without an entry get a correlation-ranked reference set
// automatically on their first missing value.
func NewEngine(cfg Config, names []string, refs map[string]ReferenceSet) (*Engine, error) {
	return core.NewEngine(cfg, names, refs)
}

// RestoreEngine reconstructs an engine from an Engine.Snapshot image. The
// restored engine resumes exactly where the snapshotted one left off;
// subsequent imputations match an uninterrupted engine within ~1e-9.
func RestoreEngine(r io.Reader) (*Engine, error) {
	return core.RestoreEngine(r)
}

// Impute recovers the missing last value of series s. s and every refs[i]
// hold the retained window (oldest first, equal lengths); the last element
// of s is the missing value being recovered and is ignored. The reference
// windows must be complete.
func Impute(cfg Config, s []float64, refs [][]float64) (*Result, error) {
	return core.Impute(cfg, s, refs)
}

// RankReferences orders the candidate streams for target by descending
// absolute Pearson correlation with it over the supplied aligned histories —
// a data-driven substitute for the paper's expert-provided rankings.
func RankReferences(target string, histories map[string][]float64) ReferenceSet {
	return core.RankCandidates(target, histories)
}
