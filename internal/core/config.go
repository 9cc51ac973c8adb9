// Package core implements Top-k Case Matching (TKCM), the paper's primary
// contribution: continuous imputation of missing values in streams of
// pattern-determining time series.
//
// To impute a missing value s(tn), TKCM
//
//  1. extracts the query pattern P(tn) — the last l values of each of the d
//     reference time series (Def. 1),
//  2. computes the dissimilarity of every candidate pattern in the streaming
//     window to P(tn) (Def. 2),
//  3. selects the k most similar non-overlapping anchor points via dynamic
//     programming (Def. 3, Eq. 5), and
//  4. imputes the missing value as the mean of s at those anchors (Def. 4).
//
// The package exposes both a slice-based imputation primitive (Impute) and a
// streaming-window form mirroring the paper's Algorithm 1 (ImputeWindow), plus diagnostics for the pattern-determining property of
// Sec. 5.3 and ablation variants (greedy selection, overlapping anchors,
// alternative norms, weighted means) that PAPER-MAP.md maps to the paper.
package core

import (
	"errors"
	"fmt"
)

// Norm selects the dissimilarity aggregation between two patterns. The paper
// uses the L2 norm (Def. 2); L1 and L∞ are the Sec. 8 future-work
// alternatives, implemented here for the ablation benches.
type Norm int

const (
	// L2 is the Euclidean pattern dissimilarity of Def. 2 (paper default).
	L2 Norm = iota
	// L1 sums absolute coordinate differences.
	L1
	// LInf takes the maximum absolute coordinate difference.
	LInf
)

// String returns the conventional name of the norm.
func (n Norm) String() string {
	switch n {
	case L2:
		return "L2"
	case L1:
		return "L1"
	case LInf:
		return "LInf"
	default:
		return fmt.Sprintf("Norm(%d)", int(n))
	}
}

// Selection chooses how the k anchors are picked from the dissimilarity
// profile.
type Selection int

const (
	// SelectDP is the paper's dynamic program (Eq. 5): the k non-overlapping
	// patterns minimizing the sum of dissimilarities.
	SelectDP Selection = iota
	// SelectGreedy sorts anchors by dissimilarity and keeps the first k that
	// do not overlap. Sec. 6.1 shows this fails to minimize the sum; it is
	// retained as an ablation.
	SelectGreedy
	// SelectOverlapping picks the k smallest dissimilarities with no
	// non-overlap constraint. Sec. 4.1 argues this collapses onto near
	// duplicates; retained as an ablation.
	SelectOverlapping
)

// String returns a short name for the selection strategy.
func (s Selection) String() string {
	switch s {
	case SelectDP:
		return "dp"
	case SelectGreedy:
		return "greedy"
	case SelectOverlapping:
		return "overlapping"
	default:
		return fmt.Sprintf("Selection(%d)", int(s))
	}
}

// Config holds TKCM's parameters, named exactly as in Table 1.
type Config struct {
	// K is the number of anchor points (paper default 5, Sec. 7.2).
	K int
	// L is the pattern length l (paper default 72 ≙ 6h at 5-min sampling).
	PatternLength int
	// D is the number of reference time series consulted (paper default 3).
	D int
	// WindowLength is the streaming window length L (paper default 1 year =
	// 105120 ticks at 5-minute sampling).
	WindowLength int
	// Norm is the pattern dissimilarity norm (default L2, Def. 2).
	Norm Norm
	// Selection is the anchor selection strategy (default SelectDP).
	Selection Selection
	// WeightedMean, when true, weights each anchor value by the inverse of
	// its pattern dissimilarity instead of the plain mean of Def. 4
	// (Troyanskaya-style weighting discussed in Sec. 2).
	WeightedMean bool
	// Profiler selects the pattern-extraction strategy — the implementation
	// of the dissimilarity profile (Def. 2) that dominates TKCM's runtime
	// (Sec. 7.4 reports ~92%). ProfilerAuto (zero value) picks the
	// incremental profiler in the streaming engine and the naive loop for
	// one-shot slice imputations; see ProfilerKind for the full matrix.
	// Non-L2 norms always degrade to the naive loop, the only
	// implementation that supports them.
	Profiler ProfilerKind
	// Workers bounds the goroutines one Engine.Tick uses for the pattern
	// extraction and anchor selection of its missing streams. 0 or 1 runs a
	// tick's jobs (one per distinct reference set) inline; values above 1
	// start a persistent worker pool on first use and fan a tick's jobs out
	// across it when there are several. It changes speed only, never the
	// output (see Engine.Tick). Call Engine.Close to stop the pool when
	// discarding an engine.
	Workers int
}

// DefaultConfig returns the calibrated defaults of Sec. 7.2: d = 3 reference
// series, k = 5 anchors, pattern length l = 72, window L = 1 year of 5-minute
// ticks.
func DefaultConfig() Config {
	return Config{
		K:             5,
		PatternLength: 72,
		D:             3,
		WindowLength:  105120,
		Norm:          L2,
		Selection:     SelectDP,
	}
}

// Bounds on configuration dimensions that size eager allocations. They keep
// Validate and the snapshot restore path symmetric: every engine that
// NewEngine accepts can be snapshotted and restored, and a crafted snapshot
// image cannot demand absurd allocations through a huge decoded Config.
// MaxWindowLength is ~160× the paper's two-year hourly window (105120) yet
// bounds one stream's window at 128 MiB; no machine has 2^16 cores.
// MaxWindowCells bounds streams × WindowLength, the window values an engine
// retains: 2^27 cells are 1 GiB of window values, about 1.25 GiB of window
// backing from the first tick (L + l + L/4 per stream, at most 1.75 GiB as
// l ≤ L/2) and at most 3.25 GiB of history when every stream served as a
// reference within about the last l ticks (see Engine.MemoryBytes), or 1,276
// streams at DefaultConfig's window. A create request or a snapshot of a few
// KB can name thousands of streams at the maximum window length; this is
// what keeps it from asking for terabytes.
// MaxWindowCells also bounds the Eq. 5 selection's k·(L − 2l + 2) cells:
// every imputation fills each cell and keeps a take bit per cell for the
// backtrack, so the bound caps a selection at 2^27 cell fills and 16 MiB of
// take bits. Without it a 2-stream engine at L = 2^24, l = 1 could ask for
// k = 2^23 anchors, 2^47 cells. DefaultConfig selects over 5 × 104,978 =
// 524,890 cells.
const (
	MaxWindowLength = 1 << 24
	MaxWorkers      = 1 << 16
	MaxWindowCells  = 1 << 27
)

// Validate reports the first violated constraint, or nil. The window must be
// long enough to contain the query pattern plus k non-overlapping candidate
// patterns: L ≥ (k+1)·l + (l-1) ⇒ candidates = L − 2l + 1 ≥ k·l − (l−1)
// would be the tight bound; we enforce the simpler sufficient condition from
// Def. 3 that at least k candidate anchors exist and k disjoint patterns fit.
func (c Config) Validate() error {
	if c.K <= 0 {
		return fmt.Errorf("core: k must be positive, got %d", c.K)
	}
	if c.PatternLength <= 0 {
		return fmt.Errorf("core: pattern length l must be positive, got %d", c.PatternLength)
	}
	if c.D <= 0 {
		return fmt.Errorf("core: number of reference series d must be positive, got %d", c.D)
	}
	if c.WindowLength <= 0 {
		return fmt.Errorf("core: window length L must be positive, got %d", c.WindowLength)
	}
	if c.WindowLength > MaxWindowLength {
		return fmt.Errorf("core: window length L=%d exceeds the maximum %d", c.WindowLength, MaxWindowLength)
	}
	candidates := c.WindowLength - 2*c.PatternLength + 1
	if candidates < 1 {
		return fmt.Errorf("core: window length L=%d too short for pattern length l=%d (need L ≥ 2l)", c.WindowLength, c.PatternLength)
	}
	// k non-overlapping patterns of length l need (k-1)·l + 1 candidate
	// anchor positions.
	if candidates < (c.K-1)*c.PatternLength+1 {
		return fmt.Errorf("core: window length L=%d cannot host k=%d non-overlapping patterns of length l=%d", c.WindowLength, c.K, c.PatternLength)
	}
	// Eq. 5 fills k × (candidates+1) cells per imputation, a take bit each.
	if c.K > MaxWindowCells/(candidates+1) {
		return fmt.Errorf("core: k=%d anchors over L − 2l + 2 = %d columns exceed %d Eq. 5 cells (MaxWindowCells): every imputation fills each cell and keeps a take bit per cell",
			c.K, candidates+1, MaxWindowCells)
	}
	if c.Profiler < ProfilerAuto || c.Profiler > ProfilerIncremental {
		return fmt.Errorf("core: unknown profiler kind %d", int(c.Profiler))
	}
	if c.Workers < 0 {
		return fmt.Errorf("core: workers must be non-negative, got %d", c.Workers)
	}
	if c.Workers > MaxWorkers {
		return fmt.Errorf("core: workers %d exceeds the maximum %d", c.Workers, MaxWorkers)
	}
	return nil
}

// ErrInsufficientHistory is returned when the streaming window does not yet
// retain enough complete ticks to form the query pattern and k candidates.
var ErrInsufficientHistory = errors.New("core: insufficient history in streaming window")

// ErrMissingInQueryPattern is returned when a reference series lacks a value
// inside the query pattern and no imputed value is available. Under
// continuous imputation this cannot happen (older ticks are always imputed
// first); it guards incorrect offline use.
var ErrMissingInQueryPattern = errors.New("core: missing value inside query pattern")
