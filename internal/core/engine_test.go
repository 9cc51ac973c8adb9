package core

import (
	"fmt"
	"math"
	"math/rand/v2"
	"runtime"
	"slices"
	"strings"
	"testing"

	"tkcm/internal/stats"
	"tkcm/internal/window"
)

// newTable2Window loads the running example into a streaming window with
// streams [s, r1, r2, r3] and s(14:20) missing.
func newTable2Window(t *testing.T) *window.Window {
	t.Helper()
	w := window.New(12, 24, 0, "s", "r1", "r2", "r3")
	for i := 0; i < 12; i++ {
		sv := table2S[i]
		if i == 11 {
			sv = math.NaN()
		}
		w.Advance([]float64{sv, table2R1[i], table2R2[i], table2R3[i]})
	}
	return w
}

// TestReferencePick replicates Example 1: with candidates ⟨r1, r2, r3⟩ and
// d = 2, the reference set is {r1, r2} when all are present, and {r1, r3}
// when r2 is missing at the current time.
func TestReferencePick(t *testing.T) {
	rs := ReferenceSet{Stream: "s", Candidates: []string{"r1", "r2", "r3"}}

	w := newTable2Window(t)
	idx, err := rs.Pick(w, 2)
	if err != nil {
		t.Fatal(err)
	}
	if len(idx) != 2 || idx[0] != w.IndexOf("r1") || idx[1] != w.IndexOf("r2") {
		t.Fatalf("picked %v, want [r1 r2]", idx)
	}

	// Now make r2's current value missing: the pick must fall through to r3.
	w.SetCurrent(w.IndexOf("r2"), math.NaN())
	idx, err = rs.Pick(w, 2)
	if err != nil {
		t.Fatal(err)
	}
	if len(idx) != 2 || idx[0] != w.IndexOf("r1") || idx[1] != w.IndexOf("r3") {
		t.Fatalf("picked %v, want [r1 r3]", idx)
	}
}

func TestReferencePickErrors(t *testing.T) {
	w := newTable2Window(t)
	rs := ReferenceSet{Stream: "s", Candidates: []string{"r1", "nope"}}
	if _, err := rs.Pick(w, 2); err == nil {
		t.Fatal("unknown candidate accepted")
	}
	rs = ReferenceSet{Stream: "s", Candidates: []string{"r1"}}
	if _, err := rs.Pick(w, 2); err == nil {
		t.Fatal("too few candidates accepted")
	}
}

func TestRankCandidates(t *testing.T) {
	n := 200
	target := make([]float64, n)
	linear := make([]float64, n)
	noisy := make([]float64, n)
	anti := make([]float64, n)
	state := uint64(42)
	next := func() float64 {
		state ^= state << 13
		state ^= state >> 7
		state ^= state << 17
		return float64(state%1000)/500 - 1
	}
	for i := 0; i < n; i++ {
		base := math.Sin(float64(i) / 7)
		target[i] = base
		linear[i] = 2*base + 1   // |ρ| = 1
		anti[i] = -base          // |ρ| = 1 (negative correlation still useful)
		noisy[i] = base + next() // weaker correlation
	}
	rs := RankCandidates("t", map[string][]float64{
		"t": target, "linear": linear, "noisy": noisy, "anti": anti,
	})
	if rs.Stream != "t" || len(rs.Candidates) != 3 {
		t.Fatalf("unexpected reference set %+v", rs)
	}
	// linear and anti tie at |ρ| = 1 and sort by name; noisy comes last.
	if rs.Candidates[2] != "noisy" {
		t.Fatalf("ranking = %v, want noisy last", rs.Candidates)
	}
	if rs.Candidates[0] != "anti" || rs.Candidates[1] != "linear" {
		t.Fatalf("ranking = %v, want [anti linear ...] (tie broken by name)", rs.Candidates)
	}
}

func TestRankCandidatesUnknownTarget(t *testing.T) {
	rs := RankCandidates("missing", map[string][]float64{"a": {1, 2}})
	if len(rs.Candidates) != 0 {
		t.Fatalf("expected empty ranking, got %v", rs.Candidates)
	}
}

// rankInsertionSort is RankCandidates as it was before it sorted: scores
// from a map of histories, ordered by an insertion sort on the same key. It
// is the oracle for the O(n log n) ranking.
func rankInsertionSort(target string, histories map[string][]float64) []string {
	tvals, ok := histories[target]
	if !ok {
		return nil
	}
	type scored struct {
		name  string
		score float64
	}
	var cands []scored
	for name, vals := range histories {
		if name == target {
			continue
		}
		score := math.Abs(stats.Pearson(tvals, vals))
		if math.IsNaN(score) {
			score = -1
		}
		cands = append(cands, scored{name, score})
	}
	for i := 1; i < len(cands); i++ {
		for j := i; j > 0; j-- {
			a, b := cands[j-1], cands[j]
			if b.score > a.score || (b.score == a.score && b.name < a.name) {
				cands[j-1], cands[j] = b, a
			} else {
				break
			}
		}
	}
	var out []string
	for _, c := range cands {
		out = append(out, c.name)
	}
	return out
}

// randomHistories draws width aligned histories of length n built to tie:
// copies and negated copies of earlier streams (equal |ρ|), constant streams
// (NaN ρ), values quantized to a few levels, and scattered missing values.
func randomHistories(rng *rand.Rand, width, n int) ([]string, [][]float64) {
	names := make([]string, width)
	hists := make([][]float64, width)
	for j := range hists {
		names[j] = fmt.Sprintf("s%02d", rng.IntN(100)*100+j) // distinct, not in index order
		h := make([]float64, n)
		switch kind := rng.IntN(5); {
		case kind == 0 && j > 0:
			src := hists[rng.IntN(j)]
			sign := float64(1 - 2*rng.IntN(2))
			for i := range h {
				h[i] = sign * src[i]
			}
		case kind == 1:
			c := float64(rng.IntN(3))
			for i := range h {
				h[i] = c
			}
		default:
			for i := range h {
				h[i] = float64(rng.IntN(4))
				if rng.IntN(10) == 0 {
					h[i] = math.NaN()
				}
			}
		}
		hists[j] = h
	}
	return names, hists
}

// TestRankCandidatesMatchesInsertionSort checks the sorted ranking against
// its insertion-sort oracle on random tie-heavy histories, through both
// entry points: RankCandidates over a map, and the engine's ranking over
// its window's backing views.
func TestRankCandidatesMatchesInsertionSort(t *testing.T) {
	rng := rand.New(rand.NewPCG(23, 4))
	for trial := 0; trial < 300; trial++ {
		width, n := 1+rng.IntN(12), rng.IntN(40)
		names, hists := randomHistories(rng, width, n)
		histories := make(map[string][]float64, width)
		for j, name := range names {
			histories[name] = hists[j]
		}
		for _, target := range names {
			got := RankCandidates(target, histories).Candidates
			if want := rankInsertionSort(target, histories); !slices.Equal(got, want) {
				t.Fatalf("trial %d target %s: ranking %v, oracle %v", trial, target, got, want)
			}
		}

		if n == 0 {
			continue
		}
		cfg := DefaultConfig()
		cfg.K, cfg.PatternLength, cfg.D, cfg.WindowLength = 1, 1, 1, 4+rng.IntN(n)
		e, err := NewEngine(cfg, names, nil)
		if err != nil {
			t.Fatal(err)
		}
		row := make([]float64, width)
		for i := 0; i < n; i++ {
			for j := range row {
				row[j] = hists[j][i]
			}
			// A missing value imputes (and ranks); the oracle below reads
			// whatever the window holds, imputed values included.
			if _, _, err := e.Tick(row); err != nil {
				t.Fatal(err)
			}
		}
		window := make(map[string][]float64, width)
		for j, name := range names {
			window[name] = e.w.Snapshot(j)
		}
		for _, target := range names {
			got := e.rankFromWindow(target)
			if want := rankInsertionSort(target, window); got.Stream != target || !slices.Equal(got.Candidates, want) {
				t.Fatalf("trial %d target %s: window ranking %v, oracle %v", trial, target, got.Candidates, want)
			}
		}
	}
}

// TestRankFromWindowAllocs pins the engine's ranking at a constant number of
// allocations, whatever the width: it reads the window in place instead of
// copying every stream's history.
func TestRankFromWindowAllocs(t *testing.T) {
	var counts []float64
	for _, width := range []int{4, 64, 1024} {
		names := make([]string, width)
		for j := range names {
			names[j] = fmt.Sprintf("s%d", j)
		}
		cfg := DefaultConfig()
		cfg.K, cfg.PatternLength, cfg.D, cfg.WindowLength = 2, 3, 2, 32
		e, err := NewEngine(cfg, names, nil)
		if err != nil {
			t.Fatal(err)
		}
		row := make([]float64, width)
		for i := 0; i < 40; i++ {
			for j := range row {
				row[j] = math.Sin(float64(i*width + j))
			}
			if _, _, err := e.Tick(row); err != nil {
				t.Fatal(err)
			}
		}
		counts = append(counts, testing.AllocsPerRun(5, func() { e.rankFromWindow("s1") }))
	}
	if counts[0] > 3 || counts[1] != counts[0] || counts[2] != counts[0] {
		t.Fatalf("rankFromWindow allocations at widths 4, 64, 1024: %v; want the same, at most 3", counts)
	}
}

// TestEngineContinuousImputation streams phase-shifted sines with scattered
// missing values in the target and checks TKCM recovers them accurately once
// the window is warm.
func TestEngineContinuousImputation(t *testing.T) {
	const period = 120
	const n = 6 * period
	cfg := Config{K: 3, PatternLength: 20, D: 2, WindowLength: 4 * period, Norm: L2, Selection: SelectDP}
	refs := map[string]ReferenceSet{
		"s": {Stream: "s", Candidates: []string{"r1", "r2"}},
	}
	eng, err := NewEngine(cfg, []string{"s", "r1", "r2"}, refs)
	if err != nil {
		t.Fatal(err)
	}
	var worst float64
	imputations := 0
	for i := 0; i < n; i++ {
		ph := 2 * math.Pi * float64(i) / period
		truth := math.Sin(ph)
		sVal := truth
		// Drop every 7th tick of s once the window holds k full periods, so
		// k exact historical matches exist (Lemma 5.3 needs L ≥ kP + l).
		missing := i >= cfg.WindowLength+period/2 && i%7 == 0
		if missing {
			sVal = math.NaN()
		}
		row := []float64{sVal, math.Sin(ph - 1), math.Cos(ph + 0.5)}
		out, results, err := eng.Tick(row)
		if err != nil {
			t.Fatal(err)
		}
		if missing && results[0] != nil {
			imputations++
			if e := math.Abs(out[0] - truth); e > worst {
				worst = e
			}
		}
	}
	if imputations == 0 {
		t.Fatal("engine never imputed")
	}
	if worst > 1e-6 {
		t.Fatalf("worst imputation error %v, want ≈ 0 on noiseless sines", worst)
	}
	if eng.Stats.Imputations != imputations {
		t.Fatalf("stats.Imputations = %d, want %d", eng.Stats.Imputations, imputations)
	}
}

// TestEngineColdStart: missing values before the window is warm are filled
// by carry-forward, not TKCM.
func TestEngineColdStart(t *testing.T) {
	cfg := Config{K: 2, PatternLength: 3, D: 1, WindowLength: 30, Norm: L2}
	eng, err := NewEngine(cfg, []string{"s", "r"}, map[string]ReferenceSet{
		"s": {Stream: "s", Candidates: []string{"r"}},
	})
	if err != nil {
		t.Fatal(err)
	}
	out, results, err := eng.Tick([]float64{5, 1})
	if err != nil {
		t.Fatal(err)
	}
	if out[0] != 5 {
		t.Fatalf("present value altered: %v", out[0])
	}
	out, results, err = eng.Tick([]float64{math.NaN(), 2})
	if err != nil {
		t.Fatal(err)
	}
	if results[0] != nil {
		t.Fatal("TKCM ran without enough history")
	}
	if out[0] != 5 {
		t.Fatalf("cold fill = %v, want carry-forward 5", out[0])
	}
	if eng.Stats.ColdStartFills != 1 || eng.Stats.InsufficientHist != 1 {
		t.Fatalf("unexpected stats %+v", eng.Stats)
	}
}

// TestEngineColdStartNoHistory: a stream that starts missing falls back to
// the row mean of the other streams, to the last bit the same whatever order
// the streams were declared in (summed in declaration order, {0.1, 0.2, 0.3}
// and {0.3, 0.2, 0.1} differ in the last bit).
func TestEngineColdStartNoHistory(t *testing.T) {
	cfg := Config{K: 2, PatternLength: 3, D: 1, WindowLength: 30, Norm: L2}
	for _, tc := range []struct {
		row  []float64 // the first row, in the order "s", "a", "b", ...
		want float64
	}{
		{[]float64{math.NaN(), 4, 8}, 6},
		{[]float64{math.NaN(), 0.1, 0.2, 0.3}, (0.1 + 0.2 + 0.3) / 3},
	} {
		names := []string{"s", "a", "b", "c"}[:len(tc.row)]
		var fills []uint64
		for _, reversed := range []bool{false, true} {
			declared := slices.Clone(names)
			row := slices.Clone(tc.row)
			if reversed {
				slices.Reverse(declared)
				slices.Reverse(row)
			}
			eng, err := NewEngine(cfg, declared, nil)
			if err != nil {
				t.Fatal(err)
			}
			out, _, err := eng.Tick(row)
			if err != nil {
				t.Fatal(err)
			}
			fills = append(fills, math.Float64bits(out[slices.Index(declared, "s")]))
		}
		if fills[0] != fills[1] {
			t.Fatalf("row %v: fallback fill %#x declared in order, %#x declared in reverse", tc.row, fills[0], fills[1])
		}
		if got := math.Float64frombits(fills[0]); math.Abs(got-tc.want) > 1e-15 {
			t.Fatalf("row %v: fallback fill = %v, want row mean %v", tc.row, got, tc.want)
		}
	}
}

func TestEngineAutoRanksReferences(t *testing.T) {
	const period = 60
	cfg := Config{K: 2, PatternLength: 10, D: 1, WindowLength: 3 * period, Norm: L2}
	eng, err := NewEngine(cfg, []string{"s", "good", "junk"}, nil)
	if err != nil {
		t.Fatal(err)
	}
	state := uint64(9)
	next := func() float64 {
		state ^= state << 13
		state ^= state >> 7
		state ^= state << 17
		return float64(state%1000)/500 - 1
	}
	for i := 0; i < 5*period; i++ {
		ph := 2 * math.Pi * float64(i) / period
		sv := math.Sin(ph)
		if i == 5*period-1 {
			sv = math.NaN()
		}
		if _, _, err := eng.Tick([]float64{sv, math.Sin(ph), next()}); err != nil {
			t.Fatal(err)
		}
	}
	if eng.Stats.Imputations != 1 {
		t.Fatalf("imputations = %d, want 1", eng.Stats.Imputations)
	}
	// The auto-ranked reference must be the correlated stream.
	truth := math.Sin(2 * math.Pi * float64(5*period-1) / period)
	got := eng.Window().Current(0)
	if math.Abs(got-truth) > 0.05 {
		t.Fatalf("imputed %v, want ≈ %v — auto-ranking likely picked the junk reference", got, truth)
	}
}

// warmEngine builds an engine over width streams (first half targets with
// reference sets into the always-present second half) and streams warm ticks
// until the window is full.
func warmEngine(t testing.TB, cfg Config, width int) (*Engine, []float64) {
	t.Helper()
	names := make([]string, width)
	for i := range names {
		names[i] = fmt.Sprintf("s%d", i)
	}
	refs := make(map[string]ReferenceSet, width/2)
	for i := 0; i < width/2; i++ {
		refs[names[i]] = ReferenceSet{Stream: names[i], Candidates: names[width/2:]}
	}
	eng, err := NewEngine(cfg, names, refs)
	if err != nil {
		t.Fatal(err)
	}
	row := make([]float64, width)
	for tick := 0; tick < cfg.WindowLength+8; tick++ {
		ph := 2 * math.Pi * float64(tick) / 48
		for j := range row {
			row[j] = math.Sin(ph + 0.3*float64(j))
		}
		if _, _, err := eng.Tick(row); err != nil {
			t.Fatal(err)
		}
	}
	return eng, row
}

// TestTickNothingMissingZeroAllocs pins the nothing-missing fast path: a
// steady-state Tick over a complete row must not allocate, whatever the
// profiler, so impute-free ingest is pure window appends.
func TestTickNothingMissingZeroAllocs(t *testing.T) {
	for _, kind := range []ProfilerKind{ProfilerIncremental, ProfilerNaive} {
		t.Run(kind.String(), func(t *testing.T) {
			cfg := Config{K: 3, PatternLength: 6, D: 2, WindowLength: 144, Profiler: kind}
			eng, row := warmEngine(t, cfg, 8)
			defer eng.Close()
			if allocs := testing.AllocsPerRun(200, func() {
				if _, _, err := eng.Tick(row); err != nil {
					t.Fatal(err)
				}
			}); allocs != 0 {
				t.Fatalf("nothing-missing Tick performed %v allocations, want 0", allocs)
			}
		})
	}
}

// TestTickImputingZeroAllocs pins the imputing tick end to end under the
// default config: once the scratch buffers and the engine's Result pool are
// warm, a tick that imputes two streams through the incremental profiler
// performs no allocations and hands out a Result for each, inline and on the
// worker pool (which adds only channel traffic).
func TestTickImputingZeroAllocs(t *testing.T) {
	for _, tc := range []struct {
		name    string
		workers int
	}{{"inline", 0}, {"workers2", 2}} {
		t.Run(tc.name, func(t *testing.T) {
			cfg := Config{K: 3, PatternLength: 6, D: 2, WindowLength: 144, Workers: tc.workers}
			eng, row := warmEngine(t, cfg, 8)
			defer eng.Close()
			missingRow := append([]float64(nil), row...)
			missingRow[0] = math.NaN()
			missingRow[2] = math.NaN()
			// One warm run to grow every scratch buffer.
			if _, _, err := eng.Tick(missingRow); err != nil {
				t.Fatal(err)
			}
			if allocs := testing.AllocsPerRun(200, func() {
				out, results, err := eng.Tick(missingRow)
				if err != nil {
					t.Fatal(err)
				}
				for _, i := range []int{0, 2} {
					if math.IsNaN(out[i]) {
						t.Fatalf("stream %d left unfilled", i)
					}
					if results[i] == nil || results[i].Value != out[i] || len(results[i].Anchors) != cfg.K {
						t.Fatalf("stream %d: result %+v for imputed value %v", i, results[i], out[i])
					}
				}
			}); allocs != 0 {
				t.Fatalf("imputing Tick performed %v allocations, want 0", allocs)
			}
		})
	}
}

func TestEngineRowWidthMismatch(t *testing.T) {
	cfg := Config{K: 2, PatternLength: 3, D: 1, WindowLength: 30}
	eng, err := NewEngine(cfg, []string{"a", "b"}, nil)
	if err != nil {
		t.Fatal(err)
	}
	if _, _, err := eng.Tick([]float64{1}); err == nil {
		t.Fatal("row width mismatch accepted")
	}
}

// TestNewEngineRejectsBadConfig: the zero config is refused, and so is an
// Eq. 5 selection over more than MaxWindowCells cells — k = 2^23 anchors over
// L = 2^24, l = 1 fit the window bound at two streams but span 2^47 cells —
// by Validate and by NewEngine. The paper default and every k the figures
// sweep (up to 50) still validate at the one-year window, as does k = 8 at
// the maximum window length.
func TestNewEngineRejectsBadConfig(t *testing.T) {
	if _, err := NewEngine(Config{}, []string{"a"}, nil); err == nil {
		t.Fatal("zero config accepted")
	}
	huge := Config{K: 1 << 23, PatternLength: 1, D: 1, WindowLength: MaxWindowLength}
	if err := huge.Validate(); err == nil || !strings.Contains(err.Error(), "MaxWindowCells") {
		t.Fatalf("Validate(k=%d, L=%d, l=1) = %v, want the MaxWindowCells bound", huge.K, huge.WindowLength, err)
	}
	if _, err := NewEngine(huge, []string{"a", "b"}, nil); err == nil || !strings.Contains(err.Error(), "MaxWindowCells") {
		t.Fatalf("NewEngine(k=%d, L=%d, l=1) = %v, want the MaxWindowCells bound", huge.K, huge.WindowLength, err)
	}
	for _, k := range []int{2, 3, 5, 7, 10, 25, 50} {
		cfg := DefaultConfig()
		cfg.K = k
		if err := cfg.Validate(); err != nil {
			t.Errorf("DefaultConfig with k=%d: %v", k, err)
		}
	}
	widest := Config{K: 8, PatternLength: 1, D: 1, WindowLength: MaxWindowLength}
	if err := widest.Validate(); err != nil {
		t.Errorf("k=8 at L=%d: %v", widest.WindowLength, err)
	}
}

// TestWindowCapacityFollowsProfiler: the incremental profiler replays at
// most l deferred ticks against values that slid out of the window, so its
// engines back each stream with L + l + L/4 and keep l slid-out values
// across compactions; the stateless profilers replay nothing and keep
// L + L/4. A stream's share of MemoryBytes — window, candidate energies and
// cross products — stays within 3.25× and 1.25× of its window bytes
// respectively for L ≥ 4, and a never-ticked engine holds no window backing
// yet.
func TestWindowCapacityFollowsProfiler(t *testing.T) {
	for _, shape := range []struct{ L, l int }{{4, 1}, {4, 2}, {37, 5}, {512, 24}, {4032, 72}} {
		L, l := shape.L, shape.l
		for _, tc := range []struct {
			kind     ProfilerKind
			capacity int
			factor   int64 // per-stream bound, in quarters of the window bytes
		}{
			{ProfilerAuto, L + l + max(1, L/4), 13},
			{ProfilerIncremental, L + l + max(1, L/4), 13},
			{ProfilerNaive, L + max(1, L/4), 5},
			{ProfilerFFT, L + max(1, L/4), 5},
		} {
			cfg := Config{K: 1, PatternLength: l, D: 1, WindowLength: L, Profiler: tc.kind}
			var mem [2]int64
			for x, width := range []int{1, 2} {
				eng, err := NewEngine(cfg, []string{"a", "b"}[:width], nil)
				if err != nil {
					t.Fatal(err)
				}
				w := eng.Window()
				if got := w.Capacity(); got != tc.capacity {
					t.Errorf("L %d l %d %v: window capacity %d, want %d", L, l, tc.kind, got, tc.capacity)
				}
				if h, _ := w.Backing(0); h != nil {
					t.Errorf("L %d l %d %v: a never-ticked engine holds %d window values", L, l, tc.kind, len(h))
				}
				mem[x] = eng.MemoryBytes()
			}
			perStream := mem[1] - mem[0]
			if bound := tc.factor * int64(L) * 8 / 4; perStream > bound {
				t.Errorf("L %d l %d %v: %d bytes of history per stream exceed %d/4 of its window bytes (%d)", L, l, tc.kind, perStream, tc.factor, bound)
			}
			if L == 4032 {
				t.Logf("%v: %.2f× the window bytes per stream", tc.kind, float64(perStream)/float64(L*8))
			}
		}
	}
}

// TestMemoryBytesMatchesLiveHeap: once every stream has served as a
// reference within the last width ticks — within the replay rule's reach at
// these shapes, so the profiler has released no aggregates — the live heap an
// engine holds is within ±15% of its MemoryBytes estimate (window backing,
// energies and cross products, and the selection scratch), at the serving
// benchmark's impute and ingest shapes.
// An engine whose streams never serve as references holds its window backing
// only, so there the estimate is an upper bound.
func TestMemoryBytesMatchesLiveHeap(t *testing.T) {
	for _, tc := range []struct {
		name         string
		width, L     int
		noReferences bool
	}{
		{name: "impute", width: 16, L: 4032},
		{name: "ingest", width: 64, L: 1024},
		{name: "history-only", width: 16, L: 4032, noReferences: true},
	} {
		t.Run(tc.name, func(t *testing.T) {
			width, L := tc.width, tc.L
			cfg := Config{K: 5, PatternLength: 72, D: 3, WindowLength: L}
			names := make([]string, width)
			for i := range names {
				names[i] = fmt.Sprintf("s%d", i)
			}
			// Stream i references the next three, so a gap in every stream
			// consults every stream.
			refs := make(map[string]ReferenceSet, width)
			for i, n := range names {
				refs[n] = ReferenceSet{Stream: n, Candidates: []string{names[(i+1)%width], names[(i+2)%width], names[(i+3)%width]}}
			}
			var before, after runtime.MemStats
			runtime.GC()
			runtime.ReadMemStats(&before)
			eng, err := NewEngine(cfg, names, refs)
			if err != nil {
				t.Fatal(err)
			}
			row := make([]float64, width)
			for tick := 0; tick < L+width; tick++ {
				ph := 2 * math.Pi * float64(tick) / 288
				for j := range row {
					row[j] = math.Sin(ph + 0.3*float64(j))
				}
				if tick >= L && !tc.noReferences {
					row[tick-L] = math.NaN()
				}
				if _, _, err := eng.Tick(row); err != nil {
					t.Fatal(err)
				}
			}
			want := width
			if tc.noReferences {
				want = 0
			}
			if got := eng.Stats.Imputations; got != want {
				t.Fatalf("%d imputations, want %d", got, want)
			}
			runtime.GC()
			runtime.ReadMemStats(&after)
			live := float64(after.HeapAlloc) - float64(before.HeapAlloc)
			est := float64(eng.MemoryBytes())
			if tc.noReferences {
				if live > est {
					t.Fatalf("live heap grew %.0f bytes, above the MemoryBytes bound %.0f", live, est)
				}
			} else if math.Abs(live-est) > 0.15*est {
				t.Fatalf("live heap grew %.0f bytes, MemoryBytes estimates %.0f (%.1f%% off, want within 15%%)", live, est, 100*(live-est)/est)
			}
			t.Logf("live heap %.0f bytes, MemoryBytes %.0f (%+.1f%%)", live, est, 100*(live-est)/est)
			runtime.KeepAlive(eng)
		})
	}
}
