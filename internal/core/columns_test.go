package core

import (
	"math"
	"slices"
	"strings"
	"testing"
)

// columnsScenario synthesizes a width×n batch of phase-shifted harmonics in
// stream-major layout, with a deterministic pseudo-random missing pattern
// over the target streams (first half) after the warmup prefix — including
// occasional ticks where every stream is missing at once.
func columnsScenario(width, n, warm int, seed uint64) Columns {
	cols := make(Columns, width)
	for i := range cols {
		cols[i] = make([]float64, n)
	}
	state := seed*6364136223846793005 + 1442695040888963407
	rnd := func() uint64 {
		state ^= state << 13
		state ^= state >> 7
		state ^= state << 17
		return state
	}
	for t := 0; t < n; t++ {
		ph := 2 * math.Pi * float64(t) / 48
		for i := 0; i < width; i++ {
			cols[i][t] = math.Sin(ph+0.37*float64(i)) + 0.2*math.Cos(2*ph+float64(i)) +
				float64(rnd()%1000)/12000
		}
		if t < warm {
			continue
		}
		if rnd()%37 == 0 {
			// Entirely missing tick: every stream at once.
			for i := 0; i < width; i++ {
				cols[i][t] = math.NaN()
			}
			continue
		}
		for i := 0; i < width/2; i++ {
			if rnd()%5 == 0 {
				cols[i][t] = math.NaN()
			}
		}
	}
	return cols
}

func columnsTestEngine(t *testing.T, cfg Config, width int) *Engine {
	t.Helper()
	names := make([]string, width)
	for i := range names {
		names[i] = string(rune('a' + i))
	}
	refs := make(map[string]ReferenceSet, width/2)
	for i := 0; i < width/2; i++ {
		refs[names[i]] = ReferenceSet{Stream: names[i], Candidates: names[width/2:]}
	}
	eng, err := NewEngine(cfg, names, refs)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { eng.Close() })
	return eng
}

// sameResult reports whether a and b are both nil or hold bit-identical
// fields.
func sameResult(a, b *Result) bool {
	if a == nil || b == nil {
		return a == b
	}
	same := func(x, y float64) bool { return math.Float64bits(x) == math.Float64bits(y) }
	return same(a.Value, b.Value) && same(a.SumDissimilarity, b.SumDissimilarity) && same(a.Epsilon, b.Epsilon) &&
		slices.Equal(a.Anchors, b.Anchors) &&
		slices.EqualFunc(a.AnchorValues, b.AnchorValues, same) &&
		slices.EqualFunc(a.Dissimilarities, b.Dissimilarities, same)
}

// TestTickColumnsMatchesTick: columnar ingest must be bit-identical to
// ticking the same rows one by one — outputs, every Result field, and
// statistics — for arbitrary missing patterns (including entirely missing
// ticks) and arbitrary batch boundaries, under the incremental and the naive
// profiler. The batch's Results are read only after the whole batch ran, so
// each cell must keep its own Result until the next call.
func TestTickColumnsMatchesTick(t *testing.T) {
	const width, n, warm = 8, 420, 140
	base := Config{K: 2, PatternLength: 6, D: 2, WindowLength: 96, Profiler: ProfilerIncremental}
	naive := base
	naive.Profiler = ProfilerNaive
	for name, cfg := range map[string]Config{"lazy": base, "naive": naive} {
		t.Run(name, func(t *testing.T) {
			for _, batch := range []int{1, 7, 64, n} {
				colEng := columnsTestEngine(t, cfg, width)
				seqEng := columnsTestEngine(t, cfg, width)
				cols := columnsScenario(width, n, warm, 11)
				row := make([]float64, width)
				for a := 0; a < n; a += batch {
					b := a + batch
					if b > n {
						b = n
					}
					sub := make(Columns, width)
					for i := range sub {
						sub[i] = cols[i][a:b]
					}
					out, res, err := colEng.TickColumns(sub)
					if err != nil {
						t.Fatalf("batch=%d TickColumns(%d:%d): %v", batch, a, b, err)
					}
					for tk := a; tk < b; tk++ {
						for i := 0; i < width; i++ {
							row[i] = cols[i][tk]
						}
						want, wantRes, err := seqEng.Tick(row)
						if err != nil {
							t.Fatalf("batch=%d tick %d: %v", batch, tk, err)
						}
						for i := 0; i < width; i++ {
							got := out[i][tk-a]
							if got != want[i] && !(math.IsNaN(got) && math.IsNaN(want[i])) {
								t.Fatalf("batch=%d tick %d stream %d: columnar %v != sequential %v",
									batch, tk, i, got, want[i])
							}
							if cr, sr := res[tk-a][i], wantRes[i]; !sameResult(cr, sr) {
								t.Fatalf("batch=%d tick %d stream %d: result %+v != %+v", batch, tk, i, cr, sr)
							}
						}
					}
				}
				if colEng.Stats != seqEng.Stats {
					t.Fatalf("batch=%d: stats diverged: columnar %+v, sequential %+v",
						batch, colEng.Stats, seqEng.Stats)
				}
				if colEng.Seq() != seqEng.Seq() {
					t.Fatalf("batch=%d: seq diverged: %d != %d", batch, colEng.Seq(), seqEng.Seq())
				}
				if len(colEng.resPool) > width {
					t.Fatalf("batch=%d: %d Results pooled between calls, want at most one per stream", batch, len(colEng.resPool))
				}
			}
		})
	}
}

// TestTickColumnsRejectsBadBatches: a batch with the wrong width, ragged
// columns, or a non-finite measurement must be rejected atomically — no tick
// applied, no state mutated.
func TestTickColumnsRejectsBadBatches(t *testing.T) {
	cfg := Config{K: 2, PatternLength: 3, D: 2, WindowLength: 16}
	eng := columnsTestEngine(t, cfg, 4)
	warm := columnsScenario(4, 20, 20, 3)
	if _, _, err := eng.TickColumns(warm); err != nil {
		t.Fatal(err)
	}
	before := eng.Seq()
	cases := map[string]Columns{
		"width":  {{1}, {2}, {3}},
		"ragged": {{1, 1}, {2}, {3, 3}, {4, 4}},
		"inf":    {{1, 1}, {2, 2}, {3, math.Inf(1)}, {4, 4}},
	}
	for name, cols := range cases {
		if _, _, err := eng.TickColumns(cols); err == nil {
			t.Fatalf("%s: batch accepted, want rejection", name)
		}
		if eng.Seq() != before {
			t.Fatalf("%s: rejected batch advanced seq %d -> %d", name, before, eng.Seq())
		}
	}
	// The error for a non-finite value names the tick and stream.
	_, _, err := eng.TickColumns(cases["inf"])
	if err == nil || !strings.Contains(err.Error(), "tick 1") || !strings.Contains(err.Error(), `"c"`) {
		t.Fatalf("inf error %q does not locate the bad measurement", err)
	}
}

// TestTickColumnsZeroAllocs pins the columnar hot path at zero allocations
// per batched tick in steady state: complete batches (the healthy-feed fast
// path) of alternating lengths and a batch with missing values all run
// allocation-free once the engine's scratch and Result pool have warmed up.
func TestTickColumnsZeroAllocs(t *testing.T) {
	const width, n = 8, 64
	cfg := Config{K: 3, PatternLength: 6, D: 2, WindowLength: 144}
	eng := columnsTestEngine(t, cfg, width)
	complete := columnsScenario(width, n, n, 5)
	sparse := columnsScenario(width, n, n, 6)
	for i := 0; i < width/2; i++ {
		sparse[i][n/2] = math.NaN() // one missing tick mid-batch
	}
	// Warm: fill the window and let every scratch buffer reach steady size.
	for tk := 0; tk < (cfg.WindowLength/n+2)*n; tk += n {
		if _, _, err := eng.TickColumns(complete); err != nil {
			t.Fatal(err)
		}
	}
	if _, _, err := eng.TickColumns(sparse); err != nil {
		t.Fatal(err)
	}
	half := make(Columns, width)
	for i := range half {
		half[i] = complete[i][:n/2]
	}
	if avg := testing.AllocsPerRun(10, func() {
		for _, batch := range []Columns{half, complete} {
			if _, _, err := eng.TickColumns(batch); err != nil {
				t.Fatal(err)
			}
		}
	}); avg != 0 {
		t.Errorf("complete batches of %d and %d ticks: %v allocs per pair of TickColumns, want 0", n/2, n, avg)
	}
	if avg := testing.AllocsPerRun(10, func() {
		if _, _, err := eng.TickColumns(sparse); err != nil {
			t.Fatal(err)
		}
	}); avg != 0 {
		t.Errorf("sparse batch: %v allocs per TickColumns, want 0", avg)
	}
}
