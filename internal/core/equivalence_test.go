package core

import (
	"fmt"
	"math"
	"slices"
	"testing"
	"testing/quick"

	"tkcm/internal/window"
)

// TestImputeWindowEquivalence: on random data, the streaming-window form
// (ImputeWindow) and the slice form (Impute) must produce identical results
// — including after the window has slid and compacted its backing.
func TestImputeWindowEquivalence(t *testing.T) {
	f := func(seed int64, extraRaw uint8) bool {
		const L = 60
		cfg := Config{K: 3, PatternLength: 4, D: 2, WindowLength: L, Norm: L2, Selection: SelectDP}
		extra := int(extraRaw)%100 + 1 // force wrap-around by over-filling

		data := randomRefs(seed, 3, L+extra) // row 0 = s, rows 1-2 = refs
		w := window.New(L, 2*L, 0, "s", "r1", "r2")
		for i := 0; i < L+extra; i++ {
			w.Advance([]float64{data[0][i], data[1][i], data[2][i]})
		}
		// Mark the newest value of s missing in both forms.
		w.SetCurrent(0, math.NaN())
		lo := extra
		s := append([]float64(nil), data[0][lo:]...)
		s[len(s)-1] = math.NaN()
		refs := [][]float64{data[1][lo:], data[2][lo:]}

		sliceRes, err1 := Impute(cfg, s, refs)
		winRes, err2 := ImputeWindow(cfg, w, 0, []int{1, 2})
		if (err1 == nil) != (err2 == nil) {
			return false
		}
		if err1 != nil {
			return true
		}
		if sliceRes.Value != winRes.Value || sliceRes.Epsilon != winRes.Epsilon {
			return false
		}
		if len(sliceRes.Anchors) != len(winRes.Anchors) {
			return false
		}
		for i := range sliceRes.Anchors {
			if sliceRes.Anchors[i] != winRes.Anchors[i] {
				return false
			}
		}
		// The window must now hold the imputed value at tn.
		return w.Current(0) == sliceRes.Value
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}

// TestImputeWindowAllNorms runs the equivalence across every norm once.
func TestImputeWindowAllNorms(t *testing.T) {
	for _, norm := range []Norm{L2, L1, LInf} {
		const L = 40
		cfg := Config{K: 2, PatternLength: 3, D: 2, WindowLength: L, Norm: norm, Selection: SelectDP}
		data := randomRefs(7, 3, L+13)
		w := window.New(L, 2*L, 0, "s", "r1", "r2")
		for i := range data[0] {
			w.Advance([]float64{data[0][i], data[1][i], data[2][i]})
		}
		w.SetCurrent(0, math.NaN())
		s := append([]float64(nil), data[0][13:]...)
		s[len(s)-1] = math.NaN()
		sliceRes, err := Impute(cfg, s, [][]float64{data[1][13:], data[2][13:]})
		if err != nil {
			t.Fatalf("%v slice: %v", norm, err)
		}
		winRes, err := ImputeWindow(cfg, w, 0, []int{1, 2})
		if err != nil {
			t.Fatalf("%v window: %v", norm, err)
		}
		if sliceRes.Value != winRes.Value {
			t.Fatalf("%v: slice %v != window %v", norm, sliceRes.Value, winRes.Value)
		}
	}
}

// TestEngineWindowAlwaysComplete: after every tick, the retained window has
// no missing values — the core invariant of continuous imputation (Sec. 3).
func TestEngineWindowAlwaysComplete(t *testing.T) {
	f := func(missMask uint64) bool {
		const period = 48
		cfg := Config{K: 2, PatternLength: 6, D: 1, WindowLength: 2 * period, Norm: L2}
		eng, err := NewEngine(cfg, []string{"s", "r"}, map[string]ReferenceSet{
			"s": {Stream: "s", Candidates: []string{"r"}},
		})
		if err != nil {
			return false
		}
		for i := 0; i < 4*period; i++ {
			ph := 2 * math.Pi * float64(i) / period
			sv := math.Sin(ph)
			if i >= 64 && missMask&(1<<(uint(i)%64)) != 0 {
				sv = math.NaN()
			}
			if _, _, err := eng.Tick([]float64{sv, math.Cos(ph)}); err != nil {
				return false
			}
			w := eng.Window()
			for j := 0; j < w.Width(); j++ {
				if slices.ContainsFunc(w.Snapshot(j), math.IsNaN) {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 20}); err != nil {
		t.Fatal(err)
	}
}

// TestEngineReferenceFailureInjection: when every candidate reference is
// missing at the same tick as the target, the engine must fall back to a
// cold fill rather than failing or leaving a hole.
func TestEngineReferenceFailureInjection(t *testing.T) {
	const period = 48
	cfg := Config{K: 2, PatternLength: 6, D: 1, WindowLength: 2 * period, Norm: L2}
	eng, err := NewEngine(cfg, []string{"s", "r"}, map[string]ReferenceSet{
		"s": {Stream: "s", Candidates: []string{"r"}},
	})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 3*period; i++ {
		ph := 2 * math.Pi * float64(i) / period
		row := []float64{math.Sin(ph), math.Cos(ph)}
		if i == 3*period-1 {
			row[0] = math.NaN()
			row[1] = math.NaN() // the reference fails simultaneously
		}
		out, results, err := eng.Tick(row)
		if err != nil {
			t.Fatal(err)
		}
		if i == 3*period-1 {
			if results[0] != nil {
				t.Fatal("TKCM ran without a usable reference")
			}
			if math.IsNaN(out[0]) {
				t.Fatal("missing value left unfilled")
			}
		}
	}
	if eng.Stats.ReferenceErrors == 0 {
		t.Fatal("reference failure not counted")
	}
	// The reference stream itself is never imputed by TKCM (it has no
	// reference set entry and auto-ranking needs the target present), but
	// the window must still be complete.
	if slices.ContainsFunc(eng.Window().Snapshot(1), math.IsNaN) {
		t.Fatal("reference hole left in the window")
	}
}

// wideScenario streams a randomized wide/sparse missing pattern through a
// set of identically fed engines and returns, per engine, the imputed value
// of every (tick, stream) that was missing, in a fixed order. The first half
// of the streams are targets that may go missing; the second half is an
// always-present reference pool.
func wideScenario(t *testing.T, cfgs []Config, labels []string, seed uint64) [][]float64 {
	t.Helper()
	const (
		width   = 12
		targets = width / 2
		period  = 48
		n       = 7 * period
	)
	names := make([]string, width)
	for i := range names {
		names[i] = fmt.Sprintf("s%d", i)
	}
	refs := make(map[string]ReferenceSet, targets)
	for i := 0; i < targets; i++ {
		// Overlapping reference sets drawn from the always-present pool, so
		// one tick assembles several profiles from shared reference streams.
		refs[names[i]] = ReferenceSet{Stream: names[i], Candidates: []string{
			names[targets+i%(width-targets)],
			names[targets+(i+2)%(width-targets)],
			names[targets+(i+4)%(width-targets)],
		}}
	}
	engines := make([]*Engine, len(cfgs))
	for x, cfg := range cfgs {
		eng, err := NewEngine(cfg, names, cloneRefs(refs))
		if err != nil {
			t.Fatalf("%s: %v", labels[x], err)
		}
		defer eng.Close()
		engines[x] = eng
	}
	imputed := make([][]float64, len(engines))
	state := seed*6364136223846793005 + 1442695040888963407
	rnd := func() uint64 {
		state ^= state << 13
		state ^= state >> 7
		state ^= state << 17
		return state
	}
	row := make([]float64, width)
	for tick := 0; tick < n; tick++ {
		ph := 2 * math.Pi * float64(tick) / period
		for j := range row {
			row[j] = math.Sin(ph+0.37*float64(j)) + 0.2*math.Cos(2*ph+float64(j)) +
				float64(rnd()%1000)/12000
		}
		if tick > 4*period {
			// Sparse randomized losses: each target independently missing
			// with probability 1/4, occasionally a wide burst losing every
			// target at once.
			burst := rnd()%23 == 0
			for j := 0; j < targets; j++ {
				if burst || rnd()%4 == 0 {
					row[j] = math.NaN()
				}
			}
		}
		for x, eng := range engines {
			rowCopy := append([]float64(nil), row...)
			out, _, err := eng.Tick(rowCopy)
			if err != nil {
				t.Fatalf("%s tick %d: %v", labels[x], tick, err)
			}
			for j := 0; j < targets; j++ {
				if math.IsNaN(row[j]) {
					imputed[x] = append(imputed[x], out[j])
				}
			}
		}
	}
	if len(imputed[0]) == 0 {
		t.Fatal("scenario produced no imputations")
	}
	for x := 1; x < len(engines); x++ {
		if engines[x].Stats.Imputations != engines[0].Stats.Imputations {
			t.Fatalf("%s performed %d imputations, %s performed %d",
				labels[x], engines[x].Stats.Imputations, labels[0], engines[0].Stats.Imputations)
		}
	}
	return imputed
}

func cloneRefs(refs map[string]ReferenceSet) map[string]ReferenceSet {
	out := make(map[string]ReferenceSet, len(refs))
	for k, v := range refs {
		out[k] = v
	}
	return out
}

// TestEngineLazyEagerNaiveEquivalence: on randomized wide/sparse missing
// patterns, the demand-driven incremental engine and the naive-profiler
// engine must produce identical imputations within 1e-6 — the end-to-end
// guarantee of the lazy catch-up.
func TestEngineLazyEagerNaiveEquivalence(t *testing.T) {
	base := Config{K: 3, PatternLength: 7, D: 2, WindowLength: 3 * 48, Norm: L2}
	lazy := base
	lazy.Profiler = ProfilerIncremental
	naive := base
	naive.Profiler = ProfilerNaive
	f := func(seed uint64) bool {
		vals := wideScenario(t, []Config{naive, lazy}, []string{"naive", "lazy"}, seed)
		for x := 1; x < len(vals); x++ {
			if len(vals[x]) != len(vals[0]) {
				return false
			}
			for i := range vals[0] {
				if math.Abs(vals[x][i]-vals[0][i]) > 1e-6 {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 8}); err != nil {
		t.Fatal(err)
	}
}

// TestEngineSerialPoolEquivalence: ticks fanned out across the persistent
// worker pool must impute exactly what the inline tick imputes.
func TestEngineSerialPoolEquivalence(t *testing.T) {
	base := Config{K: 3, PatternLength: 7, D: 2, WindowLength: 3 * 48, Norm: L2, Profiler: ProfilerIncremental}
	pool := base
	pool.Workers = 4
	f := func(seed uint64) bool {
		vals := wideScenario(t, []Config{base, pool}, []string{"serial", "pool"}, seed)
		for x := 1; x < len(vals); x++ {
			if len(vals[x]) != len(vals[0]) {
				return false
			}
			for i := range vals[0] {
				if vals[x][i] != vals[0][i] {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 6}); err != nil {
		t.Fatal(err)
	}
}

// TestEngineLongBlockFeedback: a multi-day gap is imputed tick by tick with
// earlier imputations feeding later ones; the error must stay bounded on
// periodic data (resilience to consecutively missing values, Sec. 7.3.2).
func TestEngineLongBlockFeedback(t *testing.T) {
	const period = 96
	const n = 8 * period
	cfg := Config{K: 3, PatternLength: 12, D: 2, WindowLength: 4 * period, Norm: L2}
	eng, err := NewEngine(cfg, []string{"s", "r1", "r2"}, map[string]ReferenceSet{
		"s": {Stream: "s", Candidates: []string{"r1", "r2"}},
	})
	if err != nil {
		t.Fatal(err)
	}
	blockFrom := n - 2*period // the last two periods are one long gap
	worst := 0.0
	for i := 0; i < n; i++ {
		ph := 2 * math.Pi * float64(i) / period
		truth := math.Sin(ph) + 0.3*math.Sin(3*ph)
		row := []float64{truth, math.Sin(ph - 1.1), math.Cos(ph + 0.4)}
		if i >= blockFrom {
			row[0] = math.NaN()
		}
		out, _, err := eng.Tick(row)
		if err != nil {
			t.Fatal(err)
		}
		if i >= blockFrom {
			if e := math.Abs(out[0] - truth); e > worst {
				worst = e
			}
		}
	}
	if worst > 1e-6 {
		t.Fatalf("worst error %v across a 2-period gap on noiseless data", worst)
	}
}
