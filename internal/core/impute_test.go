package core

import (
	"math"
	"reflect"
	"testing"
	"testing/quick"
)

// TestRunningExample replays the paper's running example end to end
// (Table 2 / Example 4): imputing s(14:20) with l = 3, k = 2 over
// Rs = {r1, r2} must pick the anchors 14:00 and 13:35 (window indices 7 and
// 2) and impute (21.9 + 21.8) / 2 = 21.85 °C.
func TestRunningExample(t *testing.T) {
	s := append([]float64(nil), table2S...)
	s[11] = math.NaN()
	res, err := Impute(table2Config(), s, [][]float64{table2R1, table2R2})
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(res.Anchors, []int{2, 7}) {
		t.Fatalf("anchors = %v, want [2 7] (13:35 and 14:00)", res.Anchors)
	}
	if math.Abs(res.Value-21.85) > 1e-9 {
		t.Fatalf("imputed value = %v, want 21.85", res.Value)
	}
	if math.Abs(res.Epsilon-0.1) > 1e-9 {
		t.Fatalf("ε = %v, want 0.1 (Example 9)", res.Epsilon)
	}
	if !res.PatternDetermining(0.1) {
		t.Error("running example must be pattern-determining at ε = 0.1")
	}
	if res.PatternDetermining(0.05) {
		t.Error("ε tolerance below the spread must report false")
	}
}

// TestImputeWindowMatchesSliceForm runs the running example through the
// streaming-window form and checks it agrees with the slice form and
// stores the value back into the window (Algorithm 1 line 26).
func TestImputeWindowMatchesSliceForm(t *testing.T) {
	w := newTable2Window(t)
	res, err := ImputeWindow(table2Config(), w, 0, []int{1, 2})
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(res.Value-21.85) > 1e-9 {
		t.Fatalf("window imputed value = %v, want 21.85", res.Value)
	}
	if got := w.Current(0); math.Abs(got-21.85) > 1e-9 {
		t.Fatalf("window not updated: s[tn] = %v, want 21.85", got)
	}
}

// TestLemma53PhaseShiftedSines: for phase-shifted sine waves (zero linear
// correlation) with l > 1, TKCM imputes with error ≈ 0, because sines are
// pattern-determining (Lemma 5.3) — the headline analytical claim.
func TestLemma53PhaseShiftedSines(t *testing.T) {
	const period = 360 // ticks per full period
	const n = 4*period + 80
	s := make([]float64, n)
	r := make([]float64, n)
	for i := 0; i < n; i++ {
		deg := float64(i)
		s[i] = math.Sin(deg * math.Pi / 180)
		r[i] = math.Sin((deg - 90) * math.Pi / 180) // shifted: ρ ≈ 0
	}
	truth := s[n-1]
	s[n-1] = math.NaN()
	cfg := Config{K: 3, PatternLength: 60, D: 1, WindowLength: n, Norm: L2, Selection: SelectDP}
	res, err := Impute(cfg, s, [][]float64{r})
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(res.Value-truth) > 1e-9 {
		t.Fatalf("imputed %v, want %v (error %v)", res.Value, truth, math.Abs(res.Value-truth))
	}
	if res.Epsilon > 1e-9 {
		t.Fatalf("ε = %v, want ≈ 0 for pattern-determining sines", res.Epsilon)
	}
}

// TestShortPatternAmbiguity shows the failure mode of Examples 6–8: with
// l = 1 on a 90°-shifted reference, the anchor set mixes up- and down-slope
// situations, so ε is large; with a long pattern ε collapses.
func TestShortPatternAmbiguity(t *testing.T) {
	const period = 360
	const n = 4*period + 80
	s := make([]float64, n)
	r := make([]float64, n)
	for i := 0; i < n; i++ {
		deg := float64(i)
		s[i] = math.Sin(deg * math.Pi / 180)
		r[i] = math.Sin((deg - 90) * math.Pi / 180)
	}
	s[n-1] = math.NaN()
	short := Config{K: 4, PatternLength: 1, D: 1, WindowLength: n, Norm: L2, Selection: SelectDP}
	long := Config{K: 4, PatternLength: 60, D: 1, WindowLength: n, Norm: L2, Selection: SelectDP}
	resShort, err := Impute(short, s, [][]float64{r})
	if err != nil {
		t.Fatal(err)
	}
	resLong, err := Impute(long, s, [][]float64{r})
	if err != nil {
		t.Fatal(err)
	}
	if resShort.Epsilon < 0.5 {
		t.Fatalf("l=1 ε = %v, expected the up/down-slope ambiguity (ε ≥ 0.5)", resShort.Epsilon)
	}
	if resLong.Epsilon > 1e-6 {
		t.Fatalf("l=60 ε = %v, want ≈ 0", resLong.Epsilon)
	}
}

// TestLemma52Consistency: whenever the reference series pattern-determine s
// (ε small), the imputed value lies within ε of every anchor value — the
// consistency guarantee.
func TestLemma52Consistency(t *testing.T) {
	f := func(seed int64) bool {
		refs := randomRefs(seed, 2, 100)
		s := randomRefs(seed^0x55aa, 1, 100)[0]
		s[99] = math.NaN()
		cfg := Config{K: 3, PatternLength: 4, D: 2, WindowLength: 100, Norm: L2, Selection: SelectDP}
		res, err := Impute(cfg, s, refs)
		if err != nil {
			return false
		}
		// Consistency (Def. 6): |sˆ(t) − sˆ(tn)| ≤ ε for every anchor t.
		for _, v := range res.AnchorValues {
			if math.Abs(v-res.Value) > res.Epsilon+1e-9 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

// TestImputeUnequalReferenceLengths: histories of unequal length must align
// at the newest tick. The seed code computed filled = min(len(s), len(refs))
// but passed the untruncated refs to the profile, which re-derived the
// window from len(refs[0]) — mis-anchoring the query pattern when refs[0]
// was longer and panicking when it was shorter.
func TestImputeUnequalReferenceLengths(t *testing.T) {
	cfg := table2Config()
	s := append([]float64(nil), table2S...)
	s[11] = math.NaN()
	want, err := Impute(cfg, s, [][]float64{table2R1, table2R2})
	if err != nil {
		t.Fatal(err)
	}

	// Case 1: refs longer than s (extra old history) — must impute as if the
	// extra prefix were never retained.
	longR1 := append([]float64{99, -99, 42}, table2R1...)
	res, err := Impute(cfg, s, [][]float64{longR1, table2R2})
	if err != nil {
		t.Fatal(err)
	}
	if res.Value != want.Value {
		t.Fatalf("long refs[0]: imputed %v, want %v", res.Value, want.Value)
	}
	if len(res.Anchors) != len(want.Anchors) {
		t.Fatalf("long refs[0]: anchors %v, want %v", res.Anchors, want.Anchors)
	}
	for i := range want.Anchors {
		if res.Anchors[i] != want.Anchors[i] {
			t.Fatalf("long refs[0]: anchors %v, want %v", res.Anchors, want.Anchors)
		}
	}

	// Case 2: refs[0] longer than refs[1] — the seed panicked indexing the
	// shorter series past its end.
	res, err = Impute(cfg, append([]float64(nil), s...), [][]float64{longR1, table2R2[:]})
	if err != nil {
		t.Fatal(err)
	}
	if res.Value != want.Value {
		t.Fatalf("mixed ref lengths: imputed %v, want %v", res.Value, want.Value)
	}

	// Case 3: s longer than the refs — s must be end-aligned too.
	longS := append([]float64{1, 2}, s...)
	res, err = Impute(cfg, longS, [][]float64{table2R1, table2R2})
	if err != nil {
		t.Fatal(err)
	}
	if res.Value != want.Value {
		t.Fatalf("long s: imputed %v, want %v", res.Value, want.Value)
	}
}

func TestImputeValidation(t *testing.T) {
	bad := []Config{
		{K: 0, PatternLength: 3, D: 1, WindowLength: 12},
		{K: 2, PatternLength: 0, D: 1, WindowLength: 12},
		{K: 2, PatternLength: 3, D: 0, WindowLength: 12},
		{K: 2, PatternLength: 3, D: 1, WindowLength: 0},
		{K: 2, PatternLength: 7, D: 1, WindowLength: 13}, // L < 2l
		{K: 5, PatternLength: 3, D: 1, WindowLength: 12}, // k patterns don't fit
	}
	s := make([]float64, 12)
	refs := [][]float64{make([]float64, 12)}
	for i, cfg := range bad {
		if _, err := Impute(cfg, s, refs); err == nil {
			t.Errorf("case %d: invalid config %+v accepted", i, cfg)
		}
	}
}

func TestImputeInsufficientHistory(t *testing.T) {
	cfg := table2Config()
	s := []float64{1, 2, 3, math.NaN()}
	refs := [][]float64{{1, 2, 3, 4}, {4, 3, 2, 1}}
	if _, err := Impute(cfg, s, refs); err != ErrInsufficientHistory {
		t.Fatalf("err = %v, want ErrInsufficientHistory", err)
	}
}

func TestImputeMissingInQueryPattern(t *testing.T) {
	cfg := table2Config()
	s := append([]float64(nil), table2S...)
	s[11] = math.NaN()
	r1 := append([]float64(nil), table2R1...)
	r1[10] = math.NaN() // inside the l = 3 query pattern
	if _, err := Impute(cfg, s, [][]float64{r1, table2R2}); err != ErrMissingInQueryPattern {
		t.Fatalf("err = %v, want ErrMissingInQueryPattern", err)
	}
}

func TestImputeSkipsMissingAnchorValues(t *testing.T) {
	// If s is missing at one anchor, the mean uses the remaining anchors.
	s := append([]float64(nil), table2S...)
	s[11] = math.NaN()
	s[2] = math.NaN() // the 13:35 anchor of the running example
	res, err := Impute(table2Config(), s, [][]float64{table2R1, table2R2})
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(res.Value-21.9) > 1e-9 {
		t.Fatalf("imputed %v, want 21.9 (the remaining anchor)", res.Value)
	}
}

func TestWeightedMean(t *testing.T) {
	s := append([]float64(nil), table2S...)
	s[11] = math.NaN()
	cfg := table2Config()
	cfg.WeightedMean = true
	res, err := Impute(cfg, s, [][]float64{table2R1, table2R2})
	if err != nil {
		t.Fatal(err)
	}
	// Weighted mean must stay within the anchor value range.
	lo, hi := math.Inf(1), math.Inf(-1)
	for _, v := range res.AnchorValues {
		lo = math.Min(lo, v)
		hi = math.Max(hi, v)
	}
	if res.Value < lo-1e-9 || res.Value > hi+1e-9 {
		t.Fatalf("weighted value %v outside anchor range [%v, %v]", res.Value, lo, hi)
	}
	// The 14:00 anchor is more similar, so the weighted value must lean
	// toward s(14:00) = 21.9 relative to the plain mean 21.85.
	if res.Value <= 21.85 {
		t.Fatalf("weighted value %v does not lean toward the more similar anchor", res.Value)
	}
}

// TestImputeProfiledAgrees: the timed one-shot imputation must return
// Impute's Result bit for bit — value, anchors, anchor values, δs, Σδ and ε —
// under every selection and both means.
func TestImputeProfiledAgrees(t *testing.T) {
	s := append([]float64(nil), table2S...)
	s[11] = math.NaN()
	bitsEqual := func(a, b []float64) bool {
		if len(a) != len(b) {
			return false
		}
		for i := range a {
			if math.Float64bits(a[i]) != math.Float64bits(b[i]) {
				return false
			}
		}
		return true
	}
	for _, sel := range []Selection{SelectDP, SelectGreedy, SelectOverlapping} {
		for _, weighted := range []bool{false, true} {
			cfg := table2Config()
			cfg.Selection, cfg.WeightedMean = sel, weighted
			plain, err := Impute(cfg, s, [][]float64{table2R1, table2R2})
			if err != nil {
				t.Fatal(err)
			}
			profiled, timings, err := ImputeProfiled(cfg, s, [][]float64{table2R1, table2R2})
			if err != nil {
				t.Fatal(err)
			}
			if math.Float64bits(plain.Value) != math.Float64bits(profiled.Value) ||
				!reflect.DeepEqual(plain.Anchors, profiled.Anchors) ||
				!bitsEqual(plain.AnchorValues, profiled.AnchorValues) ||
				!bitsEqual(plain.Dissimilarities, profiled.Dissimilarities) ||
				math.Float64bits(plain.SumDissimilarity) != math.Float64bits(profiled.SumDissimilarity) ||
				math.Float64bits(plain.Epsilon) != math.Float64bits(profiled.Epsilon) {
				t.Fatalf("%v weighted=%v: profiled result differs: %+v vs %+v", sel, weighted, plain, profiled)
			}
			if timings.Total() <= 0 {
				t.Fatal("profiled timings must be positive")
			}
			if f := timings.ExtractionFraction(); f < 0 || f > 1 {
				t.Fatalf("extraction fraction %v out of [0,1]", f)
			}
		}
	}
}

// TestSelectionVariantsOnExample exercises the greedy and overlapping
// ablations through the public Impute path.
func TestSelectionVariantsOnExample(t *testing.T) {
	for _, sel := range []Selection{SelectGreedy, SelectOverlapping} {
		s := append([]float64(nil), table2S...)
		s[11] = math.NaN()
		cfg := table2Config()
		cfg.Selection = sel
		res, err := Impute(cfg, s, [][]float64{table2R1, table2R2})
		if err != nil {
			t.Fatalf("%v: %v", sel, err)
		}
		if math.IsNaN(res.Value) {
			t.Fatalf("%v produced NaN", sel)
		}
		if sel == SelectOverlapping {
			continue
		}
		for i := 1; i < len(res.Anchors); i++ {
			if res.Anchors[i]-res.Anchors[i-1] < cfg.PatternLength {
				t.Fatalf("%v anchors overlap: %v", sel, res.Anchors)
			}
		}
	}
}

// TestDPNeverWorseThanGreedyOnDissimilarity checks Def. 3 condition 3 via
// the public API on random inputs.
func TestDPNeverWorseThanGreedyOnDissimilarity(t *testing.T) {
	f := func(seed int64) bool {
		refs := randomRefs(seed, 2, 80)
		s := randomRefs(seed^0x77, 1, 80)[0]
		s[79] = math.NaN()
		base := Config{K: 3, PatternLength: 5, D: 2, WindowLength: 80, Norm: L2}
		dpCfg, gCfg := base, base
		dpCfg.Selection = SelectDP
		gCfg.Selection = SelectGreedy
		dp, err1 := Impute(dpCfg, s, refs)
		greedy, err2 := Impute(gCfg, s, refs)
		if err1 != nil || err2 != nil {
			return err1 != nil && err2 != nil
		}
		return dp.SumDissimilarity <= greedy.SumDissimilarity+1e-9
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}
