package core

import (
	"math"
	"testing"
	"testing/quick"
)

// TestFFTProfileMatchesNaive: the FFT-based profile must agree with the
// naive L2 profile within floating-point tolerance on random inputs.
func TestFFTProfileMatchesNaive(t *testing.T) {
	f := func(seed int64, lRaw, nRaw uint8) bool {
		n := int(nRaw)%150 + 20
		l := int(lRaw)%(n/3) + 1
		refs := randomRefs(seed, 3, n)
		naive := dissimilarityProfile(refs, l, L2, nil)
		fast := dissimilarityProfileFFT(refs, l, nil)
		if len(naive) != len(fast) {
			return false
		}
		for j := range naive {
			// Absolute tolerance scaled by the magnitude: FFT rounding
			// grows with the window energy.
			tol := 1e-6 * (1 + naive[j])
			if math.Abs(naive[j]-fast[j]) > tol {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 80}); err != nil {
		t.Fatal(err)
	}
}

// TestFFTProfileOnRunningExample pins the FFT path on the Table 2 data.
func TestFFTProfileOnRunningExample(t *testing.T) {
	refs := [][]float64{table2R1, table2R2}
	naive := dissimilarityProfile(refs, 3, L2, nil)
	fast := dissimilarityProfileFFT(refs, 3, nil)
	for j := range naive {
		if math.Abs(naive[j]-fast[j]) > 1e-9 {
			t.Fatalf("profile[%d]: naive %v vs fft %v", j, naive[j], fast[j])
		}
	}
}

// TestImputeFastExtraction: the public Impute with the FFT profiler produces
// the same value as the naive path on the running example.
func TestImputeFastExtraction(t *testing.T) {
	s := append([]float64(nil), table2S...)
	s[11] = math.NaN()
	cfg := table2Config()
	plain, err := Impute(cfg, s, [][]float64{table2R1, table2R2})
	if err != nil {
		t.Fatal(err)
	}
	cfg.Profiler = ProfilerFFT
	fast, err := Impute(cfg, s, [][]float64{table2R1, table2R2})
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(plain.Value-fast.Value) > 1e-9 {
		t.Fatalf("fast %v vs plain %v", fast.Value, plain.Value)
	}
}

// TestImputeFastExtractionRandom: on random windows the fast path's imputed
// value stays within tolerance of the naive path (exact tie flips may pick
// different anchor sets with near-identical sums, so compare the sums, not
// the anchor indices).
func TestImputeFastExtractionRandom(t *testing.T) {
	f := func(seed int64) bool {
		refs := randomRefs(seed, 2, 90)
		s := randomRefs(seed^0x99, 1, 90)[0]
		s[89] = math.NaN()
		cfg := Config{K: 3, PatternLength: 5, D: 2, WindowLength: 90, Norm: L2}
		plain, err1 := Impute(cfg, s, refs)
		cfg.Profiler = ProfilerFFT
		fast, err2 := Impute(cfg, s, refs)
		if (err1 == nil) != (err2 == nil) {
			return false
		}
		if err1 != nil {
			return true
		}
		return math.Abs(plain.SumDissimilarity-fast.SumDissimilarity) < 1e-5*(1+plain.SumDissimilarity)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}
