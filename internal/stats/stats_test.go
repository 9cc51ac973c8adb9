package stats

import (
	"math"
	"testing"
	"testing/quick"
)

func almostEqual(a, b, tol float64) bool {
	if math.IsNaN(a) && math.IsNaN(b) {
		return true
	}
	return math.Abs(a-b) <= tol
}

func TestMeanSkipsMissing(t *testing.T) {
	if got := Mean([]float64{1, math.NaN(), 3}); got != 2 {
		t.Fatalf("mean = %v, want 2", got)
	}
	if got := Mean([]float64{math.NaN()}); !math.IsNaN(got) {
		t.Fatalf("all-missing mean = %v, want NaN", got)
	}
	if got := Mean(nil); !math.IsNaN(got) {
		t.Fatalf("empty mean = %v, want NaN", got)
	}
}

func TestVarianceAndStd(t *testing.T) {
	xs := []float64{2, 4, 4, 4, 5, 5, 7, 9}
	if got := Variance(xs); !almostEqual(got, 4, 1e-12) {
		t.Fatalf("variance = %v, want 4", got)
	}
	if got := Std(xs); !almostEqual(got, 2, 1e-12) {
		t.Fatalf("std = %v, want 2", got)
	}
	if got := Variance([]float64{math.NaN()}); !math.IsNaN(got) {
		t.Fatal("all-missing variance must be NaN")
	}
	if got := Variance([]float64{5, math.NaN(), 5}); got != 0 {
		t.Fatalf("constant variance = %v, want 0", got)
	}
}

func TestMinMax(t *testing.T) {
	lo, hi := MinMax([]float64{3, math.NaN(), -1, 7})
	if lo != -1 || hi != 7 {
		t.Fatalf("minmax = %v/%v", lo, hi)
	}
	lo, hi = MinMax([]float64{math.NaN()})
	if !math.IsNaN(lo) || !math.IsNaN(hi) {
		t.Fatal("all-missing minmax must be NaN")
	}
}

// TestPearsonExamples56 reproduces the paper's Examples 5 and 6: a scaled
// and offset sine is perfectly linearly correlated (ρ = 1) while a
// 90°-shifted sine has ρ ≈ 0 (the paper reports −0.0085 over its sampling).
func TestPearsonExamples56(t *testing.T) {
	n := 841 // minutes 0..840 as in Figs. 4–5
	s := make([]float64, n)
	r1 := make([]float64, n)
	r2 := make([]float64, n)
	for i := 0; i < n; i++ {
		deg := float64(i)
		s[i] = math.Sin(deg * math.Pi / 180)
		r1[i] = 1.5*math.Sin(deg*math.Pi/180) + 1
		r2[i] = math.Sin((deg - 90) * math.Pi / 180)
	}
	if got := Pearson(s, r1); !almostEqual(got, 1, 1e-9) {
		t.Fatalf("ρ(s, r1) = %v, want 1", got)
	}
	// Over a non-integer number of periods the shifted correlation is not
	// exactly zero (the paper reports −0.0085 on its sampling); it must be
	// negligible compared to the |ρ| = 1 of the linear pair.
	if got := Pearson(s, r2); math.Abs(got) > 0.05 {
		t.Fatalf("ρ(s, r2) = %v, want ≈ 0", got)
	}
	if got := Pearson(s, negate(s)); !almostEqual(got, -1, 1e-9) {
		t.Fatalf("ρ(s, −s) = %v, want −1", got)
	}
}

func negate(xs []float64) []float64 {
	out := make([]float64, len(xs))
	for i, v := range xs {
		out[i] = -v
	}
	return out
}

func TestPearsonEdgeCases(t *testing.T) {
	if got := Pearson([]float64{1}, []float64{2}); !math.IsNaN(got) {
		t.Fatal("single pair must be NaN")
	}
	if got := Pearson([]float64{1, 1, 1}, []float64{1, 2, 3}); !math.IsNaN(got) {
		t.Fatal("zero variance must be NaN")
	}
	// Missing pairs are skipped.
	got := Pearson([]float64{1, math.NaN(), 3}, []float64{2, 5, 6})
	if !almostEqual(got, 1, 1e-12) {
		t.Fatalf("pairwise-complete ρ = %v, want 1", got)
	}
}

// TestPearsonBounds: |ρ| ≤ 1 on random data.
func TestPearsonBounds(t *testing.T) {
	f := func(seed int64) bool {
		state := uint64(seed) | 1
		next := func() float64 {
			state ^= state << 13
			state ^= state >> 7
			state ^= state << 17
			return float64(state%1000) / 100
		}
		a := make([]float64, 50)
		b := make([]float64, 50)
		for i := range a {
			a[i], b[i] = next(), next()
		}
		rho := Pearson(a, b)
		return math.IsNaN(rho) || (rho >= -1-1e-9 && rho <= 1+1e-9)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func TestRMSE(t *testing.T) {
	if got := RMSE([]float64{1, 2, 3}, []float64{1, 2, 3}); got != 0 {
		t.Fatalf("identical RMSE = %v, want 0", got)
	}
	if got := RMSE([]float64{0, 0}, []float64{3, 4}); !almostEqual(got, math.Sqrt(12.5), 1e-12) {
		t.Fatalf("RMSE = %v, want √12.5", got)
	}
	if got := RMSE([]float64{1, math.NaN()}, []float64{2, 5}); got != 1 {
		t.Fatalf("missing-skipping RMSE = %v, want 1", got)
	}
	if got := RMSE(nil, nil); !math.IsNaN(got) {
		t.Fatal("empty RMSE must be NaN")
	}
}

func TestMAE(t *testing.T) {
	if got := MAE([]float64{1, 2}, []float64{2, 0}); !almostEqual(got, 1.5, 1e-12) {
		t.Fatalf("MAE = %v, want 1.5", got)
	}
	if got := MAE([]float64{math.NaN()}, []float64{1}); !math.IsNaN(got) {
		t.Fatal("no comparable positions must be NaN")
	}
}

// TestRMSEDominatesMAE: RMSE ≥ MAE always.
func TestRMSEDominatesMAE(t *testing.T) {
	f := func(seed int64) bool {
		state := uint64(seed) | 1
		next := func() float64 {
			state ^= state << 13
			state ^= state >> 7
			state ^= state << 17
			return float64(state%200) - 100
		}
		a := make([]float64, 30)
		b := make([]float64, 30)
		for i := range a {
			a[i], b[i] = next(), next()
		}
		return RMSE(a, b) >= MAE(a, b)-1e-9
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

func TestAutocorrelation(t *testing.T) {
	n := 400
	s := make([]float64, n)
	for i := range s {
		s[i] = math.Sin(2 * math.Pi * float64(i) / 100)
	}
	if got := Autocorrelation(s, 100); !almostEqual(got, 1, 1e-6) {
		t.Fatalf("full-period autocorr = %v, want 1", got)
	}
	if got := Autocorrelation(s, 50); !almostEqual(got, -1, 1e-6) {
		t.Fatalf("half-period autocorr = %v, want −1", got)
	}
	if got := Autocorrelation(s, n); !math.IsNaN(got) {
		t.Fatal("lag ≥ length must be NaN")
	}
}

func TestQuantile(t *testing.T) {
	xs := []float64{4, 1, 3, 2}
	if got := Quantile(xs, 0); got != 1 {
		t.Fatalf("q0 = %v, want 1", got)
	}
	if got := Quantile(xs, 1); got != 4 {
		t.Fatalf("q1 = %v, want 4", got)
	}
	if got := Quantile(xs, 0.5); !almostEqual(got, 2.5, 1e-12) {
		t.Fatalf("median = %v, want 2.5", got)
	}
	if got := Quantile([]float64{7}, 0.3); got != 7 {
		t.Fatalf("single-element quantile = %v, want 7", got)
	}
	if got := Quantile(nil, 0.5); !math.IsNaN(got) {
		t.Fatal("empty quantile must be NaN")
	}
	if got := Quantile(xs, 1.5); !math.IsNaN(got) {
		t.Fatal("out-of-range q must be NaN")
	}
	if got := Quantile([]float64{math.NaN(), 5}, 0.5); got != 5 {
		t.Fatalf("NaN-skipping quantile = %v, want 5", got)
	}
}
