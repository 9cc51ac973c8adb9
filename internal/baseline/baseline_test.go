package baseline

import (
	"math"
	"testing"
	"testing/quick"

	"tkcm/internal/stats"
	"tkcm/internal/timeseries"
)

var nan = math.NaN()

func TestInterpolate(t *testing.T) {
	got := Interpolate([]float64{nan, 1, nan, nan, 4, nan})
	want := []float64{1, 1, 2, 3, 4, 4}
	for i := range want {
		if math.Abs(got[i]-want[i]) > 1e-12 {
			t.Fatalf("got %v, want %v", got, want)
		}
	}
	if got := Interpolate([]float64{nan}); got[0] != 0 {
		t.Fatalf("all-missing got %v", got)
	}
}

// TestInterpolatePreservesPresent: interpolation never changes observed
// values, and fills every gap with values inside the bracketing range.
func TestInterpolatePreservesPresent(t *testing.T) {
	f := func(mask uint16, seed int64) bool {
		n := 16
		xs := make([]float64, n)
		state := uint64(seed) | 1
		for i := range xs {
			state ^= state << 13
			state ^= state >> 7
			state ^= state << 17
			if mask&(1<<i) != 0 {
				xs[i] = nan
			} else {
				xs[i] = float64(state % 100)
			}
		}
		out := Interpolate(xs)
		for i, v := range xs {
			if !math.IsNaN(v) && out[i] != v {
				return false
			}
			if math.IsNaN(out[i]) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

// TestInterpolateLongGapSineFailure demonstrates the Sec. 2 observation: a
// missing full sine period interpolates to a near-straight line with a large
// error — the motivating failure of interpolation on long gaps.
func TestInterpolateLongGapSineFailure(t *testing.T) {
	const period = 100
	n := 3 * period
	xs := make([]float64, n)
	truth := make([]float64, 0, period)
	for i := range xs {
		xs[i] = math.Sin(2 * math.Pi * float64(i) / period)
	}
	for i := period; i < 2*period; i++ {
		truth = append(truth, xs[i])
		xs[i] = nan
	}
	out := Interpolate(xs)
	rmse := stats.RMSE(truth, out[period:2*period])
	// RMS of a sine is 1/√2 ≈ 0.707; the straight-line fill must leave
	// nearly all of it.
	if rmse < 0.5 {
		t.Fatalf("interpolation over a full period has RMSE %v; expected ≈ 0.7", rmse)
	}
}

func TestKNNIRecoverLinearRelation(t *testing.T) {
	const n = 500
	data := make([][]float64, n)
	var truthIdx []int
	var truth []float64
	for i := 0; i < n; i++ {
		x := math.Sin(2 * math.Pi * float64(i) / 97)
		y := math.Cos(2 * math.Pi * float64(i) / 61)
		row := []float64{x + y, x, y}
		if i%10 == 3 {
			truthIdx = append(truthIdx, i)
			truth = append(truth, row[0])
			row[0] = nan
		}
		data[i] = row
	}
	out := KNNI(KNNIConfig{K: 3, Weighted: true}, data, 0)
	var rec []float64
	for _, i := range truthIdx {
		rec = append(rec, out[i])
	}
	if rmse := stats.RMSE(truth, rec); rmse > 0.05 {
		t.Fatalf("kNNI RMSE = %v, want small on dense attribute space", rmse)
	}
}

func TestKNNIUnweightedAveragesNeighbours(t *testing.T) {
	data := [][]float64{
		{10, 1.0},
		{20, 1.1},
		{nan, 1.05},
		{99, 9.0},
	}
	out := KNNI(KNNIConfig{K: 2}, data, 0)
	if math.Abs(out[2]-15) > 1e-9 {
		t.Fatalf("imputed %v, want 15 (mean of the two nearest donors)", out[2])
	}
}

func TestKNNIDefaultsAndNoDonors(t *testing.T) {
	// K ≤ 0 falls back to 5; with no comparable attribute the value stays
	// missing.
	data := [][]float64{
		{nan, nan},
		{5, nan},
	}
	out := KNNI(KNNIConfig{}, data, 0)
	if !math.IsNaN(out[0]) {
		t.Fatalf("imputed %v with no comparable attributes, want NaN", out[0])
	}
	if out[1] != 5 {
		t.Fatalf("present value altered: %v", out[1])
	}
}

func TestRowDistanceNormalizes(t *testing.T) {
	a := []float64{0, 1, 1, nan}
	b := []float64{0, 2, 2, 7}
	d1, ok1 := rowDistance(a, b, 0)
	if !ok1 {
		t.Fatal("comparable rows reported incomparable")
	}
	// Two comparable attributes each differing by 1 → normalized distance 1.
	if math.Abs(d1-1) > 1e-12 {
		t.Fatalf("distance = %v, want 1", d1)
	}
	_, ok := rowDistance([]float64{0, nan}, []float64{0, 1}, 0)
	if ok {
		t.Fatal("incomparable rows reported comparable")
	}
}

func TestBaselinesLeaveInputUntouched(t *testing.T) {
	orig := []float64{1, nan, 3}
	in := append([]float64(nil), orig...)
	Interpolate(in)
	if !timeseries.IsMissing(in[1]) || in[0] != 1 || in[2] != 3 {
		t.Fatal("baseline imputers must not mutate their input")
	}
}
