package cd

import (
	"math"
	"testing"

	"tkcm/internal/linalg"
	"tkcm/internal/stats"
)

// TestRecoversLinearlyCorrelatedBlock: on noiseless linearly correlated
// streams, CD recovery must be near-exact — the regime the decomposition is
// designed for (Khayati et al.).
func TestRecoversLinearlyCorrelatedBlock(t *testing.T) {
	const n = 2000
	data := make([][]float64, n)
	var truth []float64
	for i := 0; i < n; i++ {
		x := float64(i) * 2 * math.Pi / 288
		base := math.Sin(x) + 0.4*math.Sin(3*x+1)
		row := []float64{base, 1.5*base + 1, 0.8*base - 2, 2 * base}
		if i >= 1000 && i < 1288 {
			truth = append(truth, row[0])
			row[0] = math.NaN()
		}
		data[i] = row
	}
	out, err := Recover(DefaultConfig(), data)
	if err != nil {
		t.Fatal(err)
	}
	rec := make([]float64, 288)
	for i := range rec {
		rec[i] = out[1000+i][0]
	}
	if rmse := stats.RMSE(truth, rec); rmse > 1e-3 {
		t.Fatalf("RMSE = %v, want ≈ 0 on noiseless linear data", rmse)
	}
}

func TestRecoverNoHolesIsIdentity(t *testing.T) {
	data := [][]float64{{1, 2}, {3, 4}, {5, 6}}
	out, err := Recover(DefaultConfig(), data)
	if err != nil {
		t.Fatal(err)
	}
	for i, row := range data {
		for j, v := range row {
			if out[i][j] != v {
				t.Fatalf("(%d,%d) = %v, want %v", i, j, out[i][j], v)
			}
		}
	}
	// And the input must not be aliased.
	out[0][0] = 99
	if data[0][0] != 1 {
		t.Fatal("Recover must not alias its input")
	}
}

func TestRecoverRaggedRowsRejected(t *testing.T) {
	if _, err := Recover(DefaultConfig(), [][]float64{{1, 2}, {3}}); err == nil {
		t.Fatal("ragged matrix accepted")
	}
}

func TestRecoverEmpty(t *testing.T) {
	out, err := Recover(DefaultConfig(), nil)
	if err != nil || out != nil {
		t.Fatalf("empty recover = %v, %v", out, err)
	}
}

func TestInterpolateColumn(t *testing.T) {
	col := []float64{math.NaN(), 1, math.NaN(), math.NaN(), 4, math.NaN()}
	interpolateColumn(col)
	want := []float64{1, 1, 2, 3, 4, 4}
	for i, v := range want {
		if math.Abs(col[i]-v) > 1e-12 {
			t.Fatalf("col[%d] = %v, want %v (col = %v)", i, col[i], v, col)
		}
	}
	all := []float64{math.NaN(), math.NaN()}
	interpolateColumn(all)
	if all[0] != 0 || all[1] != 0 {
		t.Fatalf("all-missing column = %v, want zeros", all)
	}
}

func TestAutoRankDetectsLowRank(t *testing.T) {
	// Rank-1 data: automatic truncation must pick 1 component.
	const n = 300
	data := make([][]float64, n)
	for i := 0; i < n; i++ {
		h := math.Sin(float64(i) / 9)
		data[i] = []float64{h, 2 * h, -h, 0.5 * h}
	}
	x := linalg.FromRows(data)
	if r := autoRank(x, 0.95); r != 1 {
		t.Fatalf("autoRank = %d, want 1 for rank-one data", r)
	}
	// Degenerate thresholds fall back to the default.
	if r := autoRank(x, 0); r != 1 {
		t.Fatalf("autoRank with bad threshold = %d, want 1", r)
	}
}

func TestAutoRankCapsAtColsMinusOne(t *testing.T) {
	// Full-rank random-ish data: the cap must leave at least one component
	// dropped.
	const n = 50
	state := uint64(5)
	next := func() float64 {
		state ^= state << 13
		state ^= state >> 7
		state ^= state << 17
		return float64(state%2000)/100 - 10
	}
	data := make([][]float64, n)
	for i := range data {
		data[i] = []float64{next(), next(), next()}
	}
	x := linalg.FromRows(data)
	if r := autoRank(x, 0.9999); r > 2 {
		t.Fatalf("autoRank = %d, must be ≤ cols−1 = 2", r)
	}
}
