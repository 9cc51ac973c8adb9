package spirit

import (
	"math"
	"testing"

	"tkcm/internal/linalg"
	"tkcm/internal/stats"
)

func TestNewTrackerValidation(t *testing.T) {
	cases := []Config{
		{HiddenVariables: 0, AROrder: 6, Lambda: 1},
		{HiddenVariables: 4, AROrder: 6, Lambda: 1}, // k > width
		{HiddenVariables: 2, AROrder: 0, Lambda: 1},
		{HiddenVariables: 2, AROrder: 6, Lambda: 0},
		{HiddenVariables: 2, AROrder: 6, Lambda: 1.1},
	}
	for i, cfg := range cases {
		if _, err := NewTracker(cfg, 3); err == nil {
			t.Errorf("case %d: invalid config %+v accepted", i, cfg)
		}
	}
}

func TestStepWidthMismatchPanics(t *testing.T) {
	tr, err := NewTracker(DefaultConfig(), 3)
	if err != nil {
		t.Fatal(err)
	}
	defer func() {
		if recover() == nil {
			t.Fatal("width mismatch accepted")
		}
	}()
	tr.Step([]float64{1, 2})
}

// TestTracksRankOneSubspace: on streams that are exact multiples of one
// hidden signal, the leading weight vector must align with the true
// participation direction.
func TestTracksRankOneSubspace(t *testing.T) {
	cfg := Config{HiddenVariables: 1, AROrder: 4, Lambda: 1}
	tr, err := NewTracker(cfg, 3)
	if err != nil {
		t.Fatal(err)
	}
	true_ := []float64{1, 2, -1}
	linalg.Scale(true_, 1/linalg.Norm2(true_))
	for i := 0; i < 2000; i++ {
		h := math.Sin(2 * math.Pi * float64(i) / 37)
		tr.Step([]float64{h * true_[0] * linalg.Norm2([]float64{1, 2, -1}), h * 2, h * -1})
	}
	w := tr.Weights()[0]
	// Alignment up to sign.
	cos := math.Abs(linalg.Dot(w, true_))
	if cos < 0.99 {
		t.Fatalf("weight alignment |cos| = %v, want ≈ 1 (w = %v)", cos, w)
	}
}

// TestImputesLinearlyCorrelatedStreams: the regime SPIRIT is designed for —
// co-evolving linearly correlated streams — must recover well.
func TestImputesLinearlyCorrelatedStreams(t *testing.T) {
	const n = 3000
	data := make([][]float64, n)
	var truth []float64
	for i := 0; i < n; i++ {
		h := math.Sin(2*math.Pi*float64(i)/288) + 0.3*math.Sin(2*math.Pi*float64(i)/41)
		row := []float64{2 * h, -h, 0.5 * h}
		if i >= 2500 && i < 2560 {
			truth = append(truth, row[0])
			row[0] = math.NaN()
		}
		data[i] = row
	}
	out, err := Recover(DefaultConfig(), data)
	if err != nil {
		t.Fatal(err)
	}
	rec := make([]float64, 60)
	for i := range rec {
		rec[i] = out[2500+i][0]
	}
	if rmse := stats.RMSE(truth, rec); rmse > 0.25 {
		t.Fatalf("RMSE on linearly correlated streams = %v, want small", rmse)
	}
}

// TestWeightsStayNormalized: the participation weights must remain unit
// vectors under long streaming (the explicit renormalization).
func TestWeightsStayNormalized(t *testing.T) {
	tr, err := NewTracker(DefaultConfig(), 4)
	if err != nil {
		t.Fatal(err)
	}
	state := uint64(3)
	next := func() float64 {
		state ^= state << 13
		state ^= state >> 7
		state ^= state << 17
		return float64(state%2000)/100 - 10
	}
	for i := 0; i < 5000; i++ {
		tr.Step([]float64{next(), next(), next(), next()})
	}
	for i, w := range tr.Weights() {
		if math.Abs(linalg.Norm2(w)-1) > 1e-6 {
			t.Fatalf("weight %d has norm %v", i, linalg.Norm2(w))
		}
	}
}

func TestPassThroughWhenPresent(t *testing.T) {
	tr, err := NewTracker(DefaultConfig(), 2)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 40; i++ {
		out := tr.Step([]float64{float64(i), float64(-i)})
		if out[0] != float64(i) || out[1] != float64(-i) {
			t.Fatalf("tick %d: present values altered: %v", i, out)
		}
	}
}

func TestImputationsStayFinite(t *testing.T) {
	const n = 2000
	data := make([][]float64, n)
	for i := 0; i < n; i++ {
		h := math.Sin(float64(i) / 13)
		row := []float64{h, h * 2, -h}
		if i >= 300 { // long gap, imputed feedback throughout
			row[0] = math.NaN()
		}
		data[i] = row
	}
	out, err := Recover(DefaultConfig(), data)
	if err != nil {
		t.Fatal(err)
	}
	for i, row := range out {
		if math.IsNaN(row[0]) || math.IsInf(row[0], 0) {
			t.Fatalf("tick %d: non-finite imputation %v", i, row[0])
		}
	}
}

func TestRecoverEmpty(t *testing.T) {
	out, err := Recover(DefaultConfig(), nil)
	if err != nil || out != nil {
		t.Fatalf("empty recover = %v, %v", out, err)
	}
}
