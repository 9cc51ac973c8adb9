package spirit

import (
	"fmt"
	"math"

	"tkcm/internal/linalg"
)

// Config parameterizes a SPIRIT tracker.
type Config struct {
	// HiddenVariables is the fixed number k of hidden variables (paper
	// comparison setting: 2).
	HiddenVariables int
	// AROrder is the order p of each hidden variable's autoregressive
	// forecaster (paper setting: 6).
	AROrder int
	// Lambda is the exponential forgetting factor for both the PCA weight
	// updates and the AR model RLS updates (paper setting: 1).
	Lambda float64
}

// DefaultConfig returns the settings used in the TKCM paper's evaluation.
func DefaultConfig() Config { return Config{HiddenVariables: 2, AROrder: 6, Lambda: 1} }

// Tracker tracks hidden variables over a fixed set of streams and imputes
// missing values by reconstruction.
type Tracker struct {
	cfg   Config
	width int
	// w[i] is the participation-weight vector of hidden variable i (length
	// width). Maintained approximately orthonormal by the PAST update with
	// deflation.
	w [][]float64
	// d[i] is the energy estimate of hidden variable i.
	d []float64
	// ar[i] forecasts hidden variable i from its own p past values.
	ar []*linalg.RLS
	// hist[i] holds the last AROrder values of hidden variable i (newest
	// last).
	hist [][]float64
	tick int
}

// NewTracker creates a SPIRIT tracker over width streams.
func NewTracker(cfg Config, width int) (*Tracker, error) {
	if cfg.HiddenVariables <= 0 || cfg.HiddenVariables > width {
		return nil, fmt.Errorf("spirit: hidden variables k=%d must be in [1,%d]", cfg.HiddenVariables, width)
	}
	if cfg.AROrder <= 0 {
		return nil, fmt.Errorf("spirit: AR order must be positive, got %d", cfg.AROrder)
	}
	if cfg.Lambda <= 0 || cfg.Lambda > 1 {
		return nil, fmt.Errorf("spirit: forgetting factor λ must be in (0,1], got %g", cfg.Lambda)
	}
	t := &Tracker{cfg: cfg, width: width}
	t.w = make([][]float64, cfg.HiddenVariables)
	t.d = make([]float64, cfg.HiddenVariables)
	t.ar = make([]*linalg.RLS, cfg.HiddenVariables)
	t.hist = make([][]float64, cfg.HiddenVariables)
	for i := 0; i < cfg.HiddenVariables; i++ {
		t.w[i] = make([]float64, width)
		// Initialize with distinct unit vectors so the deflation has
		// independent directions to start from.
		t.w[i][i%width] = 1
		t.d[i] = 1e-3
		t.ar[i] = linalg.NewRLS(cfg.AROrder+1, cfg.Lambda, 1e4)
		t.hist[i] = make([]float64, 0, cfg.AROrder)
	}
	return t, nil
}

// forecastHidden predicts the next value of hidden variable i from its AR
// model; before the model is warm it falls back to the most recent value.
func (t *Tracker) forecastHidden(i int) float64 {
	h := t.hist[i]
	if len(h) < t.cfg.AROrder {
		if len(h) == 0 {
			return 0
		}
		return h[len(h)-1]
	}
	x := t.arFeatures(i)
	return t.ar[i].Predict(x)
}

// estimateHidden estimates the current hidden-variable vector for
// reconstruction. When the observed coordinates of row determine the k
// hidden variables (at least k observed values and a non-singular normal
// system), it solves the least-squares problem
//
//	min_y Σ_{j observed} (row[j] − Σ_i y_i w_i[j])²,
//
// anchoring the estimate on real measurements. Otherwise (or when the
// system is singular) it returns the per-variable AR forecasts.
func (t *Tracker) estimateHidden(row []float64) []float64 {
	k := t.cfg.HiddenVariables
	var obs []int
	for j, v := range row {
		if !math.IsNaN(v) {
			obs = append(obs, j)
		}
	}
	if len(obs) >= k {
		// Normal equations: (Wᵀ_obs W_obs) y = Wᵀ_obs x_obs, where W_obs
		// has one column per hidden variable restricted to observed rows.
		a := linalg.NewMatrix(k, k)
		b := make([]float64, k)
		for i := 0; i < k; i++ {
			for i2 := i; i2 < k; i2++ {
				s := 0.0
				for _, j := range obs {
					s += t.w[i][j] * t.w[i2][j]
				}
				a.Set(i, i2, s)
				a.Set(i2, i, s)
			}
			s := 0.0
			for _, j := range obs {
				s += t.w[i][j] * row[j]
			}
			b[i] = s
		}
		if y, ok := linalg.Solve(a, b); ok {
			return y
		}
	}
	y := make([]float64, k)
	for i := 0; i < k; i++ {
		y[i] = t.forecastHidden(i)
	}
	return y
}

// arFeatures returns [1, y(t-1), ..., y(t-p)] for hidden variable i.
func (t *Tracker) arFeatures(i int) []float64 {
	h := t.hist[i]
	x := make([]float64, 0, t.cfg.AROrder+1)
	x = append(x, 1)
	for lag := 1; lag <= t.cfg.AROrder; lag++ {
		x = append(x, h[len(h)-lag])
	}
	return x
}

// Step consumes one tick of measurements (NaN = missing) and returns the
// completed vector: observed values pass through, missing values are imputed
// from the hidden-variable reconstruction.
func (t *Tracker) Step(row []float64) []float64 {
	if len(row) != t.width {
		panic(fmt.Sprintf("spirit: row width %d != %d", len(row), t.width))
	}
	out := make([]float64, t.width)
	copy(out, row)

	anyMissing := false
	for _, v := range row {
		if math.IsNaN(v) {
			anyMissing = true
			break
		}
	}
	if anyMissing {
		// Estimate the hidden variables, reconstruct x̂ = Σ ŷᵢ wᵢ, and
		// impute the missing coordinates. The hidden-variable estimate
		// anchors on the observed coordinates when they determine it
		// (least squares on the observed subsystem); otherwise it falls
		// back to the AR forecasts. Pure AR feedback alone drifts out of
		// phase over long gaps because an imputed coordinate with a large
		// participation weight dominates its own next estimate.
		y := t.estimateHidden(row)
		recon := make([]float64, t.width)
		for i := 0; i < t.cfg.HiddenVariables; i++ {
			linalg.AXPY(y[i], t.w[i], recon)
		}
		for j := range out {
			if math.IsNaN(out[j]) {
				out[j] = recon[j]
			}
		}
	}

	// PAST update with deflation on the completed vector.
	x := make([]float64, t.width)
	copy(x, out)
	ys := make([]float64, t.cfg.HiddenVariables)
	for i := 0; i < t.cfg.HiddenVariables; i++ {
		wi := t.w[i]
		y := linalg.Dot(wi, x)
		t.d[i] = t.cfg.Lambda*t.d[i] + y*y
		// e = x − y·wᵢ ; wᵢ += (y/dᵢ)·e
		if t.d[i] > 0 {
			g := y / t.d[i]
			for j := range wi {
				wi[j] += g * (x[j] - y*wi[j])
			}
		}
		// Re-normalize to curb drift.
		if n := linalg.Norm2(wi); n > 0 {
			linalg.Scale(wi, 1/n)
		}
		// Deflate the input for the next hidden variable.
		y = linalg.Dot(wi, x)
		ys[i] = y
		linalg.AXPY(-y, wi, x)
	}

	// Train the AR models on the realized hidden-variable values, then push
	// them into the histories.
	for i := 0; i < t.cfg.HiddenVariables; i++ {
		if len(t.hist[i]) >= t.cfg.AROrder {
			feat := t.arFeatures(i)
			t.ar[i].Update(feat, ys[i])
		}
		t.hist[i] = append(t.hist[i], ys[i])
		if len(t.hist[i]) > t.cfg.AROrder {
			t.hist[i] = t.hist[i][1:]
		}
	}
	t.tick++
	return out
}

// Weights returns a copy of the current participation-weight vectors.
func (t *Tracker) Weights() [][]float64 {
	out := make([][]float64, len(t.w))
	for i, wi := range t.w {
		out[i] = append([]float64(nil), wi...)
	}
	return out
}

// Recover imputes all missing values of data (rows = ticks, columns =
// streams) by streaming through it and returns the completed copy.
func Recover(cfg Config, data [][]float64) ([][]float64, error) {
	if len(data) == 0 {
		return nil, nil
	}
	tr, err := NewTracker(cfg, len(data[0]))
	if err != nil {
		return nil, err
	}
	out := make([][]float64, len(data))
	for i, row := range data {
		out[i] = tr.Step(row)
	}
	return out, nil
}
