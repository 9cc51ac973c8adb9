package cd

import (
	"fmt"
	"math"

	"tkcm/internal/linalg"
)

// Config parameterizes the CD recovery. The TKCM paper notes CD "has no
// parameters to tune" (Sec. 7.1); the fields here fix the internals (rank
// truncation and iteration control) at the conventional values.
type Config struct {
	// Truncate is the number of leading centroid components kept in the
	// reconstruction; 0 selects the rank automatically: the smallest rank
	// whose components capture EnergyThreshold of the squared centroid
	// values (CDRec-style automatic rank detection). Keeping too many
	// components makes the reconstruction reproduce the initialization of
	// the missing entries exactly, so the truncation must be strict.
	Truncate int
	// EnergyThreshold is the captured-energy fraction for automatic rank
	// detection (default 0.95).
	EnergyThreshold float64
	// MaxIter bounds the decompose→reconstruct iterations.
	MaxIter int
	// Tol stops iterating once the Frobenius norm of the change of the
	// imputed entries falls below Tol.
	Tol float64
}

// DefaultConfig returns conventional CD recovery settings.
func DefaultConfig() Config {
	return Config{Truncate: 0, EnergyThreshold: 0.95, MaxIter: 100, Tol: 1e-5}
}

// Recover fills the missing entries (NaN) of data, a tick-major matrix
// (data[t][j] = value of series j at tick t), and returns the completed
// copy. The original matrix is not modified.
func Recover(cfg Config, data [][]float64) ([][]float64, error) {
	if cfg.MaxIter <= 0 {
		cfg.MaxIter = 100
	}
	if cfg.Tol <= 0 {
		cfg.Tol = 1e-5
	}
	n := len(data)
	if n == 0 {
		return nil, nil
	}
	m := len(data[0])
	for i, row := range data {
		if len(row) != m {
			return nil, fmt.Errorf("cd: ragged row %d: %d != %d", i, len(row), m)
		}
	}
	x := linalg.FromRows(data)
	type hole struct{ i, j int }
	var holes []hole
	for i := 0; i < n; i++ {
		for j := 0; j < m; j++ {
			if math.IsNaN(x.At(i, j)) {
				holes = append(holes, hole{i, j})
			}
		}
	}
	if len(holes) == 0 {
		return toRows(x), nil
	}
	// Initialize holes by per-column linear interpolation.
	for j := 0; j < m; j++ {
		col := x.Col(j)
		interpolateColumn(col)
		for i := 0; i < n; i++ {
			x.Set(i, j, col[i])
		}
	}
	keep := cfg.Truncate
	if keep <= 0 {
		keep = autoRank(x, cfg.EnergyThreshold)
	}
	if keep < 1 {
		keep = 1
	}
	if keep > m {
		keep = m
	}
	for iter := 0; iter < cfg.MaxIter; iter++ {
		comps := linalg.CentroidDecomposition(x, keep)
		recon := linalg.ReconstructCentroid(comps, n, m)
		change := 0.0
		for _, h := range holes {
			nv := recon.At(h.i, h.j)
			d := nv - x.At(h.i, h.j)
			change += d * d
			x.Set(h.i, h.j, nv)
		}
		if math.Sqrt(change) < cfg.Tol {
			break
		}
	}
	return toRows(x), nil
}

// autoRank picks the truncation rank: the smallest r whose leading centroid
// components capture `threshold` of the total squared centroid values of a
// full decomposition of the initialized matrix, capped at m−1 so at least
// one component is always dropped (otherwise the iteration cannot move the
// missing entries off their initialization).
func autoRank(x *linalg.Matrix, threshold float64) int {
	if threshold <= 0 || threshold >= 1 {
		threshold = 0.95
	}
	comps := linalg.CentroidDecomposition(x, 0)
	total := 0.0
	for _, c := range comps {
		total += c.Value * c.Value
	}
	if total == 0 {
		return 1
	}
	cum := 0.0
	r := 1
	for i, c := range comps {
		cum += c.Value * c.Value
		if cum/total >= threshold {
			r = i + 1
			break
		}
		r = i + 1
	}
	if max := x.Cols - 1; r > max && max >= 1 {
		r = max
	}
	return r
}

// interpolateColumn fills NaN runs in col by linear interpolation between
// the nearest present neighbours, extending flat at the edges. A column with
// no present value becomes all zeros.
func interpolateColumn(col []float64) {
	n := len(col)
	first := -1
	for i := 0; i < n; i++ {
		if !math.IsNaN(col[i]) {
			first = i
			break
		}
	}
	if first < 0 {
		for i := range col {
			col[i] = 0
		}
		return
	}
	for i := 0; i < first; i++ {
		col[i] = col[first]
	}
	last := first
	for i := first + 1; i < n; i++ {
		if math.IsNaN(col[i]) {
			continue
		}
		if i > last+1 {
			// Fill (last, i) linearly.
			span := float64(i - last)
			for k := last + 1; k < i; k++ {
				frac := float64(k-last) / span
				col[k] = col[last]*(1-frac) + col[i]*frac
			}
		}
		last = i
	}
	for i := last + 1; i < n; i++ {
		col[i] = col[last]
	}
}

func toRows(x *linalg.Matrix) [][]float64 {
	out := make([][]float64, x.Rows)
	for i := 0; i < x.Rows; i++ {
		out[i] = append([]float64(nil), x.Row(i)...)
	}
	return out
}
