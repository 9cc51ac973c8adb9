package baseline

import (
	"math"
	"sort"
)

// Interpolate returns a copy of xs with every gap filled by linear
// interpolation between the nearest present neighbours, extending flat at
// the boundaries. A fully missing input becomes all zeros.
func Interpolate(xs []float64) []float64 {
	out := make([]float64, len(xs))
	copy(out, xs)
	n := len(out)
	first := -1
	for i := 0; i < n; i++ {
		if !math.IsNaN(out[i]) {
			first = i
			break
		}
	}
	if first < 0 {
		for i := range out {
			out[i] = 0
		}
		return out
	}
	for i := 0; i < first; i++ {
		out[i] = out[first]
	}
	last := first
	for i := first + 1; i < n; i++ {
		if math.IsNaN(out[i]) {
			continue
		}
		if i > last+1 {
			span := float64(i - last)
			for k := last + 1; k < i; k++ {
				frac := float64(k-last) / span
				out[k] = out[last]*(1-frac) + out[i]*frac
			}
		}
		last = i
	}
	for i := last + 1; i < n; i++ {
		out[i] = out[last]
	}
	return out
}

// KNNIConfig parameterizes kNNI.
type KNNIConfig struct {
	// K is the number of neighbours averaged (Batista & Monard use small k).
	K int
	// Weighted applies inverse-distance weighting (Troyanskaya et al.).
	Weighted bool
}

// KNNI imputes the missing entries of the target column of data (rows =
// observations/ticks, columns = attributes/streams). For each row with a
// missing target, it finds the K rows most similar on the non-missing,
// non-target attributes (Euclidean distance over commonly present
// attributes) whose target is present, and averages their targets.
//
// This is the multi-attribute-object method of Sec. 2 applied to the stream
// setting by treating each tick as an object — exactly the l = 1 degenerate
// case TKCM generalizes.
func KNNI(cfg KNNIConfig, data [][]float64, target int) []float64 {
	if cfg.K <= 0 {
		cfg.K = 5
	}
	n := len(data)
	out := make([]float64, n)
	// Candidate rows: target present.
	var donors []int
	for i, row := range data {
		out[i] = row[target]
		if !math.IsNaN(row[target]) {
			donors = append(donors, i)
		}
	}
	for i, row := range data {
		if !math.IsNaN(row[target]) {
			continue
		}
		type nb struct {
			dist float64
			val  float64
		}
		var nbs []nb
		for _, j := range donors {
			d, ok := rowDistance(row, data[j], target)
			if !ok {
				continue
			}
			nbs = append(nbs, nb{d, data[j][target]})
		}
		if len(nbs) == 0 {
			out[i] = math.NaN()
			continue
		}
		sort.Slice(nbs, func(a, b int) bool { return nbs[a].dist < nbs[b].dist })
		if len(nbs) > cfg.K {
			nbs = nbs[:cfg.K]
		}
		if cfg.Weighted {
			num, den := 0.0, 0.0
			for _, nbv := range nbs {
				w := 1.0 / (nbv.dist + 1e-9)
				num += w * nbv.val
				den += w
			}
			out[i] = num / den
		} else {
			sum := 0.0
			for _, nbv := range nbs {
				sum += nbv.val
			}
			out[i] = sum / float64(len(nbs))
		}
	}
	return out
}

// rowDistance is the Euclidean distance between two rows over the attributes
// (excluding the target) present in both; ok is false when no attribute is
// comparable.
func rowDistance(a, b []float64, target int) (float64, bool) {
	sum, cnt := 0.0, 0
	for j := range a {
		if j == target {
			continue
		}
		if math.IsNaN(a[j]) || math.IsNaN(b[j]) {
			continue
		}
		d := a[j] - b[j]
		sum += d * d
		cnt++
	}
	if cnt == 0 {
		return 0, false
	}
	// Normalize by the number of comparable attributes so rows with
	// different missingness are commensurable.
	return math.Sqrt(sum / float64(cnt)), true
}
