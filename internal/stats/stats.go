// Package stats provides the descriptive statistics and error measures used
// throughout the reproduction: means and variances that skip missing values,
// Pearson correlation (Sec. 5.1), RMSE/MAE (Sec. 7), and autocorrelation
// used by the dataset generators' self-checks.
package stats

import (
	"math"
	"sort"
)

// Mean returns the arithmetic mean of xs, skipping NaNs. It returns NaN if
// no non-missing value exists.
func Mean(xs []float64) float64 {
	sum, n := 0.0, 0
	for _, x := range xs {
		if math.IsNaN(x) {
			continue
		}
		sum += x
		n++
	}
	if n == 0 {
		return math.NaN()
	}
	return sum / float64(n)
}

// Variance returns the population variance of xs, skipping NaNs. It returns
// NaN if no non-missing value exists.
func Variance(xs []float64) float64 {
	m := Mean(xs)
	if math.IsNaN(m) {
		return math.NaN()
	}
	sum, n := 0.0, 0
	for _, x := range xs {
		if math.IsNaN(x) {
			continue
		}
		d := x - m
		sum += d * d
		n++
	}
	return sum / float64(n)
}

// Std returns the population standard deviation of xs, skipping NaNs.
func Std(xs []float64) float64 { return math.Sqrt(Variance(xs)) }

// MinMax returns the smallest and largest non-missing values. It returns
// (NaN, NaN) if every value is missing.
func MinMax(xs []float64) (lo, hi float64) {
	lo, hi = math.NaN(), math.NaN()
	for _, x := range xs {
		if math.IsNaN(x) {
			continue
		}
		if math.IsNaN(lo) || x < lo {
			lo = x
		}
		if math.IsNaN(hi) || x > hi {
			hi = x
		}
	}
	return lo, hi
}

// Pearson returns the Pearson correlation coefficient ρ(s, r) over the pairs
// where both values are present (Sec. 5.1). It returns NaN when fewer than
// two complete pairs exist or either side has zero variance.
func Pearson(s, r []float64) float64 {
	n := len(s)
	if len(r) < n {
		n = len(r)
	}
	// First pass: means over complete pairs.
	var ms, mr float64
	cnt := 0
	for i := 0; i < n; i++ {
		if math.IsNaN(s[i]) || math.IsNaN(r[i]) {
			continue
		}
		ms += s[i]
		mr += r[i]
		cnt++
	}
	if cnt < 2 {
		return math.NaN()
	}
	ms /= float64(cnt)
	mr /= float64(cnt)
	var cov, vs, vr float64
	for i := 0; i < n; i++ {
		if math.IsNaN(s[i]) || math.IsNaN(r[i]) {
			continue
		}
		ds, dr := s[i]-ms, r[i]-mr
		cov += ds * dr
		vs += ds * ds
		vr += dr * dr
	}
	if vs == 0 || vr == 0 {
		return math.NaN()
	}
	return cov / (math.Sqrt(vs) * math.Sqrt(vr))
}

// RMSE returns the root mean square error between the truth and the estimate
// over positions where both are present. This is the paper's accuracy
// measure (Sec. 7). It returns NaN if no comparable position exists.
func RMSE(truth, est []float64) float64 {
	n := len(truth)
	if len(est) < n {
		n = len(est)
	}
	sum, cnt := 0.0, 0
	for i := 0; i < n; i++ {
		if math.IsNaN(truth[i]) || math.IsNaN(est[i]) {
			continue
		}
		d := truth[i] - est[i]
		sum += d * d
		cnt++
	}
	if cnt == 0 {
		return math.NaN()
	}
	return math.Sqrt(sum / float64(cnt))
}

// SMAPE returns the symmetric mean absolute percentage error (in percent,
// 0–200) between truth and estimate over positions where both are present:
// mean of 200·|est−truth| / (|truth|+|est|). Positions where both values are
// exactly zero contribute 0 (the estimate is perfect there). It returns NaN
// if no comparable position exists. SMAPE complements RMSE in the accuracy
// gate: it is scale-free, so a regression on a low-amplitude dataset cannot
// hide behind a high-amplitude one.
func SMAPE(truth, est []float64) float64 {
	n := len(truth)
	if len(est) < n {
		n = len(est)
	}
	sum, cnt := 0.0, 0
	for i := 0; i < n; i++ {
		if math.IsNaN(truth[i]) || math.IsNaN(est[i]) {
			continue
		}
		denom := math.Abs(truth[i]) + math.Abs(est[i])
		if denom > 0 {
			sum += 200 * math.Abs(est[i]-truth[i]) / denom
		}
		cnt++
	}
	if cnt == 0 {
		return math.NaN()
	}
	return sum / float64(cnt)
}

// MAE returns the mean absolute error between truth and estimate over
// positions where both are present, or NaN if none exists.
func MAE(truth, est []float64) float64 {
	n := len(truth)
	if len(est) < n {
		n = len(est)
	}
	sum, cnt := 0.0, 0
	for i := 0; i < n; i++ {
		if math.IsNaN(truth[i]) || math.IsNaN(est[i]) {
			continue
		}
		sum += math.Abs(truth[i] - est[i])
		cnt++
	}
	if cnt == 0 {
		return math.NaN()
	}
	return sum / float64(cnt)
}

// Autocorrelation returns the lag-k autocorrelation of xs (NaNs skipped
// pairwise). It returns NaN for k >= len(xs).
func Autocorrelation(xs []float64, k int) float64 {
	if k < 0 || k >= len(xs) {
		return math.NaN()
	}
	return Pearson(xs[:len(xs)-k], xs[k:])
}

// Quantile returns the q-quantile (0 ≤ q ≤ 1) of the non-missing values
// using linear interpolation between order statistics. It returns NaN when
// no non-missing value exists.
func Quantile(xs []float64, q float64) float64 {
	var clean []float64
	for _, x := range xs {
		if !math.IsNaN(x) {
			clean = append(clean, x)
		}
	}
	if len(clean) == 0 || q < 0 || q > 1 {
		return math.NaN()
	}
	sort.Float64s(clean)
	if len(clean) == 1 {
		return clean[0]
	}
	pos := q * float64(len(clean)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	if lo == hi {
		return clean[lo]
	}
	frac := pos - float64(lo)
	return clean[lo]*(1-frac) + clean[hi]*frac
}
