package dtw

import "math"

// Distance returns the dynamic time warping distance between a and b with
// squared-difference local cost, taking the square root of the accumulated
// cost (so Distance(a, a) = 0 and the value is commensurable with the L2
// pattern dissimilarity). band < 0 disables the Sakoe–Chiba constraint;
// band = 0 forces the diagonal (Euclidean alignment); band > 0 allows
// |i − j| ≤ band.
//
// It returns +Inf when either sequence is empty or the band makes the end
// state unreachable.
func Distance(a, b []float64, band int) float64 {
	n, m := len(a), len(b)
	if n == 0 || m == 0 {
		return math.Inf(1)
	}
	if band < 0 {
		band = n + m // effectively unconstrained
	}
	// The band must at least cover the length difference or no warping path
	// reaches (n-1, m-1).
	if d := n - m; d < 0 {
		d = -d
		if band < d {
			return math.Inf(1)
		}
	} else if band < d {
		return math.Inf(1)
	}
	inf := math.Inf(1)
	prev := make([]float64, m+1)
	curr := make([]float64, m+1)
	for j := 0; j <= m; j++ {
		prev[j] = inf
	}
	prev[0] = 0
	for i := 1; i <= n; i++ {
		curr[0] = inf
		lo := i - band
		if lo < 1 {
			lo = 1
		}
		hi := i + band
		if hi > m {
			hi = m
		}
		for j := 1; j < lo; j++ {
			curr[j] = inf
		}
		for j := lo; j <= hi; j++ {
			d := a[i-1] - b[j-1]
			cost := d * d
			best := prev[j] // insertion
			if prev[j-1] < best {
				best = prev[j-1] // match
			}
			if curr[j-1] < best {
				best = curr[j-1] // deletion
			}
			curr[j] = cost + best
		}
		for j := hi + 1; j <= m; j++ {
			curr[j] = inf
		}
		prev, curr = curr, prev
	}
	return math.Sqrt(prev[m])
}

// BestLag estimates the alignment between series s and r: the circular lag
// in [-maxLag, maxLag] that minimizes the mean squared difference between s
// and r shifted by that lag (positive lag means r trails s by lag ticks).
// It is the cheap cross-correlation-style alignment used to pre-align
// shifted series before imputation with l = 1, per the paper's Sec. 8
// proposal. Ties resolve to the smallest |lag|.
func BestLag(s, r []float64, maxLag int) int {
	n := len(s)
	if len(r) < n {
		n = len(r)
	}
	if n == 0 {
		return 0
	}
	if maxLag >= n {
		maxLag = n - 1
	}
	bestLag, bestCost := 0, math.Inf(1)
	for lag := -maxLag; lag <= maxLag; lag++ {
		sum, cnt := 0.0, 0
		for i := 0; i < n; i++ {
			j := i - lag
			if j < 0 || j >= n {
				continue
			}
			if math.IsNaN(s[i]) || math.IsNaN(r[j]) {
				continue
			}
			d := s[i] - r[j]
			sum += d * d
			cnt++
		}
		if cnt == 0 {
			continue
		}
		cost := sum / float64(cnt)
		if cost < bestCost-1e-12 || (math.Abs(cost-bestCost) <= 1e-12 && abs(lag) < abs(bestLag)) {
			bestCost, bestLag = cost, lag
		}
	}
	return bestLag
}

// Align returns a copy of r shifted by the given lag so it lines up with the
// series it was compared against in BestLag (positive lag shifts r later).
// Vacated positions are filled by extending the boundary value.
func Align(r []float64, lag int) []float64 {
	n := len(r)
	out := make([]float64, n)
	for i := range out {
		j := i - lag
		if j < 0 {
			j = 0
		}
		if j >= n {
			j = n - 1
		}
		out[i] = r[j]
	}
	return out
}

func abs(x int) int {
	if x < 0 {
		return -x
	}
	return x
}
