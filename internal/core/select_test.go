package core

import (
	"math"
	"reflect"
	"slices"
	"testing"
	"testing/quick"
)

// TestFig8Golden replays the paper's Fig. 8 worked example: profile
// D = [0.5, 0.3, 2.1, 0.7, 4.0] with l = 3, k = 2 must select the patterns
// P(t6) and P(t9) (candidate indices 0 and 3) with sum 1.2.
func TestFig8Golden(t *testing.T) {
	idx, sum, ok := selectDP(fig8D, 2, 3)
	if !ok {
		t.Fatal("selectDP reported infeasible")
	}
	if !reflect.DeepEqual(idx, []int{0, 3}) {
		t.Fatalf("anchors = %v, want [0 3] (P(t6), P(t9))", idx)
	}
	if math.Abs(sum-1.2) > 1e-12 {
		t.Fatalf("sum = %v, want 1.2", sum)
	}
}

// TestFig8GreedyDiffers demonstrates the Sec. 6.1 claim on the Fig. 8 data:
// greedy takes the smallest-dissimilarity candidate (index 1, D = 0.3),
// which blocks index 0 and forces index 3, for a total of 1.0... and here
// greedy actually wins? No: 0.3 overlaps candidates 0..3? With l = 3,
// candidate 1 blocks candidates within |i−j| < 3, i.e. 0..3, leaving only
// candidate 4 (D = 4.0): total 4.3 > 1.2. The DP avoids this trap.
func TestFig8GreedyDiffers(t *testing.T) {
	idx, sum, ok := selectGreedy(fig8D, 2, 3, nil)
	if !ok {
		t.Fatal("greedy reported infeasible")
	}
	if !reflect.DeepEqual(idx, []int{1, 4}) {
		t.Fatalf("greedy anchors = %v, want [1 4]", idx)
	}
	if math.Abs(sum-4.3) > 1e-12 {
		t.Fatalf("greedy sum = %v, want 4.3", sum)
	}
	_, dpSum, _ := selectDP(fig8D, 2, 3)
	if dpSum >= sum {
		t.Fatalf("DP sum %v not better than greedy %v", dpSum, sum)
	}
}

func TestSelectOverlapping(t *testing.T) {
	idx, sum, ok := selectOverlapping([]float64{5, 1, 1.1, 9, 1.2}, 3, nil)
	if !ok {
		t.Fatal("overlapping selection reported infeasible")
	}
	if !reflect.DeepEqual(idx, []int{1, 2, 4}) {
		t.Fatalf("anchors = %v, want [1 2 4]", idx)
	}
	if math.Abs(sum-3.3) > 1e-12 {
		t.Fatalf("sum = %v, want 3.3", sum)
	}
}

func TestSelectDPInfeasible(t *testing.T) {
	// 5 candidates, l = 3: at most 2 non-overlapping patterns fit.
	if _, _, ok := selectDP(fig8D, 3, 3); ok {
		t.Fatal("selectDP accepted an infeasible k")
	}
	if _, _, ok := selectGreedy(fig8D, 3, 3, nil); ok {
		t.Fatal("selectGreedy accepted an infeasible k")
	}
	if _, _, ok := selectOverlapping(fig8D, 6, nil); ok {
		t.Fatal("selectOverlapping accepted k > candidates")
	}
}

func TestSelectDPSingleAnchor(t *testing.T) {
	idx, sum, ok := selectDP([]float64{3, 1, 2}, 1, 5)
	if !ok || !reflect.DeepEqual(idx, []int{1}) || sum != 1 {
		t.Fatalf("got idx=%v sum=%v ok=%v, want [1] 1 true", idx, sum, ok)
	}
}

func TestSelectDPNonOverlapInvariant(t *testing.T) {
	f := func(seed int64, kRaw, lRaw uint8) bool {
		n := 40
		l := int(lRaw)%6 + 1
		k := int(kRaw)%4 + 1
		d := randomProfile(seed, n)
		idx, _, ok := selectDP(d, k, l)
		if !ok {
			// Feasibility: n candidates host ⌈n/l⌉ disjoint patterns.
			return (n-1)/l+1 < k
		}
		if len(idx) != k {
			return false
		}
		for i := 1; i < len(idx); i++ {
			if idx[i]-idx[i-1] < l {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

// TestSelectDPOptimal compares the DP against exhaustive search on small
// random profiles: the DP must achieve the minimum sum over all k-subsets of
// pairwise non-overlapping candidates (Def. 3 condition 3).
func TestSelectDPOptimal(t *testing.T) {
	f := func(seed int64, kRaw, lRaw uint8) bool {
		n := 14
		l := int(lRaw)%4 + 1
		k := int(kRaw)%3 + 1
		d := randomProfile(seed, n)
		_, dpSum, dpOK := selectDP(d, k, l)
		bestSum, found := bruteForceMin(d, k, l)
		if dpOK != found {
			return false
		}
		if !dpOK {
			return true
		}
		return math.Abs(dpSum-bestSum) < 1e-9
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

// TestGreedyNeverBeatsDP: on any profile, the greedy sum is ≥ the DP sum.
func TestGreedyNeverBeatsDP(t *testing.T) {
	f := func(seed int64, lRaw uint8) bool {
		n := 30
		l := int(lRaw)%5 + 1
		k := 3
		d := randomProfile(seed, n)
		_, dpSum, dpOK := selectDP(d, k, l)
		_, gSum, gOK := selectGreedy(d, k, l, nil)
		if !dpOK || !gOK {
			return dpOK == gOK || dpOK // DP must be feasible whenever greedy is
		}
		return dpSum <= gSum+1e-9
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

// bruteForceMin enumerates all k-subsets of candidates with pairwise anchor
// distance ≥ l and returns the minimal sum.
func bruteForceMin(d []float64, k, l int) (float64, bool) {
	best := math.Inf(1)
	found := false
	var rec func(start int, left int, sum float64)
	rec = func(start, left int, sum float64) {
		if left == 0 {
			if sum < best {
				best = sum
			}
			found = true
			return
		}
		for j := start; j <= len(d)-1; j++ {
			rec(j+l, left-1, sum+d[j])
		}
	}
	rec(0, k, 0)
	return best, found
}

func randomProfile(seed int64, n int) []float64 {
	state := uint64(seed)*6364136223846793005 + 1442695040888963407
	out := make([]float64, n)
	for i := range out {
		state ^= state << 13
		state ^= state >> 7
		state ^= state << 17
		out[i] = float64(state%1000) / 100
	}
	return out
}

// selectDPReference is the textbook Eq. 5 fill and backtrack, one table
// entry at a time with the max(j−l, 0) clamp in the loop. It is the oracle
// selectDPInto's prefix-minimum rows must match bit for bit.
func selectDPReference(d []float64, k, l int) (idx []int, sum float64, ok bool) {
	n := len(d)
	if n == 0 || k <= 0 {
		return nil, 0, k <= 0
	}
	row := n + 1
	m := make([]float64, (k+1)*row)
	for i := 1; i <= k; i++ {
		for j := 0; j <= n; j++ {
			if i > j {
				m[i*row+j] = math.Inf(1)
				continue
			}
			skip := m[i*row+j-1]
			prev := j - l
			if prev < 0 {
				prev = 0
			}
			take := d[j-1] + m[(i-1)*row+prev]
			if take < skip {
				m[i*row+j] = take
			} else {
				m[i*row+j] = skip
			}
		}
	}
	sum = m[k*row+n]
	if math.IsInf(sum, 1) {
		return nil, 0, false
	}
	i, j := k, n
	for i > 0 {
		if j > i && m[i*row+j] == m[i*row+j-1] {
			j--
			continue
		}
		idx = append(idx, j-1)
		i--
		j -= l
		if j < 0 {
			j = 0
		}
	}
	slices.Reverse(idx)
	return idx, sum, true
}

// TestSelectDPMatchesReference: the two-row prefix-minimum DP must reproduce
// the textbook table's sum (bit for bit), feasibility and every chosen index,
// on random profiles and on quantized ones whose many exact ties exercise
// the skip-on-equality rule — across lengths around l, the served n = 3889,
// k up to infeasible (and up to 65 at l = 1, n = 3889), and one selection
// scratch reused across calls, from larger (n, k) to smaller and back, so
// stale rows or take bits cannot leak into a result.
func TestSelectDPMatchesReference(t *testing.T) {
	var sc selectScratch
	check := func(name string, d []float64, k, l int, seed int64) {
		t.Helper()
		wantIdx, wantSum, wantOK := selectDPReference(d, k, l)
		gotIdx, gotSum, gotOK := selectDPInto(d, k, l, &sc)
		if gotOK != wantOK || math.Float64bits(gotSum) != math.Float64bits(wantSum) || !slices.Equal(gotIdx, wantIdx) {
			t.Fatalf("%s l=%d n=%d k=%d seed=%d: got (%v, %v, %v), want (%v, %v, %v)",
				name, l, len(d), k, seed, gotIdx, gotSum, gotOK, wantIdx, wantSum, wantOK)
		}
	}
	for _, l := range []int{1, 2, 24, 72} {
		for _, n := range []int{1, l - 1, l, l + 1, 881, 3889} {
			maxK := 10
			if l == 1 && n == 3889 {
				maxK = 65
			}
			for seed := int64(0); seed < 2; seed++ {
				random := randomProfile(seed+int64(31*n+l), n)
				quantized := make([]float64, n)
				for j, v := range random {
					quantized[j] = math.Floor(v/2.5) * 0.25 // four levels
				}
				for name, d := range map[string][]float64{"random": random, "quantized": quantized} {
					for k := 1; k <= maxK; k++ {
						check(name, d, k, l, seed)
					}
				}
			}
		}
	}
	big, small := randomProfile(5, 3889), randomProfile(6, 881)
	for _, c := range []struct {
		d    []float64
		k, l int
	}{{big, 10, 24}, {small, 3, 24}, {small, 1, 72}, {big, 10, 24}, {small, 7, 2}, {big, 2, 1}} {
		check("reused", c.d, c.k, c.l, 0)
	}
}
