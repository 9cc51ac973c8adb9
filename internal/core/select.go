package core

import (
	"math"
	"slices"
	"sort"
)

// orderByDissimilarity sorts order ascending by d (index ascending on
// ties — a total order, so stability is irrelevant) without the
// reflection-closure allocations of sort.Slice.
func orderByDissimilarity(order []int, d []float64) {
	slices.SortFunc(order, func(a, b int) int {
		switch {
		case d[a] < d[b]:
			return -1
		case d[a] > d[b]:
			return 1
		default:
			return a - b
		}
	})
}

// selectScratch provides reusable storage for anchor selection so hot
// callers avoid per-imputation allocations: the flat DP table, the
// sort-order permutation of the greedy/overlapping strategies, and the
// chosen-index slice every strategy returns. The zero value is ready to use;
// buffers grow on first use and are reused afterwards. Selections performed
// with the same scratch overwrite each other's returned index slice.
type selectScratch struct {
	dp    []float64
	order []int
	idx   []int
}

// idxBuf returns a length-0, capacity-≥k index slice backed by the scratch
// (freshly allocated when sc is nil).
func (sc *selectScratch) idxBuf(k int) []int {
	if sc == nil {
		return make([]int, 0, k)
	}
	if cap(sc.idx) < k {
		sc.idx = make([]int, 0, k)
	}
	return sc.idx[:0]
}

// orderBuf returns a length-n order slice backed by the scratch.
func (sc *selectScratch) orderBuf(n int) []int {
	if sc == nil {
		return make([]int, n)
	}
	if cap(sc.order) < n {
		sc.order = make([]int, n)
	}
	return sc.order[:n]
}

// selectAnchors picks k anchors from the dissimilarity profile d (d[j] is
// the dissimilarity of the j-th candidate pattern, whose anchor sits at
// window-local index l-1+j) under the configured strategy. It returns the
// chosen candidate indices (ascending) and the sum of their dissimilarities.
// ok is false when fewer than k anchors can be selected under the strategy's
// constraints.
// sc, when non-nil, provides reusable storage for the DP table, the sort
// order, and the returned index slice (which then aliases the scratch and is
// valid until the next selection with the same scratch).
func selectAnchors(d []float64, k, l int, sel Selection, sc *selectScratch) (idx []int, sum float64, ok bool) {
	switch sel {
	case SelectGreedy:
		return selectGreedy(d, k, l, sc)
	case SelectOverlapping:
		return selectOverlapping(d, k, sc)
	default:
		return selectDPInto(d, k, l, sc)
	}
}

// selectDP implements the paper's dynamic program (Eq. 5).
//
// With candidates numbered j = 1..n (n = len(d)), M[i][j] is the minimum sum
// of dissimilarities achievable by picking i mutually non-overlapping
// patterns among the first j candidates. Two candidate patterns overlap iff
// their anchor indices differ by less than l, so picking candidate j leaves
// candidates 1..j−l available:
//
//	M[i][j] = 0                                       if i = 0
//	M[i][j] = +inf                                    if i > j
//	M[i][j] = min(M[i][j−1], D[j] + M[i−1][max(j−l,0)]) otherwise
//
// The answer is M[k][n]; backtracking recovers the chosen candidates
// (Algorithm 1, lines 8–23).
func selectDP(d []float64, k, l int) (idx []int, sum float64, ok bool) {
	return selectDPInto(d, k, l, nil)
}

// selectDPInto is selectDP with caller-provided table storage (grown in
// place and reused across calls when sc is non-nil).
//
// Each row of M is a running prefix minimum, M[i][j] = min(M[i][j−1],
// take_j), so the row is filled with the minimum held in a register and a
// comparison `take < run` that is almost always false once the row has
// settled. The max(j−l, 0) clamp splits each row into a head (j < l, whose
// takes all read M[i−1][0]) and a body (takes read M[i−1][j−l]) over
// re-sliced operands of equal length, so the hot loop carries no clamp and
// no bounds checks. Every entry is the same IEEE addition and the same
// `take < skip ? take : skip` choice as the textbook recurrence, so sums and
// ties come out bit for bit as Eq. 5 computed cell by cell.
func selectDPInto(d []float64, k, l int, sc *selectScratch) (idx []int, sum float64, ok bool) {
	n := len(d)
	if n == 0 || k <= 0 {
		return nil, 0, k <= 0
	}
	// M is (k+1) × (n+1), rolled out flat. M[i][j] at m[i*(n+1)+j].
	size := (k + 1) * (n + 1)
	var m []float64
	if sc != nil && cap(sc.dp) >= size {
		m = sc.dp[:size]
	} else {
		m = make([]float64, size)
		if sc != nil {
			sc.dp = m
		}
	}
	row := n + 1
	clear(m[:row])
	inf := math.Inf(1)
	for i := 1; i <= k; i++ {
		prevRow := m[(i-1)*row : i*row]
		cur := m[i*row : (i+1)*row]
		// M[i][j] = +inf for j < i: fewer candidates than picks.
		lo := min(i, row)
		for j := range cur[:lo] {
			cur[j] = inf
		}
		run := inf // M[i][i−1]
		// Head: j ∈ [i, l) reads M[i−1][0].
		head := min(l, row)
		if lo < head {
			base := prevRow[0]
			dh := d[lo-1 : head-1]
			out := cur[lo:head]
			out = out[:len(dh)]
			for x, dj := range dh {
				if take := dj + base; take < run {
					run = take
				}
				out[x] = run
			}
		}
		// Body: j ∈ [max(i, l), n] reads M[i−1][j−l].
		j0 := max(lo, l)
		if j0 <= n {
			db := d[j0-1:]
			pb := prevRow[j0-l : row-l]
			out := cur[j0:]
			pb = pb[:len(db)]
			out = out[:len(db)]
			for x, dj := range db {
				if take := dj + pb[x]; take < run {
					run = take
				}
				out[x] = run
			}
		}
	}
	sum = m[k*row+n]
	if math.IsInf(sum, 1) {
		return nil, 0, false
	}
	// Backtrack: walk row i left while M[i][j] was carried over from
	// M[i][j−1] (a skip), then take candidate j.
	idx = sc.idxBuf(k)
	i, j := k, n
	for i > 0 {
		r := m[i*row : i*row+j+1]
		for j > i && r[j] == r[j-1] {
			j--
		}
		idx = append(idx, j-1) // 0-based candidate index
		i--
		j = max(j-l, 0)
	}
	// Reverse to ascending order.
	for a, b := 0, len(idx)-1; a < b; a, b = a+1, b-1 {
		idx[a], idx[b] = idx[b], idx[a]
	}
	return idx, sum, true
}

// selectGreedy sorts candidates by dissimilarity and keeps the first k that
// do not overlap any already-kept candidate. Sec. 6.1 notes this fails to
// minimize the total dissimilarity; it exists for the ablation bench.
func selectGreedy(d []float64, k, l int, sc *selectScratch) (idx []int, sum float64, ok bool) {
	order := sc.orderBuf(len(d))
	for i := range order {
		order[i] = i
	}
	orderByDissimilarity(order, d)
	idx = sc.idxBuf(k)
	for _, j := range order {
		overlap := false
		for _, chosen := range idx {
			if abs(chosen-j) < l {
				overlap = true
				break
			}
		}
		if overlap {
			continue
		}
		idx = append(idx, j)
		sum += d[j]
		if len(idx) == k {
			break
		}
	}
	if len(idx) < k {
		return nil, 0, false
	}
	sort.Ints(idx)
	return idx, sum, true
}

// selectOverlapping picks the k globally smallest dissimilarities with no
// overlap constraint (the near-duplicate failure mode of Sec. 4.1).
func selectOverlapping(d []float64, k int, sc *selectScratch) (idx []int, sum float64, ok bool) {
	if len(d) < k {
		return nil, 0, false
	}
	order := sc.orderBuf(len(d))
	for i := range order {
		order[i] = i
	}
	orderByDissimilarity(order, d)
	idx = append(sc.idxBuf(k), order[:k]...)
	for _, j := range idx {
		sum += d[j]
	}
	sort.Ints(idx)
	return idx, sum, true
}

func abs(x int) int {
	if x < 0 {
		return -x
	}
	return x
}
