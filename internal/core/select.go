package core

import (
	"math"
	"math/bits"
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
// callers avoid per-imputation allocations: the DP's two alternating Eq. 5
// rows and its take bits, the sort-order permutation of the greedy/overlapping
// strategies, and the chosen-index slice every strategy returns. The zero
// value is ready to use; buffers grow on first use and are reused afterwards.
// Selections performed with the same scratch overwrite each other's returned
// index slice.
type selectScratch struct {
	rows  []float64 // two rows of n+1 floats: M[i−1][·] and M[i][·]
	take  []uint64  // k rows of ⌈(n+1)/64⌉ words: bit j of row i is a take at M[i][j]
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
// sc, when non-nil, provides reusable storage for the DP's two rows and take
// bits, the sort order, and the returned index slice (which then aliases the
// scratch and is valid until the next selection with the same scratch).
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

// selectDPInto is selectDP with caller-provided storage (grown in place and
// reused across calls when sc is non-nil).
//
// Only two rows of M are live at a time: row i reads row i−1 and nothing
// older, so the fill alternates between two rows of n+1 floats (fillRow).
// What the backtrack needs of the rest of the table is one bit per cell,
// whether M[i][j] took candidate j, kept in k rows of ⌈(n+1)/64⌉ words. A
// take is exactly a cell where M[i][j] < M[i][j−1], so the bits steer the
// backtrack where the full table's equality test M[i][j] == M[i][j−1] did,
// and every cell is the same IEEE addition and comparison: sums, ties and
// chosen indices come out bit for bit as Eq. 5 computed cell by cell.
func selectDPInto(d []float64, k, l int, sc *selectScratch) (idx []int, sum float64, ok bool) {
	n := len(d)
	if n == 0 || k <= 0 {
		return nil, 0, k <= 0
	}
	if sc == nil {
		sc = new(selectScratch)
	}
	row := n + 1
	words := (row + 63) / 64
	if cap(sc.rows) < 2*row {
		sc.rows = make([]float64, 2*row)
	}
	if cap(sc.take) < k*words {
		sc.take = make([]uint64, k*words)
	}
	rows, takes := sc.rows[:2*row], sc.take[:k*words]
	clear(takes)
	prevRow, cur := rows[:row], rows[row:]
	clear(prevRow) // M[0][j] = 0
	for i := 1; i <= k; i++ {
		fillRow(cur, prevRow, d, takes[(i-1)*words:i*words], i, l)
		prevRow, cur = cur, prevRow
	}
	sum = prevRow[n] // M[k][n]: the last row filled
	if math.IsInf(sum, 1) {
		return nil, 0, false
	}
	// Backtrack: walk row i left past the cells that skipped candidate j
	// (M[i][j] carried over from M[i][j−1]), then take candidate j.
	idx = sc.idxBuf(k)
	i, j := k, n
	for i > 0 {
		j = lastTake(takes[(i-1)*words:i*words], i, j)
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

// fillRow fills cur = M[i][·] from prevRow = M[i−1][·] and sets bit j of
// took wherever the take of candidate j wins. The row is a running prefix
// minimum, M[i][j] = min(M[i][j−1], take_j), so it is filled with the
// minimum held in a register and a comparison `take < run` that is almost
// always false once the row has settled; the bit is written only inside that
// branch, so a settled row costs no more per cell than a full table's fill.
// The max(j−l, 0) clamp splits the row into a head (j < l, whose takes all
// read M[i−1][0]) and a body (takes read M[i−1][j−l]) over re-sliced operands
// of equal length, so the hot loop carries no clamp and no bounds checks.
// Every cell is the textbook recurrence's addition and `take < skip ? take :
// skip` choice. Inlined into selectDPInto, the body loop spilled its counter
// to the stack; as a function of its own it keeps its operands in registers.
func fillRow(cur, prevRow, d []float64, took []uint64, i, l int) {
	row := len(cur)
	// M[i][j] = +inf for j < i: fewer candidates than picks.
	lo := min(i, row)
	inf := math.Inf(1)
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
				setBit(took, lo+x)
			}
			out[x] = run
		}
	}
	// Body: j ∈ [max(i, l), n] reads M[i−1][j−l].
	j0 := max(lo, l)
	if j0 < row {
		db := d[j0-1:]
		pb := prevRow[j0-l : row-l]
		out := cur[j0:]
		pb = pb[:len(db)]
		out = out[:len(db)]
		for x, dj := range db {
			if take := dj + pb[x]; take < run {
				run = take
				setBit(took, j0+x)
			}
			out[x] = run
		}
	}
}

// setBit records the take at column j. It stays out of line on purpose: a
// call marks the take branch unlikely, so the compiler lays the settled path
// out as the fall-through, one taken branch per cell. Inlined, the branch
// jumped on every settled cell and the fill ran no faster than the table's.
//
//go:noinline
func setBit(took []uint64, j int) { took[j>>6] |= 1 << (j & 63) }

// lastTake returns where row i's backtrack stops walking left from column j:
// the highest take at or below j, or i, where the walk stops regardless
// (M[i][i−1] is +inf, so a finite M[i][i] took candidate i). It scans a
// word of take bits at a time.
func lastTake(took []uint64, i, j int) int {
	for j > i {
		if w := took[j>>6] & (2<<(j&63) - 1); w != 0 {
			return max(i, j&^63+63-bits.LeadingZeros64(w))
		}
		j = j&^63 - 1
	}
	return i
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
