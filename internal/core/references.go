package core

import (
	"cmp"
	"fmt"
	"math"
	"slices"
	"strings"

	"tkcm/internal/stats"
	"tkcm/internal/window"
)

// ReferenceSet holds the ordered candidate reference time series of one
// incomplete stream (Sec. 3): candidates are ranked by suitability (by
// domain experts in the paper; RankCandidates offers a data-driven fallback)
// and, at imputation time, the first d candidates with a present value at tn
// become the reference set Rs.
type ReferenceSet struct {
	// Stream is the name of the incomplete series s.
	Stream string
	// Candidates is the ordered sequence ⟨r1, r2, ...⟩ of candidate
	// reference stream names, best first.
	Candidates []string
}

// Pick returns the window indices of the first d candidates whose value at
// the current time is present (Sec. 3). It returns an error when fewer than
// d candidates qualify or a candidate name is unknown.
func (rs ReferenceSet) Pick(w *window.Window, d int) ([]int, error) {
	idx, err := rs.PickInto(w, d, nil)
	if err != nil {
		return nil, err
	}
	return idx, nil
}

// PickInto is Pick with caller-provided storage: the picked indices are
// appended to dst (its length is reset first), so hot callers reuse one
// buffer across ticks. On error the returned slice still carries dst's
// storage (holding any partial pick), so callers can keep reusing it.
func (rs ReferenceSet) PickInto(w *window.Window, d int, dst []int) ([]int, error) {
	out := dst[:0]
	if cap(out) < d {
		out = make([]int, 0, d)
	}
	for _, name := range rs.Candidates {
		i := w.IndexOf(name)
		if i < 0 {
			return out, fmt.Errorf("core: unknown candidate reference series %q for stream %q", name, rs.Stream)
		}
		if math.IsNaN(w.Current(i)) {
			continue // r(tn) = NIL: not usable at this tick
		}
		out = append(out, i)
		if len(out) == d {
			return out, nil
		}
	}
	return out, fmt.Errorf("core: stream %q has only %d of %d usable reference series at the current tick", rs.Stream, len(out), d)
}

// RankCandidates orders the candidate streams for target by descending
// absolute Pearson correlation with the target over the provided aligned
// histories. histories maps stream name to its retained values; the target's
// own entry is ignored. This implements the "automatically determine the
// best candidate reference time series" future-work direction of Sec. 8 and
// substitutes for the paper's domain experts.
func RankCandidates(target string, histories map[string][]float64) ReferenceSet {
	tvals, ok := histories[target]
	rs := ReferenceSet{Stream: target}
	if !ok {
		return rs
	}
	names := make([]string, 0, len(histories))
	hists := make([][]float64, 0, len(histories))
	for name, vals := range histories {
		names = append(names, name)
		hists = append(hists, vals)
	}
	rs.Candidates = rankByCorrelation(tvals, names, hists, target)
	return rs
}

// rankByCorrelation returns names without target, ordered by descending
// |ρ| between tvals and hists[j], the history of names[j]: a NaN ρ (too few
// pairs, or a constant stream) ranks as −1, and equal scores go by name.
// Names are distinct, so the order is total.
func rankByCorrelation(tvals []float64, names []string, hists [][]float64, target string) []string {
	type scored struct {
		name  string
		score float64
	}
	cands := make([]scored, 0, len(names))
	for j, name := range names {
		if name == target {
			continue
		}
		score := math.Abs(stats.Pearson(tvals, hists[j]))
		if math.IsNaN(score) {
			score = -1
		}
		cands = append(cands, scored{name, score})
	}
	slices.SortFunc(cands, func(a, b scored) int {
		return cmp.Or(cmp.Compare(b.score, a.score), strings.Compare(a.name, b.name))
	})
	out := make([]string, len(cands))
	for i, c := range cands {
		out[i] = c.name
	}
	return out
}
