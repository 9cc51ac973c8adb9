package core

import (
	"math"
	"slices"

	"tkcm/internal/window"
)

// Result describes one imputation: the recovered value, the chosen anchors,
// and the pattern-determining diagnostics of Sec. 5.3.
type Result struct {
	// Value is the imputed value sˆ(tn) (Def. 4).
	Value float64
	// Anchors are the window-local indices (0 = oldest retained tick) of the
	// k most similar anchor points A, ascending.
	Anchors []int
	// AnchorValues are the values of s at the anchors, aligned with Anchors.
	AnchorValues []float64
	// Dissimilarities are δ(P(t), P(tn)) for each chosen anchor t.
	Dissimilarities []float64
	// SumDissimilarity is Σ δ over the chosen anchors — the quantity the DP
	// minimizes (Def. 3 condition 3).
	SumDissimilarity float64
	// Epsilon is max_{t,t'∈A} |s(t) − s(t')|, the ε of Def. 5. Small ε means
	// the reference series pattern-determine s at tn.
	Epsilon float64
}

// PatternDetermining reports whether the imputation satisfied Def. 5 for the
// given tolerance: every pair of anchor values of s lies within eps.
func (r *Result) PatternDetermining(eps float64) bool { return r.Epsilon <= eps }

// Impute recovers the missing value of series s at the last tick of the
// supplied histories. s and every refs[i] hold the retained window (oldest
// first, equal lengths, last element = current time tn); s's last element is
// ignored (it is the missing value being recovered). The reference histories
// must be complete over the window — under continuous imputation older ticks
// were themselves imputed on arrival.
//
// This is the slice-based form used by the experiment harness; ImputeWindow
// is the streaming-window form of Algorithm 1.
func Impute(cfg Config, s []float64, refs [][]float64) (*Result, error) {
	res, _, err := ImputeProfiled(cfg, s, refs)
	return res, err
}

// sliceInputs checks Impute's inputs — a valid config, at least one
// reference, enough aligned history for k anchors, and a complete query
// pattern in every reference — and returns the histories aligned at the
// newest tick with the number of candidate anchors.
func sliceInputs(cfg Config, s []float64, refs [][]float64) ([]float64, [][]float64, int, error) {
	if err := cfg.Validate(); err != nil {
		return nil, nil, 0, err
	}
	if len(refs) == 0 {
		return nil, nil, 0, ErrInsufficientHistory
	}
	l, k := cfg.PatternLength, cfg.K
	s, refs, filled := alignNewest(s, refs)
	nCand := filled - 2*l + 1
	if nCand < 1 || nCand < (k-1)*l+1 && cfg.Selection != SelectOverlapping || nCand < k && cfg.Selection == SelectOverlapping {
		return nil, nil, 0, ErrInsufficientHistory
	}
	for _, r := range refs {
		for x := filled - l; x < filled; x++ {
			if math.IsNaN(r[x]) {
				return nil, nil, 0, ErrMissingInQueryPattern
			}
		}
	}
	return s, refs, nCand, nil
}

// ImputeWindow recovers the missing value of the stream at index sIdx of w at
// the current time tn, reading reference histories from the window's streams
// at refIdx, and stores the imputed value back into the window (Algorithm 1
// line 26). It mirrors the paper's Algorithm 1 on a sliding window.
// The dissimilarity profile is computed by the profiler Config.Profiler
// selects (the incremental profiler has no state here and degrades to FFT).
func ImputeWindow(cfg Config, w *window.Window, sIdx int, refIdx []int) (*Result, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	var sel anchorSelection
	if err := profileSelectWindow(cfg, w, refIdx, cfg.sliceProfiler(), &imputeScratch{}, &sel); err != nil {
		return nil, err
	}
	res := &Result{}
	if err := aggregateWindow(cfg, w, sIdx, &sel, res); err != nil {
		return nil, err
	}
	return res, nil
}

// imputeScratch holds the per-caller reusable buffers of profileSelectWindow:
// one snapshot per reference slot, profile storage, and the anchor-selection
// scratch. The zero value is ready to use; buffers grow on first use and are
// reused afterwards.
type imputeScratch struct {
	refs [][]float64
	prof []float64
	sel  selectScratch
}

// profileDst returns a length-n profile buffer backed by the scratch.
func (sc *imputeScratch) profileDst(n int) []float64 {
	if cap(sc.prof) < n {
		sc.prof = make([]float64, n)
	}
	sc.prof = sc.prof[:n]
	return sc.prof
}

// anchorSelection is the target-independent outcome of pattern extraction
// plus anchor selection for one reference set: the chosen candidate indices,
// their dissimilarities, and the minimized sum. The profile depends only on
// the reference histories, never on the imputed stream, so one selection
// serves every missing stream of a tick that shares the reference set —
// each remaining target only aggregates its own k anchor values. Storage is
// caller-owned and reused via fill.
type anchorSelection struct {
	idx   []int
	dvals []float64
	sum   float64
}

// fill runs anchor selection on the dissimilarity profile d and stores the
// outcome, reusing the selection's storage. It reports whether a feasible
// selection exists.
func (sel *anchorSelection) fill(cfg Config, d []float64, sc *selectScratch) bool {
	idx, sum, ok := selectAnchors(d, cfg.K, cfg.PatternLength, cfg.Selection, sc)
	if !ok {
		return false
	}
	sel.idx = append(sel.idx[:0], idx...)
	sel.dvals = sel.dvals[:0]
	for _, j := range idx {
		sel.dvals = append(sel.dvals, d[j])
	}
	sel.sum = sum
	return true
}

// profileSelectWindow computes the dissimilarity profile over the reference
// streams refIdx of w and runs anchor selection, storing the outcome into
// sel (reusing its storage). It is the target-independent half of Algorithm
// 1; aggregateWindow finishes an imputation from it. A stateful
// IncrementalProfiler assembles the profile straight from its maintained
// aggregates (catching the referenced streams up on demand); every other
// profiler runs over reference snapshots copied into the scratch.
func profileSelectWindow(cfg Config, w *window.Window, refIdx []int, prof Profiler, sc *imputeScratch, sel *anchorSelection) error {
	l, k := cfg.PatternLength, cfg.K
	filled := w.Filled()
	nCand := filled - 2*l + 1
	if nCand < 1 || nCand < (k-1)*l+1 && cfg.Selection != SelectOverlapping || nCand < k && cfg.Selection == SelectOverlapping {
		return ErrInsufficientHistory
	}
	var d []float64
	if ip, ok := prof.(*IncrementalProfiler); ok && cfg.Norm == L2 {
		// Engine fast path: the aggregates already cover this tick, and the
		// continuous-imputation invariant keeps the retained window complete,
		// so no query-completeness scan is needed.
		d = ip.ProfileWindow(refIdx, sc.profileDst(nCand))
	} else {
		for len(sc.refs) < len(refIdx) {
			sc.refs = append(sc.refs, nil)
		}
		refs := sc.refs[:len(refIdx)]
		for x, ri := range refIdx {
			sc.refs[x] = w.SnapshotInto(ri, sc.refs[x])
			refs[x] = sc.refs[x]
			// Query pattern completeness check (Algorithm 1 precondition).
			for _, v := range refs[x][filled-l:] {
				if math.IsNaN(v) {
					return ErrMissingInQueryPattern
				}
			}
		}
		d = prof.Profile(refs, l, cfg.Norm, sc.profileDst(nCand))
	}
	if !sel.fill(cfg, d, &sc.sel) {
		return ErrInsufficientHistory
	}
	return nil
}

// aggregateWindow finishes one imputation from a prior selection into res:
// it averages the target stream's values at the selected anchors (Def. 4,
// optionally similarity-weighted) and stores the imputed value back into
// the window (Algorithm 1 line 26).
func aggregateWindow(cfg Config, w *window.Window, sIdx int, sel *anchorSelection, res *Result) error {
	if err := aggregateAnchors(cfg, sel, func(candidate int) float64 {
		return w.At(sIdx, candidate+cfg.PatternLength-1)
	}, res); err != nil {
		return err
	}
	w.SetCurrent(sIdx, res.Value)
	return nil
}

// aggregateAnchors computes the imputed value and its diagnostics from the
// target's values at the selected anchors into res, reusing its slices.
// valueAt returns s's value for a candidate index (anchor tick = candidate +
// l − 1).
func aggregateAnchors(cfg Config, sel *anchorSelection, valueAt func(candidate int) float64, res *Result) error {
	res.Anchors = slices.Grow(res.Anchors[:0], len(sel.idx))
	res.AnchorValues = slices.Grow(res.AnchorValues[:0], len(sel.idx))
	res.Dissimilarities = slices.Grow(res.Dissimilarities[:0], len(sel.idx))
	res.SumDissimilarity = sel.sum
	var (
		plain          float64
		weighted, wsum float64
		n              int
	)
	lo, hi := math.Inf(1), math.Inf(-1)
	for x, j := range sel.idx {
		v := valueAt(j)
		dj := sel.dvals[x]
		res.Anchors = append(res.Anchors, j+cfg.PatternLength-1)
		res.AnchorValues = append(res.AnchorValues, v)
		res.Dissimilarities = append(res.Dissimilarities, dj)
		if math.IsNaN(v) {
			// The anchor value of s itself is missing (can happen offline
			// when s has other gaps); skip it in the aggregate.
			continue
		}
		plain += v
		w := 1.0 / (dj + 1e-9)
		weighted += w * v
		wsum += w
		n++
		// ε of Def. 5: max pairwise spread of the (non-missing) anchor
		// values.
		if v < lo {
			lo = v
		}
		if v > hi {
			hi = v
		}
	}
	if n == 0 {
		return ErrInsufficientHistory
	}
	if cfg.WeightedMean {
		res.Value = weighted / wsum
	} else {
		res.Value = plain / float64(n)
	}
	res.Epsilon = hi - lo
	return nil
}
