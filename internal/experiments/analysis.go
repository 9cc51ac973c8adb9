package experiments

import (
	"math"

	"tkcm/internal/core"
	"tkcm/internal/stats"
)

// SineAnalysis reproduces the analysis of Sec. 5 (Figs. 4–7, Examples 5–8)
// on the paper's synthetic sine waves:
//
//	s(t)  = sind(t)
//	r1(t) = 1.5·sind(t) + 1     (linearly correlated with s)
//	r2(t) = sind(t − 90)        (phase shifted; Pearson ≈ 0)
//
// It reports the two Pearson correlations, the number of near-zero-distance
// patterns for l = 1 vs l = 60 against each reference (the monotonicity of
// Lemma 5.1 and the disambiguation effect of Figs. 6–7), and the spread of
// s-values among the near-zero anchors (near zero only for the long pattern
// on the shifted reference).
type SineAnalysis struct {
	PearsonLinear  float64 // ρ(s, r1): expected ≈ +1
	PearsonShifted float64 // ρ(s, r2): expected ≈ 0

	// NearZero[ref][l] = number of candidate anchors whose pattern is within
	// tau of the query pattern, for ref ∈ {"r1","r2"} and l ∈ {1, 60}.
	NearZeroR1L1  int
	NearZeroR1L60 int
	NearZeroR2L1  int
	NearZeroR2L60 int

	// SpreadR2L1 / SpreadR2L60: max spread of s at the near-zero anchors of
	// the shifted reference — large for l = 1 (ambiguous up/down slope),
	// ≈ 0 for l = 60.
	SpreadR2L1  float64
	SpreadR2L60 float64
}

// sind is sine of an angle in degrees, as used by the paper's examples.
func sind(deg float64) float64 { return math.Sin(deg * math.Pi / 180) }

// AnalyzeSines runs the Sec. 5 analysis over one-minute ticks t = 0..840
// (the x-range of Figs. 4–7) with query time tn = 840.
func AnalyzeSines() SineAnalysis {
	const n = 841 // t = 0..840 minutes
	s := make([]float64, n)
	r1 := make([]float64, n)
	r2 := make([]float64, n)
	for t := 0; t < n; t++ {
		ft := float64(t)
		s[t] = sind(ft)
		r1[t] = 1.5*sind(ft) + 1
		r2[t] = sind(ft - 90)
	}
	a := SineAnalysis{
		PearsonLinear:  stats.Pearson(s, r1),
		PearsonShifted: stats.Pearson(s, r2),
	}
	const tau = 1e-6
	count := func(ref []float64, l int) (int, float64) {
		profile := profileAgainst(ref, l)
		near := 0
		lo, hi := math.Inf(1), math.Inf(-1)
		for j, d := range profile {
			if d <= tau {
				near++
				v := s[j+l-1] // s at the anchor tick
				if v < lo {
					lo = v
				}
				if v > hi {
					hi = v
				}
			}
		}
		spread := 0.0
		if near > 0 {
			spread = hi - lo
		}
		return near, spread
	}
	a.NearZeroR1L1, _ = count(r1, 1)
	a.NearZeroR1L60, _ = count(r1, 60)
	a.NearZeroR2L1, a.SpreadR2L1 = count(r2, 1)
	a.NearZeroR2L60, a.SpreadR2L60 = count(r2, 60)
	return a
}

// profileAgainst computes the dissimilarity profile of a single reference
// series against the query pattern anchored at its last tick, using the
// core L2 dissimilarity via the public Pattern API.
func profileAgainst(ref []float64, l int) []float64 {
	n := len(ref)
	nCand := n - 2*l + 1
	if nCand < 0 {
		nCand = 0
	}
	query := core.ExtractPattern([][]float64{ref}, n-1, l)
	out := make([]float64, nCand)
	for j := 0; j < nCand; j++ {
		p := core.ExtractPattern([][]float64{ref}, j+l-1, l)
		out[j] = core.Dissimilarity(p, query, core.L2)
	}
	return out
}

// AblationRow compares TKCM design variants on one dataset (the ablations of
// PAPER-MAP.md's Sec. 4.1, Def. 4 and L1/L∞ norms rows).
type AblationRow struct {
	Dataset string
	Variant string
	RMSE    float64
	// SumDissimilarity is the mean selected-anchor dissimilarity sum, the
	// objective the DP provably minimizes (greedy must be ≥ DP).
	SumDissimilarity float64
}

// AblationSelection compares DP vs greedy vs overlapping anchor selection.
func AblationSelection(scale Scale, ds string) ([]AblationRow, error) {
	sp := scale.Spec(ds)
	var rows []AblationRow
	for _, sel := range []core.Selection{core.SelectDP, core.SelectGreedy, core.SelectOverlapping} {
		sc, err := NewSpecScenario(sp, "")
		if err != nil {
			return nil, err
		}
		cfg := sp.Cfg
		cfg.Selection = sel
		rec, details, err := RunTKCMDetailed(sc, cfg)
		if err != nil {
			return nil, err
		}
		sum := 0.0
		for _, r := range details {
			sum += r.SumDissimilarity
		}
		rows = append(rows, AblationRow{
			Dataset:          ds,
			Variant:          sel.String(),
			RMSE:             rec.RMSE,
			SumDissimilarity: sum / float64(len(details)),
		})
	}
	return rows, nil
}

// AblationNorms compares the L2 default against the Sec. 8 future-work
// alternatives L1 and L∞.
func AblationNorms(scale Scale, ds string) ([]AblationRow, error) {
	sp := scale.Spec(ds)
	var rows []AblationRow
	for _, norm := range []core.Norm{core.L2, core.L1, core.LInf} {
		sc, err := NewSpecScenario(sp, "")
		if err != nil {
			return nil, err
		}
		cfg := sp.Cfg
		cfg.Norm = norm
		rec, err := RunTKCM(sc, cfg)
		if err != nil {
			return nil, err
		}
		rows = append(rows, AblationRow{Dataset: ds, Variant: norm.String(), RMSE: rec.RMSE})
	}
	return rows, nil
}

// AblationWeighting compares the plain anchor mean (Def. 4) against
// similarity-weighted averaging.
func AblationWeighting(scale Scale, ds string) ([]AblationRow, error) {
	sp := scale.Spec(ds)
	var rows []AblationRow
	for _, weighted := range []bool{false, true} {
		sc, err := NewSpecScenario(sp, "")
		if err != nil {
			return nil, err
		}
		cfg := sp.Cfg
		cfg.WeightedMean = weighted
		rec, err := RunTKCM(sc, cfg)
		if err != nil {
			return nil, err
		}
		name := "mean"
		if weighted {
			name = "weighted"
		}
		rows = append(rows, AblationRow{Dataset: ds, Variant: name, RMSE: rec.RMSE})
	}
	return rows, nil
}
