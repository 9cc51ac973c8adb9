package core

import "time"

// PhaseTimings records where one imputation spent its time, mirroring the
// performance breakdown of Sec. 7.4 (pattern extraction vs pattern
// selection vs value imputation). Alongside the wall-clock durations it
// reports deterministic operation counts for the two dominant phases, so
// tests can assert the structural claim (extraction, at O(d·l·L), dwarfs
// selection's O(k·L)) without flaking on machine speed.
type PhaseTimings struct {
	PatternExtraction time.Duration
	PatternSelection  time.Duration
	ValueImputation   time.Duration
	// ExtractionOps counts the element operations of the naive Def. 2
	// profile: d reference rows × l columns × (L − 2l + 1) anchors.
	ExtractionOps int64
	// SelectionOps counts the DP cell updates of anchor selection (Eq. 5):
	// k rows × (L − 2l + 1) candidate anchors.
	SelectionOps int64
}

// Total returns the summed phase time.
func (p PhaseTimings) Total() time.Duration {
	return p.PatternExtraction + p.PatternSelection + p.ValueImputation
}

// ExtractionFraction returns the share of time spent in pattern extraction,
// the phase the paper reports at ~92% of runtime under default parameters.
func (p PhaseTimings) ExtractionFraction() float64 {
	t := p.Total()
	if t == 0 {
		return 0
	}
	return float64(p.PatternExtraction) / float64(t)
}

// ImputeProfiled is Impute with per-phase wall-clock timing, used by the
// perf-breakdown experiment: the same input checks, profile, selection and
// Def. 4 aggregation, so its Result is Impute's bit for bit.
func ImputeProfiled(cfg Config, s []float64, refs [][]float64) (*Result, PhaseTimings, error) {
	var pt PhaseTimings
	s, refs, nCand, err := sliceInputs(cfg, s, refs)
	if err != nil {
		return nil, pt, err
	}
	l := cfg.PatternLength
	t0 := time.Now()
	d := cfg.sliceProfiler().Profile(refs, l, cfg.Norm, nil)
	pt.PatternExtraction = time.Since(t0)
	pt.ExtractionOps = int64(len(refs)) * int64(l) * int64(nCand)
	pt.SelectionOps = int64(cfg.K) * int64(nCand)

	t1 := time.Now()
	var sel anchorSelection
	ok := sel.fill(cfg, d, nil)
	pt.PatternSelection = time.Since(t1)
	if !ok {
		return nil, pt, ErrInsufficientHistory
	}

	t2 := time.Now()
	res := &Result{}
	err = aggregateAnchors(cfg, &sel, func(candidate int) float64 { return s[candidate+l-1] }, res)
	pt.ValueImputation = time.Since(t2)
	if err != nil {
		return nil, pt, err
	}
	return res, pt, nil
}
