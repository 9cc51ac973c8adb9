package experiments

import (
	"fmt"
	"math"
	"time"

	"tkcm/internal/cd"
	"tkcm/internal/core"
	"tkcm/internal/muscles"
	"tkcm/internal/spirit"
	"tkcm/internal/stats"
)

// ---------------------------------------------------------------------------
// Fig. 10 — calibration of d (reference series) and k (anchor points)
// ---------------------------------------------------------------------------

// CalibrationRow is one point of Fig. 10: the RMSE of TKCM on a dataset with
// one parameter varied and the others at their defaults.
type CalibrationRow struct {
	Dataset string
	Param   string // "d" or "k"
	Value   int
	RMSE    float64
}

// Fig10Calibration reproduces Fig. 10: RMSE as a function of d (left column)
// and k (right column) on SBR-1d, Flights, and Chlorine.
func Fig10Calibration(scale Scale) ([]CalibrationRow, error) {
	dValues := []int{2, 3, 4, 5, 6, 7}
	kValues := []int{2, 3, 5, 7, 10}
	var rows []CalibrationRow
	for _, ds := range []string{DSSBR1d, DSFlights, DSChlorine} {
		sp := scale.Spec(ds)
		sc, err := NewSpecScenario(sp, "")
		if err != nil {
			return nil, fmt.Errorf("fig10 %s: %w", ds, err)
		}
		for _, d := range dValues {
			if d > len(sc.Refs) {
				continue
			}
			cfg := sp.Cfg
			cfg.D = d
			rec, err := RunTKCM(sc, cfg)
			if err != nil {
				return nil, fmt.Errorf("fig10 %s d=%d: %w", ds, d, err)
			}
			rows = append(rows, CalibrationRow{Dataset: ds, Param: "d", Value: d, RMSE: rec.RMSE})
		}
		for _, k := range kValues {
			cfg := sp.Cfg
			cfg.K = k
			rec, err := RunTKCM(sc, cfg)
			if err != nil {
				return nil, fmt.Errorf("fig10 %s k=%d: %w", ds, k, err)
			}
			rows = append(rows, CalibrationRow{Dataset: ds, Param: "k", Value: k, RMSE: rec.RMSE})
		}
	}
	return rows, nil
}

// ---------------------------------------------------------------------------
// Fig. 11 — pattern length l
// ---------------------------------------------------------------------------

// PatternLengthRow is one point of Fig. 11.
type PatternLengthRow struct {
	Dataset string
	L       int
	RMSE    float64
}

// Fig11LValues are the pattern lengths swept in Fig. 11.
var Fig11LValues = []int{1, 36, 72, 108, 144}

// Fig11PatternLength reproduces Fig. 11: RMSE as a function of the pattern
// length l on all four datasets. The paper's expected shape: flat on SBR
// (linearly correlated), sharply improving with l on the three shifted
// datasets.
func Fig11PatternLength(scale Scale) ([]PatternLengthRow, error) {
	var rows []PatternLengthRow
	for _, ds := range AllDatasets {
		sp := scale.Spec(ds)
		sc, err := NewSpecScenario(sp, "")
		if err != nil {
			return nil, fmt.Errorf("fig11 %s: %w", ds, err)
		}
		for _, l := range Fig11LValues {
			cfg := sp.Cfg
			cfg.PatternLength = l
			rec, err := RunTKCM(sc, cfg)
			if err != nil {
				return nil, fmt.Errorf("fig11 %s l=%d: %w", ds, l, err)
			}
			rows = append(rows, PatternLengthRow{Dataset: ds, L: l, RMSE: rec.RMSE})
		}
	}
	return rows, nil
}

// ---------------------------------------------------------------------------
// Fig. 12 — recovered series with l = 1 vs l = 72
// ---------------------------------------------------------------------------

// RecoverySeries holds Fig. 12's qualitative comparison for one dataset: the
// ground truth of the block and TKCM's recovery with a short and a long
// pattern, plus RMSE and an oscillation measure (std of the first
// difference) that quantifies the l = 1 jitter the figure shows.
type RecoverySeries struct {
	Dataset      string
	Truth        []float64
	ShortPattern []float64 // l = 1
	LongPattern  []float64 // l = 72
	RMSEShort    float64
	RMSELong     float64
	OscShort     float64
	OscLong      float64
	OscTruth     float64
}

// Fig12Recovery reproduces Fig. 12 on every dataset.
func Fig12Recovery(scale Scale) ([]RecoverySeries, error) {
	var out []RecoverySeries
	for _, ds := range AllDatasets {
		sp := scale.Spec(ds)
		scShort, err := NewSpecScenario(sp, "")
		if err != nil {
			return nil, fmt.Errorf("fig12 %s: %w", ds, err)
		}
		cfgShort := sp.Cfg
		cfgShort.PatternLength = 1
		recShort, err := RunTKCM(scShort, cfgShort)
		if err != nil {
			return nil, fmt.Errorf("fig12 %s l=1: %w", ds, err)
		}
		scLong, err := NewSpecScenario(sp, "")
		if err != nil {
			return nil, fmt.Errorf("fig12 %s: %w", ds, err)
		}
		recLong, err := RunTKCM(scLong, sp.Cfg)
		if err != nil {
			return nil, fmt.Errorf("fig12 %s l=%d: %w", ds, sp.Cfg.PatternLength, err)
		}
		out = append(out, RecoverySeries{
			Dataset:      ds,
			Truth:        scShort.Block.Truth,
			ShortPattern: recShort.Imputed,
			LongPattern:  recLong.Imputed,
			RMSEShort:    recShort.RMSE,
			RMSELong:     recLong.RMSE,
			OscShort:     oscillation(recShort.Imputed),
			OscLong:      oscillation(recLong.Imputed),
			OscTruth:     oscillation(scShort.Block.Truth),
		})
	}
	return out, nil
}

// oscillation is the standard deviation of the first difference — high for
// the jittery l = 1 recoveries of Fig. 12.
func oscillation(xs []float64) float64 {
	if len(xs) < 2 {
		return 0
	}
	diffs := make([]float64, len(xs)-1)
	for i := 1; i < len(xs); i++ {
		diffs[i-1] = xs[i] - xs[i-1]
	}
	return stats.Std(diffs)
}

// ---------------------------------------------------------------------------
// Fig. 13 — scatter (non-linear correlation) and average ε vs l
// ---------------------------------------------------------------------------

// EpsilonRow is one point of Fig. 13b: the average ε (Def. 5 anchor-value
// spread) over all imputations of the block, as a function of l.
type EpsilonRow struct {
	L          int
	AvgEpsilon float64
	RMSE       float64
}

// Fig13Result bundles Fig. 13's two panels for the Chlorine dataset.
type Fig13Result struct {
	// PearsonTargetRef is ρ(s, r1), the weak linear correlation shown by the
	// scatterplot in Fig. 13a (paper: 0.5).
	PearsonTargetRef float64
	Rows             []EpsilonRow
}

// Fig13Epsilon reproduces Fig. 13 on the Chlorine dataset: ε shrinks as l
// grows (until the pattern outgrows the window's diversity).
func Fig13Epsilon(scale Scale) (*Fig13Result, error) {
	sp := scale.Spec(DSChlorine)
	probe, err := NewSpecScenario(sp, "")
	if err != nil {
		return nil, err
	}
	res := &Fig13Result{}
	target := probe.Frame.ByName(probe.Target)
	ref := probe.Frame.ByName(probe.Refs[0])
	res.PearsonTargetRef = stats.Pearson(target.Values[:probe.Block.Start], ref.Values[:probe.Block.Start])
	for _, l := range Fig11LValues {
		sc, err := NewSpecScenario(sp, "")
		if err != nil {
			return nil, err
		}
		cfg := sp.Cfg
		cfg.PatternLength = l
		rec, details, err := RunTKCMDetailed(sc, cfg)
		if err != nil {
			return nil, fmt.Errorf("fig13 l=%d: %w", l, err)
		}
		sum := 0.0
		for _, r := range details {
			sum += r.Epsilon
		}
		res.Rows = append(res.Rows, EpsilonRow{
			L:          l,
			AvgEpsilon: sum / float64(len(details)),
			RMSE:       rec.RMSE,
		})
	}
	return res, nil
}

// ---------------------------------------------------------------------------
// Fig. 14 — missing-block length
// ---------------------------------------------------------------------------

// BlockLengthRow is one point of Fig. 14.
type BlockLengthRow struct {
	Dataset string
	Label   string // e.g. "2d" or "40%"
	Ticks   int
	RMSE    float64
}

// Fig14BlockLength reproduces Fig. 14: RMSE as the missing block grows —
// days-long blocks on SBR-1d (weeks at paper scale), 10–80% of the dataset
// on Chlorine. The paper's expected shape: a slow, saturating increase.
func Fig14BlockLength(scale Scale) ([]BlockLengthRow, error) {
	var rows []BlockLengthRow

	// SBR-1d: 1..6 days at small scale, 1..6 weeks at paper scale.
	sp := scale.Spec(DSSBR1d)
	unit, unitName := sp.TicksPerDay, "d"
	if scale.Name == "paper" {
		unit, unitName = 7*sp.TicksPerDay, "w"
	}
	for mult := 1; mult <= 6; mult++ {
		length := mult * unit
		frame := sp.Generate()
		start := frame.Len() - length
		sc, err := NewScenario(frame, sp.Target, start, length)
		if err != nil {
			return nil, fmt.Errorf("fig14 SBR-1d %d%s: %w", mult, unitName, err)
		}
		rec, err := RunTKCM(sc, sp.Cfg)
		if err != nil {
			return nil, fmt.Errorf("fig14 SBR-1d %d%s: %w", mult, unitName, err)
		}
		rows = append(rows, BlockLengthRow{
			Dataset: DSSBR1d,
			Label:   fmt.Sprintf("%d%s", mult, unitName),
			Ticks:   length,
			RMSE:    rec.RMSE,
		})
	}

	// Chlorine: block of 10%..80% of the dataset, imputed from the remainder.
	spc := scale.Spec(DSChlorine)
	for _, pct := range []int{10, 20, 40, 60, 80} {
		frame := spc.Generate()
		length := frame.Len() * pct / 100
		start := frame.Len() - length
		sc, err := NewScenario(frame, spc.Target, start, length)
		if err != nil {
			return nil, fmt.Errorf("fig14 Chlorine %d%%: %w", pct, err)
		}
		cfg := spc.Cfg
		rec, err := RunTKCM(sc, cfg)
		if err != nil {
			return nil, fmt.Errorf("fig14 Chlorine %d%%: %w", pct, err)
		}
		rows = append(rows, BlockLengthRow{
			Dataset: DSChlorine,
			Label:   fmt.Sprintf("%d%%", pct),
			Ticks:   length,
			RMSE:    rec.RMSE,
		})
	}
	return rows, nil
}

// ---------------------------------------------------------------------------
// Fig. 15 / Fig. 16 — comparison with SPIRIT, MUSCLES, CD
// ---------------------------------------------------------------------------

// ComparisonRow is one algorithm's result on one scenario (Fig. 15 per-block
// series live in ComparisonSeries; Fig. 16 aggregates rows over targets).
type ComparisonRow struct {
	Dataset   string
	Target    string
	Algorithm string
	RMSE      float64
	Elapsed   time.Duration
}

// ComparisonSeries is Fig. 15's qualitative view: the block ground truth and
// every algorithm's recovery.
type ComparisonSeries struct {
	Dataset    string
	Truth      []float64
	Recoveries map[string][]float64
	Rows       []ComparisonRow
}

// CompareAll runs TKCM, SPIRIT, MUSCLES, and CD on one scenario.
func CompareAll(sc *Scenario, cfg core.Config, width int) ([]ComparisonRow, map[string][]float64, error) {
	var rows []ComparisonRow
	series := make(map[string][]float64)

	add := func(rec *Recovery, err error) error {
		if err != nil {
			return err
		}
		rows = append(rows, ComparisonRow{
			Dataset: "", Target: sc.Target,
			Algorithm: rec.Algorithm, RMSE: rec.RMSE, Elapsed: rec.Elapsed,
		})
		series[rec.Algorithm] = rec.Imputed
		return nil
	}

	if err := addErr(add(RunTKCM(sc, cfg))); err != nil {
		return nil, nil, fmt.Errorf("TKCM: %w", err)
	}
	if err := addErr(add(RunSPIRIT(sc, spirit.DefaultConfig(), width))); err != nil {
		return nil, nil, fmt.Errorf("SPIRIT: %w", err)
	}
	if err := addErr(add(RunMUSCLES(sc, muscles.DefaultConfig(), width))); err != nil {
		return nil, nil, fmt.Errorf("MUSCLES: %w", err)
	}
	if err := addErr(add(RunCD(sc, cd.DefaultConfig(), width))); err != nil {
		return nil, nil, fmt.Errorf("CD: %w", err)
	}
	return rows, series, nil
}

func addErr(err error) error { return err }

// Fig15Comparison reproduces Fig. 15: one block per dataset recovered by all
// four algorithms.
func Fig15Comparison(scale Scale) ([]ComparisonSeries, error) {
	var out []ComparisonSeries
	for _, ds := range AllDatasets {
		sp := scale.Spec(ds)
		sc, err := NewSpecScenario(sp, "")
		if err != nil {
			return nil, fmt.Errorf("fig15 %s: %w", ds, err)
		}
		rows, series, err := CompareAll(sc, sp.Cfg, sp.Width)
		if err != nil {
			return nil, fmt.Errorf("fig15 %s: %w", ds, err)
		}
		for i := range rows {
			rows[i].Dataset = ds
		}
		out = append(out, ComparisonSeries{
			Dataset:    ds,
			Truth:      sc.Block.Truth,
			Recoveries: series,
			Rows:       rows,
		})
	}
	return out, nil
}

// SummaryRow is one bar of Fig. 16: an algorithm's RMSE on a dataset,
// averaged over the spec's target series.
type SummaryRow struct {
	Dataset   string
	Algorithm string
	RMSE      float64
}

// Fig16Summary reproduces the paper's headline comparison (Fig. 16): for
// each dataset, impute a block in each of the spec's 4 target series with
// every algorithm and average the RMSE.
func Fig16Summary(scale Scale) ([]SummaryRow, error) {
	var out []SummaryRow
	for _, ds := range AllDatasets {
		sp := scale.Spec(ds)
		sums := make(map[string]float64)
		counts := make(map[string]int)
		for _, target := range sp.Targets {
			sc, err := NewSpecScenario(sp, target)
			if err != nil {
				return nil, fmt.Errorf("fig16 %s/%s: %w", ds, target, err)
			}
			rows, _, err := CompareAll(sc, sp.Cfg, sp.Width)
			if err != nil {
				return nil, fmt.Errorf("fig16 %s/%s: %w", ds, target, err)
			}
			for _, r := range rows {
				if !math.IsNaN(r.RMSE) {
					sums[r.Algorithm] += r.RMSE
					counts[r.Algorithm]++
				}
			}
		}
		for _, alg := range []string{AlgTKCM, AlgSPIRIT, AlgMUSCLES, AlgCD} {
			rmse := math.NaN()
			if counts[alg] > 0 {
				rmse = sums[alg] / float64(counts[alg])
			}
			out = append(out, SummaryRow{Dataset: ds, Algorithm: alg, RMSE: rmse})
		}
	}
	return out, nil
}

// ---------------------------------------------------------------------------
// Fig. 17 — runtime linearity in l, d, k, L
// ---------------------------------------------------------------------------

// RuntimeRow is one point of Fig. 17: the time of a single imputation with
// one parameter varied and the others at their defaults.
type RuntimeRow struct {
	Param         string
	Value         int
	PerImputation time.Duration
}

// Fig17Runtime reproduces Fig. 17 on SBR-1d: per-imputation runtime as a
// function of l, d, k, and L (each varied alone; expected shape: linear in
// every parameter, dominated by L, with k nearly free — Lemma 6.2).
func Fig17Runtime(scale Scale) ([]RuntimeRow, error) {
	sp := scale.Spec(DSSBR1d)
	frame := sp.Generate()
	var rows []RuntimeRow

	timeOne := func(cfg core.Config) (time.Duration, error) {
		sc, err := NewScenario(frame.Clone(), sp.Target, sp.BlockStart, 1)
		if err != nil {
			return 0, err
		}
		// Repeat the single-value imputation to smooth timer noise.
		const reps = 3
		start := time.Now()
		for r := 0; r < reps; r++ {
			if _, err := RunTKCM(sc, cfg); err != nil {
				return 0, err
			}
		}
		return time.Since(start) / reps, nil
	}

	for _, l := range []int{18, 36, 72, 144} {
		cfg := sp.Cfg
		cfg.PatternLength = l
		d, err := timeOne(cfg)
		if err != nil {
			return nil, fmt.Errorf("fig17 l=%d: %w", l, err)
		}
		rows = append(rows, RuntimeRow{Param: "l", Value: l, PerImputation: d})
	}
	for _, dv := range []int{1, 2, 3, 4, 5} {
		cfg := sp.Cfg
		cfg.D = dv
		d, err := timeOne(cfg)
		if err != nil {
			return nil, fmt.Errorf("fig17 d=%d: %w", dv, err)
		}
		rows = append(rows, RuntimeRow{Param: "d", Value: dv, PerImputation: d})
	}
	for _, k := range []int{5, 25, 50} {
		cfg := sp.Cfg
		cfg.K = k
		if cfg.Validate() != nil {
			continue // k does not fit this scale's window
		}
		d, err := timeOne(cfg)
		if err != nil {
			return nil, fmt.Errorf("fig17 k=%d: %w", k, err)
		}
		rows = append(rows, RuntimeRow{Param: "k", Value: k, PerImputation: d})
	}
	for _, frac := range []int{25, 50, 75, 100} {
		cfg := sp.Cfg
		cfg.WindowLength = sp.Cfg.WindowLength * frac / 100
		d, err := timeOne(cfg)
		if err != nil {
			return nil, fmt.Errorf("fig17 L=%d%%: %w", frac, err)
		}
		rows = append(rows, RuntimeRow{Param: "L", Value: cfg.WindowLength, PerImputation: d})
	}
	return rows, nil
}

// ---------------------------------------------------------------------------
// Sec. 7.4 — performance breakdown
// ---------------------------------------------------------------------------

// BreakdownRow reports the runtime shares of TKCM's phases for a given k
// (Sec. 7.4: pattern extraction ≈ 92% at k = 5; pattern selection climbs to
// ≈ 25% at k = 300).
type BreakdownRow struct {
	K                  int
	ExtractionFraction float64
	SelectionFraction  float64
	// ExtractionOps / SelectionOps are the deterministic operation counts of
	// the two phases (naive profile element ops vs DP cell updates), immune
	// to machine speed — tests assert dominance on these, not on wall clock.
	ExtractionOps int64
	SelectionOps  int64
}

// PerfBreakdown reproduces the Sec. 7.4 phase breakdown on SBR-1d.
func PerfBreakdown(scale Scale) ([]BreakdownRow, error) {
	sp := scale.Spec(DSSBR1d)
	frame := sp.Generate()
	var rows []BreakdownRow
	ks := []int{5, 50}
	// Shrink the large-k probe when the scale's window cannot host it.
	for probe := sp.Cfg; ; {
		probe.K = ks[1]
		if probe.Validate() == nil || ks[1] <= ks[0]+1 {
			break
		}
		ks[1] /= 2
	}
	for _, k := range ks {
		cfg := sp.Cfg
		cfg.K = k
		// Sec. 7.4 times the naive Def. 2 extraction, not the FFT one a
		// one-shot imputation defaults to.
		cfg.Profiler = core.ProfilerNaive
		t := sp.BlockStart
		lo := t - cfg.WindowLength + 1
		if lo < 0 {
			lo = 0
		}
		target := frame.ByName(sp.Target)
		sc, err := NewScenario(frame.Clone(), sp.Target, t, 1)
		if err != nil {
			return nil, err
		}
		_ = target
		work := sc.Frame.ByName(sp.Target)
		refs := make([][]float64, cfg.D)
		for i := 0; i < cfg.D; i++ {
			refs[i] = sc.Frame.ByName(sc.Refs[i]).Values[lo : t+1]
		}
		var agg core.PhaseTimings
		const reps = 5
		for r := 0; r < reps; r++ {
			_, pt, err := core.ImputeProfiled(cfg, work.Values[lo:t+1], refs)
			if err != nil {
				return nil, fmt.Errorf("perf breakdown k=%d: %w", k, err)
			}
			agg.PatternExtraction += pt.PatternExtraction
			agg.PatternSelection += pt.PatternSelection
			agg.ValueImputation += pt.ValueImputation
			agg.ExtractionOps += pt.ExtractionOps
			agg.SelectionOps += pt.SelectionOps
		}
		total := agg.Total()
		rows = append(rows, BreakdownRow{
			K:                  k,
			ExtractionFraction: float64(agg.PatternExtraction) / float64(total),
			SelectionFraction:  float64(agg.PatternSelection) / float64(total),
			ExtractionOps:      agg.ExtractionOps,
			SelectionOps:       agg.SelectionOps,
		})
	}
	return rows, nil
}
