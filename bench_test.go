// Benchmarks reproducing every table and figure of the paper's evaluation
// (Sec. 7). Each figure bench runs the corresponding experiment from
// internal/experiments at the active scale ("small" by default; set
// TKCM_FULL=1 for the paper-scale dimensions) and reports the headline
// numbers as custom metrics, so
//
//	go test -bench=. -benchmem
//
// regenerates the paper's rows. cmd/tkcm-bench prints the same experiments
// as full tables; EXPERIMENTS.md records paper-vs-measured.
package tkcm_test

import (
	"fmt"
	"math"
	"strings"
	"testing"

	"tkcm"
	"tkcm/internal/benchcases"
	"tkcm/internal/core"
	"tkcm/internal/experiments"
)

// benchScale is resolved once; all figure benches share it.
var benchScale = experiments.ActiveScale()

// BenchmarkFig10Calibration — Fig. 10: RMSE as a function of d and k on
// SBR-1d, Flights, and Chlorine.
func BenchmarkFig10Calibration(b *testing.B) {
	for i := 0; i < b.N; i++ {
		rows, err := experiments.Fig10Calibration(benchScale)
		if err != nil {
			b.Fatal(err)
		}
		if i == 0 {
			for _, r := range rows {
				b.ReportMetric(r.RMSE, fmt.Sprintf("rmse-%s-%s%d", r.Dataset, r.Param, r.Value))
			}
		}
	}
}

// BenchmarkFig11PatternLength — Fig. 11: RMSE as a function of the pattern
// length l on all four datasets.
func BenchmarkFig11PatternLength(b *testing.B) {
	for i := 0; i < b.N; i++ {
		rows, err := experiments.Fig11PatternLength(benchScale)
		if err != nil {
			b.Fatal(err)
		}
		if i == 0 {
			for _, r := range rows {
				b.ReportMetric(r.RMSE, fmt.Sprintf("rmse-%s-l%d", r.Dataset, r.L))
			}
		}
	}
}

// BenchmarkFig12Recovery — Fig. 12: qualitative recovery with l = 1 vs
// l = 72; the reported metrics quantify the l = 1 oscillation.
func BenchmarkFig12Recovery(b *testing.B) {
	for i := 0; i < b.N; i++ {
		series, err := experiments.Fig12Recovery(benchScale)
		if err != nil {
			b.Fatal(err)
		}
		if i == 0 {
			for _, s := range series {
				b.ReportMetric(s.RMSEShort, fmt.Sprintf("rmse-%s-l1", s.Dataset))
				b.ReportMetric(s.RMSELong, fmt.Sprintf("rmse-%s-l72", s.Dataset))
				b.ReportMetric(s.OscShort, fmt.Sprintf("osc-%s-l1", s.Dataset))
				b.ReportMetric(s.OscLong, fmt.Sprintf("osc-%s-l72", s.Dataset))
			}
		}
	}
}

// BenchmarkFig13Epsilon — Fig. 13: average anchor spread ε vs l on Chlorine.
func BenchmarkFig13Epsilon(b *testing.B) {
	for i := 0; i < b.N; i++ {
		res, err := experiments.Fig13Epsilon(benchScale)
		if err != nil {
			b.Fatal(err)
		}
		if i == 0 {
			b.ReportMetric(res.PearsonTargetRef, "pearson-s-r1")
			for _, r := range res.Rows {
				b.ReportMetric(r.AvgEpsilon, fmt.Sprintf("eps-l%d", r.L))
			}
		}
	}
}

// BenchmarkFig14BlockLength — Fig. 14: RMSE vs missing-block length.
func BenchmarkFig14BlockLength(b *testing.B) {
	for i := 0; i < b.N; i++ {
		rows, err := experiments.Fig14BlockLength(benchScale)
		if err != nil {
			b.Fatal(err)
		}
		if i == 0 {
			for _, r := range rows {
				b.ReportMetric(r.RMSE, fmt.Sprintf("rmse-%s-%s", r.Dataset, r.Label))
			}
		}
	}
}

// BenchmarkFig15Comparison — Fig. 15: one block per dataset recovered by
// TKCM, SPIRIT, MUSCLES, and CD.
func BenchmarkFig15Comparison(b *testing.B) {
	for i := 0; i < b.N; i++ {
		series, err := experiments.Fig15Comparison(benchScale)
		if err != nil {
			b.Fatal(err)
		}
		if i == 0 {
			for _, s := range series {
				for _, r := range s.Rows {
					b.ReportMetric(r.RMSE, fmt.Sprintf("rmse-%s-%s", s.Dataset, r.Algorithm))
				}
			}
		}
	}
}

// BenchmarkFig16Summary — Fig. 16: the headline RMSE comparison, averaged
// over 4 target series per dataset.
func BenchmarkFig16Summary(b *testing.B) {
	for i := 0; i < b.N; i++ {
		rows, err := experiments.Fig16Summary(benchScale)
		if err != nil {
			b.Fatal(err)
		}
		if i == 0 {
			for _, r := range rows {
				b.ReportMetric(r.RMSE, fmt.Sprintf("rmse-%s-%s", r.Dataset, r.Algorithm))
			}
		}
	}
}

// BenchmarkFig17Runtime — Fig. 17: per-imputation runtime while varying
// l, d, k, and L one at a time (expected: linear in each, Lemma 6.2).
func BenchmarkFig17Runtime(b *testing.B) {
	for i := 0; i < b.N; i++ {
		rows, err := experiments.Fig17Runtime(benchScale)
		if err != nil {
			b.Fatal(err)
		}
		if i == 0 {
			for _, r := range rows {
				b.ReportMetric(float64(r.PerImputation.Microseconds()),
					fmt.Sprintf("us-%s%d", r.Param, r.Value))
			}
		}
	}
}

// BenchmarkPerfBreakdown — Sec. 7.4: share of runtime in pattern extraction
// vs pattern selection (paper: extraction ≈ 92% at k = 5).
func BenchmarkPerfBreakdown(b *testing.B) {
	for i := 0; i < b.N; i++ {
		rows, err := experiments.PerfBreakdown(benchScale)
		if err != nil {
			b.Fatal(err)
		}
		if i == 0 {
			for _, r := range rows {
				b.ReportMetric(100*r.ExtractionFraction, fmt.Sprintf("extract-pct-k%d", r.K))
				b.ReportMetric(100*r.SelectionFraction, fmt.Sprintf("select-pct-k%d", r.K))
			}
		}
	}
}

// BenchmarkAblationGreedyVsDP — PAPER-MAP.md's Sec. 4.1 row: DP vs greedy
// vs overlapping anchor selection on SBR-1d.
func BenchmarkAblationGreedyVsDP(b *testing.B) {
	for i := 0; i < b.N; i++ {
		rows, err := experiments.AblationSelection(benchScale, experiments.DSSBR1d)
		if err != nil {
			b.Fatal(err)
		}
		if i == 0 {
			for _, r := range rows {
				b.ReportMetric(r.RMSE, "rmse-"+r.Variant)
				b.ReportMetric(r.SumDissimilarity, "sumdelta-"+r.Variant)
			}
		}
	}
}

// BenchmarkAblationNorms — PAPER-MAP.md's L1/L∞ norms row: L2 vs L1 vs L∞
// dissimilarity.
func BenchmarkAblationNorms(b *testing.B) {
	for i := 0; i < b.N; i++ {
		rows, err := experiments.AblationNorms(benchScale, experiments.DSSBR1d)
		if err != nil {
			b.Fatal(err)
		}
		if i == 0 {
			for _, r := range rows {
				b.ReportMetric(r.RMSE, "rmse-"+r.Variant)
			}
		}
	}
}

// BenchmarkAblationWeighting — PAPER-MAP.md's Def. 4 row: plain vs
// similarity-weighted anchor mean.
func BenchmarkAblationWeighting(b *testing.B) {
	for i := 0; i < b.N; i++ {
		rows, err := experiments.AblationWeighting(benchScale, experiments.DSSBR1d)
		if err != nil {
			b.Fatal(err)
		}
		if i == 0 {
			for _, r := range rows {
				b.ReportMetric(r.RMSE, "rmse-"+r.Variant)
			}
		}
	}
}

// BenchmarkAlignmentExperiment — Sec. 8 future work: DTW-aligned references
// with l = 1 vs shifted references with l > 1 on SBR-1d.
func BenchmarkAlignmentExperiment(b *testing.B) {
	for i := 0; i < b.N; i++ {
		rows, err := experiments.AlignmentExperiment(benchScale)
		if err != nil {
			b.Fatal(err)
		}
		if i == 0 {
			for _, r := range rows {
				// Metric units must not contain whitespace.
				b.ReportMetric(r.RMSE, "rmse-"+strings.ReplaceAll(r.Variant, " ", "-"))
			}
		}
	}
}

// ---------------------------------------------------------------------------
// Micro-benchmarks of the core primitive (complexity Lemmas 6.1–6.3).
// ---------------------------------------------------------------------------

// benchWindows builds one SBR-1d imputation problem at the bench scale.
func benchWindows(b *testing.B, cfg core.Config) (s []float64, refs [][]float64) {
	b.Helper()
	sp := benchScale.Spec(experiments.DSSBR1d)
	frame := sp.Generate()
	t := sp.BlockStart
	lo := t - cfg.WindowLength + 1
	if lo < 0 {
		b.Fatalf("window %d too long for block start %d", cfg.WindowLength, t)
	}
	s = append([]float64(nil), frame.ByName(sp.Target).Values[lo:t+1]...)
	s[len(s)-1] = tkcm.Missing
	names := frame.Names()
	for _, name := range names {
		if name == sp.Target || len(refs) == cfg.D {
			continue
		}
		refs = append(refs, frame.ByName(name).Values[lo:t+1])
	}
	return s, refs
}

// BenchmarkImputeSingle times one TKCM imputation at the scale defaults —
// the paper reports ≈ 2 s per imputation at full scale on 2010 hardware.
func BenchmarkImputeSingle(b *testing.B) {
	cfg := benchScale.Spec(experiments.DSSBR1d).Cfg
	s, refs := benchWindows(b, cfg)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := core.Impute(cfg, s, refs); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkImputeGreedy times the greedy-selection ablation.
func BenchmarkImputeGreedy(b *testing.B) {
	cfg := benchScale.Spec(experiments.DSSBR1d).Cfg
	cfg.Selection = core.SelectGreedy
	s, refs := benchWindows(b, cfg)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := core.Impute(cfg, s, refs); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkImputeL1 times the L1-norm ablation.
func BenchmarkImputeL1(b *testing.B) {
	cfg := benchScale.Spec(experiments.DSSBR1d).Cfg
	cfg.Norm = core.L1
	s, refs := benchWindows(b, cfg)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := core.Impute(cfg, s, refs); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkImputeFastExtraction times the FFT-based pattern extraction
// (Sec. 8 future work) against BenchmarkImputeSingle's naive path; the gap
// widens with l (O(d·L·log L) vs O(d·l·L)).
func BenchmarkImputeFastExtraction(b *testing.B) {
	cfg := benchScale.Spec(experiments.DSSBR1d).Cfg
	cfg.Profiler = core.ProfilerFFT
	s, refs := benchWindows(b, cfg)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := core.Impute(cfg, s, refs); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkImputeLongPatternNaive and ...FFT contrast the two extraction
// paths at a long pattern (l = 144), where the FFT advantage is largest.
func BenchmarkImputeLongPatternNaive(b *testing.B) {
	cfg := benchScale.Spec(experiments.DSSBR1d).Cfg
	cfg.PatternLength = 144
	s, refs := benchWindows(b, cfg)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := core.Impute(cfg, s, refs); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkImputeLongPatternFFT(b *testing.B) {
	cfg := benchScale.Spec(experiments.DSSBR1d).Cfg
	cfg.PatternLength = 144
	cfg.Profiler = core.ProfilerFFT
	s, refs := benchWindows(b, cfg)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := core.Impute(cfg, s, refs); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkEngineTick times the O(1) streaming advance plus imputation of
// one missing value through the public engine (default configuration, i.e.
// the incremental profiler).
func BenchmarkEngineTick(b *testing.B) {
	benchEngineTick(b, tkcm.Config{K: 5, PatternLength: 72, D: 3, WindowLength: 4032})
}

// benchEngineTick streams warm SBR-1d data with the target missing every
// bench iteration.
func benchEngineTick(b *testing.B, cfg tkcm.Config) {
	b.Helper()
	eng, err := tkcm.NewEngine(cfg, []string{"s", "r1", "r2", "r3"}, map[string]tkcm.ReferenceSet{
		"s": {Stream: "s", Candidates: []string{"r1", "r2", "r3"}},
	})
	if err != nil {
		b.Fatal(err)
	}
	sp := benchScale.Spec(experiments.DSSBR1d)
	frame := sp.Generate()
	rows := make([][]float64, frame.Len())
	for t := range rows {
		rows[t] = []float64{
			frame.Series[0].Values[t],
			frame.Series[1].Values[t],
			frame.Series[2].Values[t],
			frame.Series[3].Values[t],
		}
	}
	if cfg.WindowLength+512 > len(rows) {
		// The window outgrows the generated dataset (e.g. the L = 8760
		// profiler benches at the small scale): extend with deterministic
		// daily-periodic rows so every configuration warms fully.
		n := cfg.WindowLength + 2048
		rows = make([][]float64, n)
		state := uint64(17)
		noise := func() float64 {
			state ^= state << 13
			state ^= state >> 7
			state ^= state << 17
			return float64(state%1000) / 2000
		}
		for t := range rows {
			ph := 2 * math.Pi * float64(t) / 288
			rows[t] = []float64{
				math.Sin(ph) + noise(),
				math.Sin(ph-1.0) + noise(),
				math.Cos(ph+0.4) + noise(),
				math.Sin(2*ph) + noise(),
			}
		}
	}
	// Warm the window completely.
	for t := 0; t < cfg.WindowLength; t++ {
		if _, _, err := eng.Tick(rows[t]); err != nil {
			b.Fatal(err)
		}
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		t := cfg.WindowLength + i%(len(rows)-cfg.WindowLength)
		row := []float64{tkcm.Missing, rows[t][1], rows[t][2], rows[t][3]}
		if _, _, err := eng.Tick(row); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkEngineTickProfilers contrasts the extraction strategies on the
// streaming hot path at the paper's default pattern length (l = 72) and a
// year-of-hours window (L = 8760): the per-tick cost drops from the naive
// O(d·l·L) recompute to incremental maintenance, which the demand-driven
// profiler defers until a stream is consulted.
func BenchmarkEngineTickProfilers(b *testing.B) {
	for _, kind := range []tkcm.ProfilerKind{tkcm.ProfilerNaive, tkcm.ProfilerFFT, tkcm.ProfilerIncremental} {
		b.Run(kind.String(), func(b *testing.B) {
			cfg := tkcm.Config{K: 5, PatternLength: 72, D: 3, WindowLength: 8760, Profiler: kind}
			benchEngineTick(b, cfg)
		})
	}
}

// BenchmarkEngineWide streams the wide-engine scenario (W = 256 streams,
// 5% missing per tick, shared reference pool — the same generator behind
// `tkcm-bench -experiment wide`) through the public engine at the
// demand-driven default. The full sweep, including W = 1024, runs via the
// tkcm-bench experiment.
func BenchmarkEngineWide(b *testing.B) {
	const width = 256
	sc, err := experiments.NewWideScenario(width, 0.05)
	if err != nil {
		b.Fatal(err)
	}
	cfg := tkcm.Config{K: 5, PatternLength: 72, D: 3, WindowLength: 4032}
	eng, err := tkcm.NewEngine(cfg, sc.Names(), sc.Refs())
	if err != nil {
		b.Fatal(err)
	}
	defer eng.Close()
	row := make([]float64, width)
	for t := 0; t < cfg.WindowLength; t++ {
		sc.FillRow(t, row)
		if _, _, err := eng.Tick(row); err != nil {
			b.Fatal(err)
		}
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		sc.FillRow(cfg.WindowLength+i, row)
		sc.MarkMissing(i, row)
		if _, _, err := eng.Tick(row); err != nil {
			b.Fatal(err)
		}
	}
}

// benchEngineTickParallel streams eight co-evolving streams and drops four
// of them on every bench iteration, so one Tick carries four imputations
// for the worker pool to fan out. It pins the naive profiler: with
// incremental extraction the per-imputation work is already tiny and the
// serial state maintenance dominates, so fan-out has nothing to win there.
func benchEngineTickParallel(b *testing.B, workers int) {
	b.Helper()
	const width = 8
	cfg := tkcm.Config{K: 5, PatternLength: 72, D: 3, WindowLength: 4032, Workers: workers, Profiler: tkcm.ProfilerNaive}
	names := make([]string, width)
	refs := make(map[string]tkcm.ReferenceSet, 4)
	for i := range names {
		names[i] = fmt.Sprintf("s%d", i)
	}
	// Streams 0-3 are targets referencing the always-present streams 4-7.
	for i := 0; i < 4; i++ {
		refs[names[i]] = tkcm.ReferenceSet{Stream: names[i], Candidates: names[4:]}
	}
	eng, err := tkcm.NewEngine(cfg, names, refs)
	if err != nil {
		b.Fatal(err)
	}
	defer eng.Close()
	sp := benchScale.Spec(experiments.DSSBR1d)
	frame := sp.Generate()
	nSeries := len(frame.Series)
	row := make([]float64, width)
	fill := func(t int) {
		for j := 0; j < width; j++ {
			s := frame.Series[j%nSeries].Values
			row[j] = s[t%len(s)] + float64(j)
		}
	}
	for t := 0; t < cfg.WindowLength; t++ {
		fill(t)
		if _, _, err := eng.Tick(row); err != nil {
			b.Fatal(err)
		}
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		fill(cfg.WindowLength + i)
		for j := 0; j < 4; j++ {
			row[j] = tkcm.Missing
		}
		if _, _, err := eng.Tick(row); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkEngineTickSerial vs BenchmarkEngineTickParallel measure the
// worker-pool fan-out of one Tick's imputations across missing streams.
func BenchmarkEngineTickSerial(b *testing.B)   { benchEngineTickParallel(b, 1) }
func BenchmarkEngineTickParallel(b *testing.B) { benchEngineTickParallel(b, 4) }

// BenchmarkEngineTickColumns streams the pinned steady-state workload
// (width 4, stream 0 missing every 20th tick) through the columnar ingest
// path, 64 ticks per TickColumns call; ns/op is per tick, directly
// comparable to BenchmarkEngineTickRowBaseline. The same bodies run in CI's
// regression gate via `tkcm-bench -experiment pinned`.
func BenchmarkEngineTickColumns(b *testing.B) { benchcases.EngineTickColumns(b, 64) }

// BenchmarkEngineTickRowBaseline is the row-at-a-time baseline of the pinned
// workload (BenchmarkEngineTick measures a different, impute-every-tick
// workload).
func BenchmarkEngineTickRowBaseline(b *testing.B) { benchcases.EngineTick(b) }

// BenchmarkWALAppendBatch appends 64-row batches — one record, one CRC, one
// group-commit slot per batch; ns/op is per row, comparable to
// BenchmarkWALAppend.
func BenchmarkWALAppendBatch(b *testing.B) { benchcases.WALAppendBatch(b, 64) }

// BenchmarkWALAppend is the per-row WAL append baseline.
func BenchmarkWALAppend(b *testing.B) { benchcases.WALAppend(b) }

// BenchmarkShardTick runs the pinned workload through the shard layer
// (routing, queue handoff, stage clocks, engine tick), bounding the serving
// overhead over BenchmarkEngineTickRowBaseline.
func BenchmarkShardTick(b *testing.B) { benchcases.ShardTick(b) }

// BenchmarkShardTickCold is the residency tier's worst case: every measured
// tick hydrates a parked tenant (mmap checkpoint restore) before ticking, so
// the delta over BenchmarkShardTick is the cost a cold tenant's first tick
// pays.
func BenchmarkShardTickCold(b *testing.B) { benchcases.ShardTickCold(b) }
