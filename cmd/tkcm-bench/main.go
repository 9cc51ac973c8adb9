// Command tkcm-bench regenerates the tables and figures of the paper's
// evaluation (Sec. 7). Each experiment prints the same rows/series the paper
// reports; paper_runs/summary.md records the measured accuracy grid, cell by
// cell against the baselines.
//
// Usage:
//
//	tkcm-bench -experiment all            # every experiment at the active scale
//	tkcm-bench -experiment fig16          # one experiment
//	tkcm-bench -experiment fig11 -full    # paper-scale dimensions (slow)
//	tkcm-bench -list                      # list experiment ids
//
// The active scale is "small" unless -full or TKCM_FULL=1 selects the
// paper-scale dimensions (1-year SBR windows etc.).
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"runtime"
	"runtime/debug"
	"sort"
	"strings"
	"sync"
	"testing"
	"time"

	"tkcm/internal/benchcases"
	"tkcm/internal/core"
	"tkcm/internal/experiments"
)

type experiment struct {
	id    string
	about string
	run   func(experiments.Scale) error
}

// Flags consumed by the engine-throughput experiments.
var (
	profilerFlag = flag.String("profiler", "", "pin the engine experiment to one extraction strategy: naive|fft|incremental (default: sweep all)")
	parallelFlag = flag.Int("parallel", 0, "pin the engine experiment to one Tick worker count (default: sweep 1 and 4)")
	widthFlag    = flag.Int("width", 0, "pin the wide experiment to one stream count (default: sweep 256, plus 1024 at -full)")
	wideTicks    = flag.Int("wide-ticks", 0, "measured steady-state ticks of the wide experiment (default 300, 200 at -full)")
	jsonFlag     = flag.String("json", "", "write machine-readable engine/wide results to this file (e.g. BENCH_engine.json)")
	baselineFlag = flag.String("baseline", "", "pinned experiment: compare against this committed report (e.g. BENCH_engine.json) and fail on regression")
	regressFlag  = flag.Float64("regress", 0.30, "pinned experiment: tolerated ns/op increase over -baseline before failing (0.30 = +30%)")
	benchtime    = flag.String("benchtime", "200ms", "pinned experiment: per-case measurement time (testing -test.benchtime)")
)

// benchRecord is one -json row, tagged with the experiment that produced
// it; BatchSize is the ingest batch a pinned case runs at.
type benchRecord struct {
	Experiment string `json:"experiment"`
	BatchSize  int    `json:"batch_size,omitempty"`
	Row        any    `json:"row"`
}

// jsonRows collects engine/wide/pinned measurements for the -json report.
var jsonRows []benchRecord

func recordJSON(experiment string, row any) {
	jsonRows = append(jsonRows, benchRecord{Experiment: experiment, Row: row})
}

// writeJSON writes the -json report (schema "tkcm-bench/engine-v2"). The
// run metadata — toolchain, platform, CPU count, scheduler width and VCS
// commit — keeps BENCH_engine.json comparable across hosts and revisions.
func writeJSON(path, scale string) error {
	report := struct {
		Schema     string        `json:"schema"`
		Scale      string        `json:"scale"`
		Go         string        `json:"go"`
		GOOS       string        `json:"goos"`
		GOARCH     string        `json:"goarch"`
		NumCPU     int           `json:"num_cpu"`
		GOMAXPROCS int           `json:"gomaxprocs"`
		Commit     string        `json:"commit"`
		Timestamp  string        `json:"timestamp"`
		Rows       []benchRecord `json:"rows"`
	}{
		Schema:     "tkcm-bench/engine-v2",
		Scale:      scale,
		Go:         runtime.Version(),
		GOOS:       runtime.GOOS,
		GOARCH:     runtime.GOARCH,
		NumCPU:     runtime.NumCPU(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		Commit:     vcsCommit(),
		Timestamp:  time.Now().UTC().Format(time.RFC3339),
		Rows:       jsonRows,
	}
	buf, err := json.MarshalIndent(report, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(buf, '\n'), 0o644)
}

// vcsCommit reports the VCS revision stamped into the binary, suffixed
// "+dirty" for a modified tree, or "unknown" when built without VCS
// information.
func vcsCommit() string {
	bi, ok := debug.ReadBuildInfo()
	if !ok {
		return "unknown"
	}
	rev, dirty := "unknown", false
	for _, s := range bi.Settings {
		switch s.Key {
		case "vcs.revision":
			rev = s.Value
		case "vcs.modified":
			dirty = s.Value == "true"
		}
	}
	if dirty && rev != "unknown" {
		rev += "+dirty"
	}
	return rev
}

func main() {
	var (
		expID = flag.String("experiment", "all", "experiment id (see -list), comma-separated ids, or 'all'")
		full  = flag.Bool("full", false, "use paper-scale dimensions (slow; equivalent to TKCM_FULL=1)")
		list  = flag.Bool("list", false, "list experiment ids and exit")
	)
	flag.Parse()

	exps := allExperiments()
	if *list {
		for _, e := range exps {
			fmt.Printf("%-10s %s\n", e.id, e.about)
		}
		return
	}
	if *full {
		os.Setenv("TKCM_FULL", "1")
	}
	scale := experiments.ActiveScale()
	fmt.Printf("# TKCM benchmark suite — scale %q\n\n", scale.Name)

	known := make(map[string]bool, len(exps))
	for _, e := range exps {
		known[e.id] = true
	}
	wanted := make(map[string]bool)
	for _, id := range strings.Split(*expID, ",") {
		id = strings.TrimSpace(id)
		if id != "all" && !known[id] {
			fmt.Fprintf(os.Stderr, "unknown experiment %q; use -list\n", id)
			os.Exit(2)
		}
		wanted[id] = true
	}
	selected := exps[:0:0]
	for _, e := range exps {
		if wanted["all"] || wanted[e.id] {
			selected = append(selected, e)
		}
	}
	if len(selected) == 0 {
		fmt.Fprintf(os.Stderr, "no experiment selected; use -list\n")
		os.Exit(2)
	}
	for _, e := range selected {
		start := time.Now()
		fmt.Printf("== %s — %s\n", e.id, e.about)
		if err := e.run(scale); err != nil {
			fmt.Fprintf(os.Stderr, "%s: %v\n", e.id, err)
			os.Exit(1)
		}
		fmt.Printf("(%s in %v)\n\n", e.id, time.Since(start).Round(time.Millisecond))
	}
	if *jsonFlag != "" {
		if err := writeJSON(*jsonFlag, scale.Name); err != nil {
			fmt.Fprintf(os.Stderr, "writing %s: %v\n", *jsonFlag, err)
			os.Exit(1)
		}
		fmt.Printf("wrote %d machine-readable rows to %s\n", len(jsonRows), *jsonFlag)
	}
}

func allExperiments() []experiment {
	return []experiment{
		{"analysis", "Figs. 4–7: sine-wave correlation and pattern-length analysis", runAnalysis},
		{"fig10", "Fig. 10: calibration of d and k", runFig10},
		{"fig11", "Fig. 11: pattern length l on all datasets", runFig11},
		{"fig12", "Fig. 12: recovery with l = 1 vs l = 72", runFig12},
		{"fig13", "Fig. 13: non-linear correlation and average ε vs l (Chlorine)", runFig13},
		{"fig14", "Fig. 14: missing-block length", runFig14},
		{"fig15", "Fig. 15: qualitative comparison with SPIRIT, MUSCLES, CD", runFig15},
		{"fig16", "Fig. 16: RMSE summary comparison (headline result)", runFig16},
		{"fig17", "Fig. 17: runtime linearity in l, d, k, L", runFig17},
		{"perf", "Sec. 7.4: runtime breakdown of TKCM's phases", runPerf},
		{"engine", "streaming-engine throughput: naive vs FFT vs incremental extraction, serial vs parallel ticks", runEngine},
		{"pinned", "pinned hot-path micro-benchmarks (engine tick, columnar batch, WAL append) — CI's regression gate via -baseline", runPinned},
		{"wide", "wide-engine throughput: demand-driven engine over 256+ streams with sparse missingness", runWide},
		{"ablation", "Sec. 4.1 and Sec. 8 ablations (PAPER-MAP.md): DP vs greedy vs overlapping, norms, weighting", runAblation},
		{"alignment", "Sec. 8 future work: DTW-aligned series + l=1 vs shifted series + l>1", runAlignment},
	}
}

func runEngine(scale experiments.Scale) error {
	kinds := []core.ProfilerKind{core.ProfilerNaive, core.ProfilerFFT, core.ProfilerIncremental}
	if *profilerFlag != "" {
		k, err := core.ParseProfilerKind(*profilerFlag)
		if err != nil {
			return err
		}
		kinds = []core.ProfilerKind{k}
	}
	workers := []int{1, 4}
	if *parallelFlag > 0 {
		workers = []int{*parallelFlag}
	}
	const missingStreams = 4
	tbl := experiments.NewTable(
		"Streaming engine throughput on SBR-1d (targets dropped every 5th tick)",
		"profiler", "workers", "missing", "ticks", "imputations", "ticks/s", "allocs/tick", "per imputation")
	var baseline float64
	var speedups []string
	for _, k := range kinds {
		for _, w := range workers {
			row, err := experiments.EngineThroughput(scale, k, w, missingStreams)
			if err != nil {
				return err
			}
			recordJSON("engine", row)
			tbl.AddRow(row.Profiler, row.Workers, row.MissingStreams, row.Ticks, row.Imputations,
				fmt.Sprintf("%.0f", row.TicksPerSec), fmt.Sprintf("%.1f", row.AllocsPerTick),
				row.PerImputation.Round(time.Microsecond))
			if baseline == 0 {
				baseline = row.TicksPerSec
			} else {
				speedups = append(speedups, fmt.Sprintf("%s/w%d %.1fx", row.Profiler, row.Workers, row.TicksPerSec/baseline))
			}
		}
	}
	if _, err := tbl.WriteTo(os.Stdout); err != nil {
		return err
	}
	if len(speedups) > 0 {
		fmt.Printf("speedup vs first row: %s\n", strings.Join(speedups, ", "))
	}
	return nil
}

// pinnedRow is one pinned micro-benchmark measurement; its Name keys the
// -baseline comparison across revisions.
type pinnedRow struct {
	Name        string  `json:"name"`
	NsPerOp     float64 `json:"ns_per_op"`
	AllocsPerOp int64   `json:"allocs_per_op"`
}

// testingInit prepares the testing package for standalone testing.Benchmark
// runs exactly once (a second testing.Init would panic on flag redefinition).
var testingInit sync.Once

// runPinned runs the shared benchcases bodies through testing.Benchmark —
// the same code the root bench_test.go wrappers measure — and, with
// -baseline, fails when any case's ns/op regressed more than -regress over
// the committed report. CI runs this against the checked-in
// BENCH_engine.json before refreshing it.
func runPinned(experiments.Scale) error {
	testingInit.Do(testing.Init)
	if err := flag.Set("test.benchtime", *benchtime); err != nil {
		return err
	}
	base := map[string]pinnedRow{}
	if *baselineFlag != "" {
		var err error
		if base, err = loadPinnedBaseline(*baselineFlag); err != nil {
			return err
		}
	}
	tbl := experiments.NewTable(
		fmt.Sprintf("Pinned hot-path micro-benchmarks (benchtime %s; ns/op is per tick / per WAL row)", *benchtime),
		"case", "batch", "ns/op", "allocs/op", "baseline ns/op", "Δ")
	var failures []string
	for _, c := range benchcases.Cases() {
		// Min of three runs: scheduling noise only ever inflates a
		// measurement, so the minimum is the robust per-op estimate and
		// keeps the ±30% gate from tripping on a noisy neighbor.
		row := pinnedRow{Name: c.Name}
		for run := 0; run < 3; run++ {
			r := testing.Benchmark(c.Fn)
			ns := float64(r.T.Nanoseconds()) / float64(r.N)
			if run == 0 || ns < row.NsPerOp {
				row.NsPerOp = ns
				row.AllocsPerOp = r.AllocsPerOp()
			}
		}
		jsonRows = append(jsonRows, benchRecord{Experiment: "pinned", BatchSize: c.Batch, Row: row})
		baseNs, delta := "—", "—"
		if b, ok := base[c.Name]; ok && b.NsPerOp > 0 {
			ratio := row.NsPerOp/b.NsPerOp - 1
			baseNs = fmt.Sprintf("%.1f", b.NsPerOp)
			delta = fmt.Sprintf("%+.1f%%", 100*ratio)
			if ratio > *regressFlag {
				failures = append(failures, fmt.Sprintf("%s: %.1f ns/op vs baseline %.1f (%+.1f%% > +%.0f%%)",
					c.Name, row.NsPerOp, b.NsPerOp, 100*ratio, 100**regressFlag))
			}
		}
		tbl.AddRow(c.Name, c.Batch, fmt.Sprintf("%.1f", row.NsPerOp), row.AllocsPerOp, baseNs, delta)
	}
	if _, err := tbl.WriteTo(os.Stdout); err != nil {
		return err
	}
	if len(failures) > 0 {
		return fmt.Errorf("benchmark regression gate failed:\n  %s", strings.Join(failures, "\n  "))
	}
	return nil
}

// loadPinnedBaseline reads the pinned rows of a committed -json report.
func loadPinnedBaseline(path string) (map[string]pinnedRow, error) {
	raw, err := os.ReadFile(path)
	if err != nil {
		return nil, fmt.Errorf("reading baseline: %w", err)
	}
	var doc struct {
		Rows []struct {
			Experiment string          `json:"experiment"`
			Row        json.RawMessage `json:"row"`
		} `json:"rows"`
	}
	if err := json.Unmarshal(raw, &doc); err != nil {
		return nil, fmt.Errorf("parsing baseline %s: %w", path, err)
	}
	base := make(map[string]pinnedRow)
	for _, r := range doc.Rows {
		if r.Experiment != "pinned" {
			continue
		}
		var row pinnedRow
		if err := json.Unmarshal(r.Row, &row); err != nil {
			return nil, fmt.Errorf("parsing baseline %s: %w", path, err)
		}
		base[row.Name] = row
	}
	if len(base) == 0 {
		return nil, fmt.Errorf("baseline %s has no pinned rows", path)
	}
	return base, nil
}

// runWide measures the production-scale workload the demand-driven profiler
// state targets: hundreds to thousands of co-evolving streams with ≤5% of
// them missing per tick, references drawn from a small shared pool.
func runWide(scale experiments.Scale) error {
	widths := []int{256}
	winLen := 4032
	ticks := 300
	if scale.Name == "paper" {
		widths = []int{256, 1024}
		winLen = 8760
		ticks = 200
	}
	if *widthFlag > 0 {
		widths = []int{*widthFlag}
	}
	if *wideTicks > 0 {
		ticks = *wideTicks
	}
	tbl := experiments.NewTable(
		fmt.Sprintf("Wide-engine throughput (L=%d, 5%% of streams missing per tick, shared reference pool)", winLen),
		"width", "missing", "ticks/s", "ns/tick", "allocs/tick")
	for _, width := range widths {
		row, err := experiments.WideEngineThroughput(width, winLen, ticks, 0.05)
		if err != nil {
			return err
		}
		recordJSON("wide", row)
		tbl.AddRow(row.Width, row.MissingPerTick, fmt.Sprintf("%.0f", row.TicksPerSec),
			fmt.Sprintf("%.0f", row.NsPerTick), fmt.Sprintf("%.1f", row.AllocsPerTick))
	}
	_, err := tbl.WriteTo(os.Stdout)
	return err
}

func runAlignment(scale experiments.Scale) error {
	rows, err := experiments.AlignmentExperiment(scale)
	if err != nil {
		return err
	}
	tbl := experiments.NewTable("Sec. 8 — alignment experiment on SBR-1d", "variant", "RMSE")
	for _, r := range rows {
		tbl.AddRow(r.Variant, r.RMSE)
	}
	_, err = tbl.WriteTo(os.Stdout)
	return err
}

func runAnalysis(experiments.Scale) error {
	a := experiments.AnalyzeSines()
	tbl := experiments.NewTable("Sec. 5 analysis on s = sind(t), r1 = 1.5·sind(t)+1, r2 = sind(t−90)",
		"quantity", "value", "paper")
	tbl.AddRow("ρ(s, r1)", a.PearsonLinear, "1.0")
	tbl.AddRow("ρ(s, r2)", a.PearsonShifted, "−0.0085")
	tbl.AddRow("near-zero patterns r1, l=1", a.NearZeroR1L1, "5 (Fig. 6a)")
	tbl.AddRow("near-zero patterns r1, l=60", a.NearZeroR1L60, "2 (Fig. 6b)")
	tbl.AddRow("near-zero patterns r2, l=1", a.NearZeroR2L1, "several (Fig. 7a)")
	tbl.AddRow("near-zero patterns r2, l=60", a.NearZeroR2L60, "2 (Fig. 7b)")
	tbl.AddRow("spread of s at matches, r2, l=1", a.SpreadR2L1, "≈1.72 (±0.86)")
	tbl.AddRow("spread of s at matches, r2, l=60", a.SpreadR2L60, "0")
	_, err := tbl.WriteTo(os.Stdout)
	return err
}

func runFig10(scale experiments.Scale) error {
	rows, err := experiments.Fig10Calibration(scale)
	if err != nil {
		return err
	}
	tbl := experiments.NewTable("Fig. 10 — RMSE vs d (left) and k (right)", "dataset", "param", "value", "RMSE")
	for _, r := range rows {
		tbl.AddRow(r.Dataset, r.Param, r.Value, r.RMSE)
	}
	_, err = tbl.WriteTo(os.Stdout)
	return err
}

func runFig11(scale experiments.Scale) error {
	rows, err := experiments.Fig11PatternLength(scale)
	if err != nil {
		return err
	}
	tbl := experiments.NewTable("Fig. 11 — RMSE vs pattern length l", "dataset", "l", "RMSE")
	for _, r := range rows {
		tbl.AddRow(r.Dataset, r.L, r.RMSE)
	}
	_, err = tbl.WriteTo(os.Stdout)
	return err
}

func runFig12(scale experiments.Scale) error {
	series, err := experiments.Fig12Recovery(scale)
	if err != nil {
		return err
	}
	tbl := experiments.NewTable("Fig. 12 — recovery with l = 1 vs l = 72 (oscillation = std of first difference)",
		"dataset", "RMSE l=1", "RMSE l=72", "osc l=1", "osc l=72", "osc truth")
	for _, s := range series {
		tbl.AddRow(s.Dataset, s.RMSEShort, s.RMSELong, s.OscShort, s.OscLong, s.OscTruth)
	}
	if _, err := tbl.WriteTo(os.Stdout); err != nil {
		return err
	}
	for _, s := range series {
		fmt.Printf("%-9s truth %s\n", s.Dataset, experiments.Sparkline(s.Truth, 60))
		fmt.Printf("%-9s l=1   %s\n", "", experiments.Sparkline(s.ShortPattern, 60))
		fmt.Printf("%-9s l=72  %s\n", "", experiments.Sparkline(s.LongPattern, 60))
	}
	return nil
}

func runFig13(scale experiments.Scale) error {
	res, err := experiments.Fig13Epsilon(scale)
	if err != nil {
		return err
	}
	fmt.Printf("Fig. 13a — ρ(s, r1) on Chlorine: %.4f (paper: 0.5, weak linear correlation)\n", res.PearsonTargetRef)
	tbl := experiments.NewTable("Fig. 13b — average ε vs pattern length l", "l", "avg ε", "RMSE")
	for _, r := range res.Rows {
		tbl.AddRow(r.L, r.AvgEpsilon, r.RMSE)
	}
	_, err = tbl.WriteTo(os.Stdout)
	return err
}

func runFig14(scale experiments.Scale) error {
	rows, err := experiments.Fig14BlockLength(scale)
	if err != nil {
		return err
	}
	tbl := experiments.NewTable("Fig. 14 — RMSE vs missing-block length", "dataset", "block", "ticks", "RMSE")
	for _, r := range rows {
		tbl.AddRow(r.Dataset, r.Label, r.Ticks, r.RMSE)
	}
	_, err = tbl.WriteTo(os.Stdout)
	return err
}

func runFig15(scale experiments.Scale) error {
	series, err := experiments.Fig15Comparison(scale)
	if err != nil {
		return err
	}
	tbl := experiments.NewTable("Fig. 15 — one block per dataset, all algorithms", "dataset", "algorithm", "RMSE", "time")
	for _, s := range series {
		for _, r := range s.Rows {
			tbl.AddRow(s.Dataset, r.Algorithm, r.RMSE, r.Elapsed.Round(time.Millisecond))
		}
	}
	if _, err := tbl.WriteTo(os.Stdout); err != nil {
		return err
	}
	for _, s := range series {
		fmt.Printf("%-9s truth   %s\n", s.Dataset, experiments.Sparkline(s.Truth, 60))
		algs := make([]string, 0, len(s.Recoveries))
		for alg := range s.Recoveries {
			algs = append(algs, alg)
		}
		sort.Strings(algs)
		for _, alg := range algs {
			fmt.Printf("%-9s %-7s %s\n", "", alg, experiments.Sparkline(s.Recoveries[alg], 60))
		}
	}
	return nil
}

func runFig16(scale experiments.Scale) error {
	rows, err := experiments.Fig16Summary(scale)
	if err != nil {
		return err
	}
	tbl := experiments.NewTable("Fig. 16 — mean RMSE over 4 target series per dataset (headline comparison)",
		"dataset", "algorithm", "RMSE")
	for _, r := range rows {
		tbl.AddRow(r.Dataset, r.Algorithm, r.RMSE)
	}
	_, err = tbl.WriteTo(os.Stdout)
	return err
}

func runFig17(scale experiments.Scale) error {
	rows, err := experiments.Fig17Runtime(scale)
	if err != nil {
		return err
	}
	tbl := experiments.NewTable("Fig. 17 — per-imputation runtime (linear in each parameter)",
		"param", "value", "time per imputation")
	for _, r := range rows {
		tbl.AddRow(r.Param, r.Value, r.PerImputation.Round(time.Microsecond))
	}
	_, err = tbl.WriteTo(os.Stdout)
	return err
}

func runPerf(scale experiments.Scale) error {
	rows, err := experiments.PerfBreakdown(scale)
	if err != nil {
		return err
	}
	tbl := experiments.NewTable("Sec. 7.4 — phase breakdown (paper: extraction ≈ 92% at k = 5)",
		"k", "extraction", "selection")
	for _, r := range rows {
		tbl.AddRow(r.K, fmt.Sprintf("%.1f%%", 100*r.ExtractionFraction), fmt.Sprintf("%.1f%%", 100*r.SelectionFraction))
	}
	_, err = tbl.WriteTo(os.Stdout)
	return err
}

func runAblation(scale experiments.Scale) error {
	var all []experiments.AblationRow
	for _, fn := range []func(experiments.Scale, string) ([]experiments.AblationRow, error){
		experiments.AblationSelection, experiments.AblationNorms, experiments.AblationWeighting,
	} {
		rows, err := fn(scale, experiments.DSSBR1d)
		if err != nil {
			return err
		}
		all = append(all, rows...)
	}
	tbl := experiments.NewTable("Ablations on SBR-1d (see PAPER-MAP.md)", "variant", "RMSE", "mean Σδ")
	for _, r := range all {
		sum := "—"
		if r.SumDissimilarity != 0 {
			sum = fmt.Sprintf("%.4g", r.SumDissimilarity)
		}
		tbl.AddRow(r.Variant, r.RMSE, sum)
	}
	_, err := tbl.WriteTo(os.Stdout)
	if err != nil {
		return err
	}
	fmt.Println(strings.TrimSpace(`
Notes: 'dp' is the paper's dynamic program (Eq. 5); 'greedy' and
'overlapping' are the failure modes discussed in Secs. 6.1 and 4.1.`))
	return nil
}
