package experiments

import (
	"encoding/json"
	"fmt"
	"math"
	"os"
	"sort"

	"tkcm/internal/cd"
	"tkcm/internal/core"
	"tkcm/internal/dataset"
	"tkcm/internal/muscles"
	"tkcm/internal/spirit"
	"tkcm/internal/stats"
)

// GridSchema is the spec/summary schema identifier written into every grid
// artifact; bump it when the cell key format or the summary layout changes.
const GridSchema = "tkcm-grid-v1"

// GridScenario selects one missingness family of internal/dataset plus its
// knobs. Zero knobs take the family defaults (dataset.ScenarioConfig).
type GridScenario struct {
	Kind       string  `json:"kind"`
	RefRate    float64 `json:"ref_rate,omitempty"`
	MeanRun    int     `json:"mean_run,omitempty"`
	Corr       float64 `json:"corr,omitempty"`
	LevelShift float64 `json:"level_shift,omitempty"`
	ScaleShift float64 `json:"scale_shift,omitempty"`
	DriftPday  float64 `json:"drift_per_day,omitempty"`
}

// GridQuick is the CI-sized restriction of a grid: the subset of datasets and
// pattern lengths the `-quick` accuracy gate runs on every PR. Empty fields
// default to the first two datasets and the first pattern length.
type GridQuick struct {
	Datasets       []string `json:"datasets,omitempty"`
	PatternLengths []int    `json:"pattern_lengths,omitempty"`
}

// SLOSweep declares one serving-SLO cell: a real tkcm-serve process sized
// shards × tenants × width, driven at the given missing rate (with optional
// live-migration churn) for the duration, then judged against the latency
// budgets from the server's /metrics histograms.
type SLOSweep struct {
	Name     string  `json:"name"`
	Shards   int     `json:"shards"`
	Tenants  int     `json:"tenants"`
	Width    int     `json:"width"`
	Batch    int     `json:"batch,omitempty"`
	Missing  float64 `json:"missing"`
	Duration string  `json:"duration"`
	// MigrateEvery, when set, walks one tenant to another shard on this
	// interval throughout the sweep (live-migration churn).
	MigrateEvery string `json:"migrate_every,omitempty"`
	// BudgetAckP99Ms is the end-to-end ack budget: the sweep fails when the
	// p99 of tkcm_ack_seconds exceeds it.
	BudgetAckP99Ms float64 `json:"budget_ack_p99_ms"`
	// BudgetStageP99Ms optionally bounds individual tkcm_tick_stage_seconds
	// stages (decode, queue, engine, wal_commit, ack) the same way.
	BudgetStageP99Ms map[string]float64 `json:"budget_stage_p99_ms,omitempty"`
}

// GridSpec is the declarative paper grid: dataset × scenario × pattern-length
// × algorithm, all runs derived from one seed. It is the experiments.json
// schema.
type GridSpec struct {
	Schema string `json:"schema"`
	Name   string `json:"name"`
	// Seed drives every scenario injection; per-cell seeds are derived from
	// it deterministically.
	Seed       uint64         `json:"seed"`
	Datasets   []string       `json:"datasets"`
	Algorithms []string       `json:"algorithms"`
	Scenarios  []GridScenario `json:"scenarios"`
	// PatternLengths sweeps TKCM's l; other algorithms are unaffected by l
	// and run once per (dataset, scenario) at the first value. Empty means
	// the scale's default configuration.
	PatternLengths []int `json:"pattern_lengths,omitempty"`
	// TargetsPerDataset imputes that many of the spec's target series per
	// cell and averages the metrics. Default 1 (the headline target).
	TargetsPerDataset int       `json:"targets_per_dataset,omitempty"`
	Quick             GridQuick `json:"quick"`
	// SLO declares the serving sweeps (run by cmd/tkcm-grid -slo; not part
	// of the accuracy grid).
	SLO struct {
		Sweeps []SLOSweep `json:"sweeps,omitempty"`
	} `json:"slo"`
}

// knownAlgorithms is the set RunGrid can execute.
var knownAlgorithms = map[string]bool{
	AlgTKCM: true, AlgSPIRIT: true, AlgMUSCLES: true, AlgCD: true,
	AlgInterpolate: true, AlgKNNI: true,
}

// LoadGridSpec reads and validates an experiments.json grid spec.
func LoadGridSpec(path string) (*GridSpec, error) {
	raw, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	return ParseGridSpec(raw)
}

// ParseGridSpec decodes and validates a grid spec.
func ParseGridSpec(raw []byte) (*GridSpec, error) {
	var spec GridSpec
	if err := json.Unmarshal(raw, &spec); err != nil {
		return nil, fmt.Errorf("experiments: bad grid spec: %w", err)
	}
	if err := spec.Validate(); err != nil {
		return nil, err
	}
	return &spec, nil
}

// Validate checks the spec against the known datasets, algorithms, and
// scenario kinds, and normalizes defaults (seed 1, one target per dataset).
func (s *GridSpec) Validate() error {
	if s.Schema != "" && s.Schema != GridSchema {
		return fmt.Errorf("experiments: grid spec schema %q, want %q", s.Schema, GridSchema)
	}
	if s.Name == "" {
		return fmt.Errorf("experiments: grid spec needs a name")
	}
	if s.Seed == 0 {
		s.Seed = 1
	}
	if len(s.Datasets) == 0 {
		return fmt.Errorf("experiments: grid spec lists no datasets")
	}
	known := make(map[string]bool, len(AllDatasets))
	for _, ds := range AllDatasets {
		known[ds] = true
	}
	for _, ds := range s.Datasets {
		if !known[ds] {
			return fmt.Errorf("experiments: unknown dataset %q (have %v)", ds, AllDatasets)
		}
	}
	if len(s.Algorithms) == 0 {
		return fmt.Errorf("experiments: grid spec lists no algorithms")
	}
	for _, alg := range s.Algorithms {
		if !knownAlgorithms[alg] {
			return fmt.Errorf("experiments: unknown algorithm %q", alg)
		}
	}
	if len(s.Scenarios) == 0 {
		return fmt.Errorf("experiments: grid spec lists no scenarios")
	}
	kinds := make(map[dataset.ScenarioKind]bool, len(dataset.AllScenarioKinds))
	for _, k := range dataset.AllScenarioKinds {
		kinds[k] = true
	}
	seen := make(map[string]bool, len(s.Scenarios))
	for _, sc := range s.Scenarios {
		if !kinds[dataset.ScenarioKind(sc.Kind)] {
			return fmt.Errorf("experiments: unknown scenario kind %q", sc.Kind)
		}
		if seen[sc.Kind] {
			return fmt.Errorf("experiments: scenario kind %q listed twice", sc.Kind)
		}
		seen[sc.Kind] = true
	}
	for _, l := range s.PatternLengths {
		if l <= 0 {
			return fmt.Errorf("experiments: pattern length %d out of range", l)
		}
	}
	if s.TargetsPerDataset < 0 {
		return fmt.Errorf("experiments: targets_per_dataset %d out of range", s.TargetsPerDataset)
	}
	if s.TargetsPerDataset == 0 {
		s.TargetsPerDataset = 1
	}
	for _, ds := range s.Quick.Datasets {
		if !known[ds] {
			return fmt.Errorf("experiments: unknown quick dataset %q", ds)
		}
	}
	for i, sw := range s.SLO.Sweeps {
		if sw.Name == "" {
			return fmt.Errorf("experiments: slo sweep %d needs a name", i)
		}
		if sw.Shards <= 0 || sw.Tenants <= 0 || sw.Width <= 0 {
			return fmt.Errorf("experiments: slo sweep %q needs positive shards/tenants/width", sw.Name)
		}
		if sw.Duration == "" {
			return fmt.Errorf("experiments: slo sweep %q needs a duration", sw.Name)
		}
		if sw.BudgetAckP99Ms <= 0 {
			return fmt.Errorf("experiments: slo sweep %q needs a positive ack budget", sw.Name)
		}
	}
	return nil
}

// quickView returns the CI-sized restriction of the spec: the declared quick
// datasets (default: first two) and pattern lengths (default: first), with
// one target per dataset.
func (s *GridSpec) quickView() GridSpec {
	q := *s
	q.Datasets = s.Quick.Datasets
	if len(q.Datasets) == 0 {
		q.Datasets = s.Datasets
		if len(q.Datasets) > 2 {
			q.Datasets = q.Datasets[:2]
		}
	}
	q.PatternLengths = s.Quick.PatternLengths
	if len(q.PatternLengths) == 0 && len(s.PatternLengths) > 0 {
		q.PatternLengths = s.PatternLengths[:1]
	}
	q.TargetsPerDataset = 1
	return q
}

// CellResult is one grid cell: one algorithm's accuracy on one
// (dataset, scenario, pattern-length) task, averaged over the configured
// targets. Metrics are NaN when no comparable tick exists.
type CellResult struct {
	Dataset  string `json:"dataset"`
	Scenario string `json:"scenario"`
	// PatternLength is TKCM's l for this cell; algorithms that have no l
	// carry the grid's first value so cell keys stay uniform.
	PatternLength int       `json:"l"`
	Algorithm     string    `json:"algorithm"`
	Targets       int       `json:"targets"`
	BlockLen      int       `json:"block_len"`
	RMSE          JSONFloat `json:"rmse"`
	SMAPE         JSONFloat `json:"smape"`
	MAE           JSONFloat `json:"mae"`
}

// Key returns the cell's stable identity, the accuracy-baseline map key.
func (c CellResult) Key() string {
	return fmt.Sprintf("%s/%s/l=%d/%s", c.Dataset, c.Scenario, c.PatternLength, c.Algorithm)
}

// GridResult is a full grid run: the spec identity plus every cell, in
// deterministic (dataset, scenario, l, algorithm) order.
type GridResult struct {
	Schema string       `json:"schema"`
	Grid   string       `json:"grid"`
	Seed   uint64       `json:"seed"`
	Scale  string       `json:"scale"`
	Quick  bool         `json:"quick"`
	Cells  []CellResult `json:"cells"`
}

// GridOptions tunes one RunGrid call.
type GridOptions struct {
	// Quick restricts the grid to the spec's CI-sized quick view.
	Quick bool
	// Perturb, when set, mutates every TKCM cell configuration before the
	// engine runs. It exists so tests can degrade the engine (e.g. force
	// PatternLength 1) and prove the accuracy gate trips; production runs
	// leave it nil.
	Perturb func(*core.Config)
	// Progress, when set, receives one call per completed cell.
	Progress func(c CellResult)
}

// RunGrid executes the spec's full dataset × scenario × pattern-length ×
// algorithm grid at the given scale. Every run with identical (scale, spec,
// opts.Quick) inputs produces identical results: scenarios are seeded from
// the spec seed, the engine runs serially, and cells are emitted in a fixed
// order.
func RunGrid(scale Scale, spec *GridSpec, opts GridOptions) (*GridResult, error) {
	if err := spec.Validate(); err != nil {
		return nil, err
	}
	view := *spec
	if opts.Quick {
		view = spec.quickView()
	}
	lengths := view.PatternLengths
	if len(lengths) == 0 {
		lengths = []int{0} // 0 = the scale's default PatternLength
	}
	res := &GridResult{
		Schema: GridSchema,
		Grid:   view.Name,
		Seed:   view.Seed,
		Scale:  scale.Name,
		Quick:  opts.Quick,
	}
	for _, ds := range view.Datasets {
		sp := scale.Spec(ds)
		targets := sp.Targets
		if len(targets) == 0 {
			targets = []string{sp.Target}
		}
		if len(targets) > view.TargetsPerDataset {
			targets = targets[:view.TargetsPerDataset]
		}
		for _, gsc := range view.Scenarios {
			for _, l := range lengths {
				for _, alg := range view.Algorithms {
					cell, err := runGridCell(sp, gsc, l, alg, targets, view.Seed, opts.Perturb)
					if err != nil {
						return nil, fmt.Errorf("experiments: cell %s/%s/l=%d/%s: %w", ds, gsc.Kind, l, alg, err)
					}
					res.Cells = append(res.Cells, cell)
					if opts.Progress != nil {
						opts.Progress(cell)
					}
				}
			}
		}
	}
	sort.Slice(res.Cells, func(i, j int) bool { return res.Cells[i].Key() < res.Cells[j].Key() })
	return res, nil
}

// GridCellKeys enumerates the cell keys a RunGrid call would produce, in the
// emitted (sorted) order, without running any cell — a cheap spec preview.
func GridCellKeys(scale Scale, spec *GridSpec, quick bool) []string {
	view := *spec
	if quick {
		view = spec.quickView()
	}
	lengths := view.PatternLengths
	if len(lengths) == 0 {
		lengths = []int{0}
	}
	var keys []string
	for _, ds := range view.Datasets {
		sp := scale.Spec(ds)
		for _, gsc := range view.Scenarios {
			for _, l := range lengths {
				resolved := l
				if resolved == 0 {
					resolved = sp.Cfg.PatternLength
				}
				for _, alg := range view.Algorithms {
					keys = append(keys, CellResult{
						Dataset: ds, Scenario: gsc.Kind, PatternLength: resolved, Algorithm: alg,
					}.Key())
				}
			}
		}
	}
	sort.Strings(keys)
	return keys
}

// runGridCell runs one algorithm over the configured targets of one
// (dataset, scenario, l) task and averages the metrics.
func runGridCell(sp Spec, gsc GridScenario, l int, alg string, targets []string, seed uint64, perturb func(*core.Config)) (CellResult, error) {
	cfg := sp.Cfg
	if l > 0 {
		cfg.PatternLength = l
	}
	cell := CellResult{
		Dataset:       sp.Dataset,
		Scenario:      gsc.Kind,
		PatternLength: cfg.PatternLength,
		Algorithm:     alg,
		Targets:       len(targets),
		BlockLen:      sp.BlockLen,
	}
	var rmses, smapes, maes []float64
	for _, target := range targets {
		sc, mask, err := newGridScenario(sp, gsc, target, seed)
		if err != nil {
			return cell, err
		}
		var imputed []float64
		switch alg {
		case AlgTKCM:
			tcfg := cfg
			if perturb != nil {
				perturb(&tcfg)
			}
			imputed, err = runEngineTKCM(sc, tcfg)
		case AlgSPIRIT:
			var rec *Recovery
			rec, err = RunSPIRIT(sc, spirit.DefaultConfig(), sp.Width)
			if rec != nil {
				imputed = rec.Imputed
			}
		case AlgMUSCLES:
			var rec *Recovery
			rec, err = RunMUSCLES(sc, muscles.DefaultConfig(), sp.Width)
			if rec != nil {
				imputed = rec.Imputed
			}
		case AlgCD:
			var rec *Recovery
			rec, err = RunCD(sc, cd.DefaultConfig(), sp.Width)
			if rec != nil {
				imputed = rec.Imputed
			}
		case AlgInterpolate:
			imputed = RunInterpolate(sc).Imputed
		case AlgKNNI:
			imputed = RunKNNI(sc, 5, sp.Width).Imputed
		default:
			return cell, fmt.Errorf("unknown algorithm %q", alg)
		}
		if err != nil {
			return cell, err
		}
		_ = mask
		rmses = append(rmses, stats.RMSE(sc.Block.Truth, imputed))
		smapes = append(smapes, stats.SMAPE(sc.Block.Truth, imputed))
		maes = append(maes, stats.MAE(sc.Block.Truth, imputed))
	}
	cell.RMSE = JSONFloat(MeanOf(rmses))
	cell.SMAPE = JSONFloat(MeanOf(smapes))
	cell.MAE = JSONFloat(MeanOf(maes))
	return cell, nil
}

// newGridScenario generates the spec's frame, applies the configured
// missingness scenario (seeded deterministically per dataset × kind ×
// target), and wraps it as a harness Scenario with the expert (frame-order)
// reference policy over the spec's width.
func newGridScenario(sp Spec, gsc GridScenario, target string, seed uint64) (*Scenario, *dataset.ScenarioMask, error) {
	frame := sp.Generate()
	// The references eligible for dropout/transforms are exactly the ones the
	// algorithms consult: the first Width−1 non-target series in frame order
	// (the expert policy of NewScenarioExpert).
	var refs []string
	for _, name := range frame.Names() {
		if name != target {
			refs = append(refs, name)
		}
	}
	used := refs
	if sp.Width > 1 && len(used) > sp.Width-1 {
		used = used[:sp.Width-1]
	}
	mask, err := dataset.ApplyScenario(frame, dataset.ScenarioConfig{
		Kind:        dataset.ScenarioKind(gsc.Kind),
		Target:      target,
		BlockStart:  sp.BlockStart,
		BlockLen:    sp.BlockLen,
		Refs:        used,
		RefRate:     gsc.RefRate,
		MeanRun:     gsc.MeanRun,
		Corr:        gsc.Corr,
		LevelShift:  gsc.LevelShift,
		ScaleShift:  gsc.ScaleShift,
		DriftPerDay: gsc.DriftPday,
		Seed:        seed ^ cellSeed(sp.Dataset+"|"+gsc.Kind+"|"+target),
	})
	if err != nil {
		return nil, nil, err
	}
	sc := &Scenario{Frame: frame, Target: target, Block: mask.Target, Refs: refs}
	return sc, mask, nil
}

// runEngineTKCM recovers the scenario's block through the production
// continuous-imputation engine: the target plus its references are fed row
// by row, every missing value (reference dropout included) is imputed at its
// arrival tick, and the completed target values over the block are returned.
// This is deliberately the serving hot path — the accuracy gate pins the
// engine users actually run, not the offline harness.
func runEngineTKCM(sc *Scenario, cfg core.Config) ([]float64, error) {
	width := len(sc.Refs) + 1
	names := make([]string, 0, width)
	names = append(names, sc.Target)
	names = append(names, sc.Refs...)
	// Explicit expert reference sets for every stream (frame order, skipping
	// self): the engine must never fall back to lazy correlation ranking,
	// whose map iteration order would break run-to-run determinism.
	refSets := make(map[string]core.ReferenceSet, width)
	for _, name := range names {
		rs := core.ReferenceSet{Stream: name}
		for _, other := range names {
			if other != name {
				rs.Candidates = append(rs.Candidates, other)
			}
		}
		refSets[name] = rs
	}
	cfg.Workers = 0 // serial imputation: deterministic cell results
	if cfg.WindowLength > sc.Frame.Len() {
		cfg.WindowLength = sc.Frame.Len()
	}
	eng, err := core.NewEngine(cfg, names, refSets)
	if err != nil {
		return nil, err
	}
	cols := make([][]float64, width)
	cols[0] = sc.Frame.ByName(sc.Target).Values
	for i, ref := range sc.Refs {
		cols[i+1] = sc.Frame.ByName(ref).Values
	}
	imputed := make([]float64, sc.Block.Len())
	row := make([]float64, width)
	n := sc.Frame.Len()
	for t := 0; t < n; t++ {
		for j, c := range cols {
			row[j] = c[t]
		}
		out, _, err := eng.Tick(row)
		if err != nil {
			return nil, fmt.Errorf("engine tick %d: %w", t, err)
		}
		if t >= sc.Block.Start && t < sc.Block.End() {
			imputed[t-sc.Block.Start] = out[0]
		}
	}
	return imputed, nil
}

// cellSeed hashes a cell identity (FNV-1a) into a seed perturbation, so each
// grid cell gets an independent deterministic scenario from one spec seed.
func cellSeed(id string) uint64 {
	const (
		offset64 = 14695981039346656037
		prime64  = 1099511628211
	)
	h := uint64(offset64)
	for i := 0; i < len(id); i++ {
		h ^= uint64(id[i])
		h *= prime64
	}
	return h
}

// JSONFloat is a float64 whose JSON form maps NaN to null (encoding/json
// rejects NaN); null unmarshals back to NaN. Grid metrics use it so cells
// with no comparable ticks stay representable in committed artifacts.
type JSONFloat float64

// MarshalJSON encodes NaN as null.
func (f JSONFloat) MarshalJSON() ([]byte, error) {
	v := float64(f)
	if math.IsNaN(v) || math.IsInf(v, 0) {
		return []byte("null"), nil
	}
	return json.Marshal(v)
}

// UnmarshalJSON decodes null as NaN.
func (f *JSONFloat) UnmarshalJSON(b []byte) error {
	if string(b) == "null" {
		*f = JSONFloat(math.NaN())
		return nil
	}
	var v float64
	if err := json.Unmarshal(b, &v); err != nil {
		return err
	}
	*f = JSONFloat(v)
	return nil
}
