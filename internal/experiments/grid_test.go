package experiments

import (
	"bytes"
	"encoding/json"
	"math"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"tkcm/internal/core"
)

// tinyGridSpec is a grid sized for unit tests: one dataset, a handful of
// scenarios, all algorithms.
func tinyGridSpec(scenarios ...string) *GridSpec {
	if len(scenarios) == 0 {
		scenarios = []string{"block", "bursty", "correlated", "regime-shift", "adversarial"}
	}
	spec := &GridSpec{
		Schema:     GridSchema,
		Name:       "tiny",
		Seed:       11,
		Datasets:   []string{DSSBR},
		Algorithms: []string{AlgTKCM, AlgSPIRIT, AlgMUSCLES, AlgCD, AlgInterpolate, AlgKNNI},
	}
	for _, sc := range scenarios {
		spec.Scenarios = append(spec.Scenarios, GridScenario{Kind: sc})
	}
	return spec
}

func TestGridSpecValidate(t *testing.T) {
	bad := []func(*GridSpec){
		func(s *GridSpec) { s.Name = "" },
		func(s *GridSpec) { s.Datasets = nil },
		func(s *GridSpec) { s.Datasets = []string{"Atlantis"} },
		func(s *GridSpec) { s.Algorithms = nil },
		func(s *GridSpec) { s.Algorithms = []string{"ORACLE"} },
		func(s *GridSpec) { s.Scenarios = nil },
		func(s *GridSpec) { s.Scenarios = []GridScenario{{Kind: "martian"}} },
		func(s *GridSpec) { s.Scenarios = append(s.Scenarios, s.Scenarios[0]) },
		func(s *GridSpec) { s.PatternLengths = []int{-3} },
		func(s *GridSpec) { s.Schema = "tkcm-grid-v999" },
		func(s *GridSpec) { s.Quick.Datasets = []string{"Atlantis"} },
		func(s *GridSpec) {
			s.SLO.Sweeps = []SLOSweep{{Name: "x", Shards: 1, Tenants: 1, Width: 1, Duration: "1s"}}
		},
	}
	for i, mutate := range bad {
		spec := tinyGridSpec()
		mutate(spec)
		if err := spec.Validate(); err == nil {
			t.Errorf("case %d: expected validation error", i)
		}
	}
	spec := tinyGridSpec()
	spec.Seed = 0
	if err := spec.Validate(); err != nil {
		t.Fatal(err)
	}
	if spec.Seed != 1 || spec.TargetsPerDataset != 1 {
		t.Fatalf("defaults not applied: %+v", spec)
	}
}

func TestParseGridSpecRejectsGarbage(t *testing.T) {
	if _, err := ParseGridSpec([]byte("{not json")); err == nil {
		t.Fatal("expected parse error")
	}
	if _, err := LoadGridSpec(filepath.Join(t.TempDir(), "missing.json")); err == nil {
		t.Fatal("expected load error")
	}
}

// TestGridDeterminism: two full runs of the same spec produce byte-identical
// summary.json and summary.md — the acceptance property behind the committed
// paper_runs/ artifacts.
func TestGridDeterminism(t *testing.T) {
	spec := tinyGridSpec("block", "bursty", "adversarial")
	scale := tinyScale()
	run := func() (*GridResult, []byte, []byte) {
		res, err := RunGrid(scale, spec, GridOptions{})
		if err != nil {
			t.Fatal(err)
		}
		js, err := RenderSummaryJSON(res)
		if err != nil {
			t.Fatal(err)
		}
		md, err := RenderSummaryMD(res)
		if err != nil {
			t.Fatal(err)
		}
		return res, js, md
	}
	res1, js1, md1 := run()
	_, js2, md2 := run()
	if !bytes.Equal(js1, js2) {
		t.Fatal("two identical grid runs rendered different summary.json")
	}
	if !bytes.Equal(md1, md2) {
		t.Fatal("two identical grid runs rendered different summary.md")
	}
	wantCells := 1 * 3 * 6 // datasets × scenarios × algorithms
	if len(res1.Cells) != wantCells {
		t.Fatalf("got %d cells, want %d", len(res1.Cells), wantCells)
	}
	// Cells must be finite for every non-adversarial scenario and carry a
	// plausible spread: TKCM should beat naive interpolation on the paper's
	// seasonal SBR block scenario.
	byKey := make(map[string]CellResult)
	for _, c := range res1.Cells {
		byKey[c.Key()] = c
		if c.Scenario != "adversarial" && math.IsNaN(float64(c.RMSE)) {
			t.Errorf("cell %s has NaN RMSE", c.Key())
		}
	}
	tkcm := byKey["SBR/block/l=24/TKCM"]
	interp := byKey["SBR/block/l=24/Interp"]
	if float64(tkcm.RMSE) >= float64(interp.RMSE) {
		t.Errorf("TKCM (%.4g) does not beat interpolation (%.4g) on SBR/block", tkcm.RMSE, interp.RMSE)
	}
}

// TestGridQuickView: quick mode restricts datasets and pattern lengths
// deterministically.
func TestGridQuickView(t *testing.T) {
	spec := tinyGridSpec("block")
	spec.Datasets = []string{DSSBR, DSSBR1d, DSChlorine}
	spec.PatternLengths = []int{24, 36}
	spec.TargetsPerDataset = 2
	if err := spec.Validate(); err != nil {
		t.Fatal(err)
	}
	q := spec.quickView()
	if len(q.Datasets) != 2 || q.Datasets[0] != DSSBR || q.Datasets[1] != DSSBR1d {
		t.Fatalf("quick datasets = %v", q.Datasets)
	}
	if len(q.PatternLengths) != 1 || q.PatternLengths[0] != 24 {
		t.Fatalf("quick pattern lengths = %v", q.PatternLengths)
	}
	if q.TargetsPerDataset != 1 {
		t.Fatalf("quick targets per dataset = %d", q.TargetsPerDataset)
	}
	spec.Quick.Datasets = []string{DSChlorine}
	spec.Quick.PatternLengths = []int{36}
	q = spec.quickView()
	if len(q.Datasets) != 1 || q.Datasets[0] != DSChlorine || q.PatternLengths[0] != 36 {
		t.Fatalf("declared quick view ignored: %v %v", q.Datasets, q.PatternLengths)
	}
}

// TestAccuracyGatePassesAndTrips is the synthetic-regression acceptance
// test: an unperturbed re-run passes the gate; a degraded engine (pattern
// length forced to 1, k to 1 — TKCM reduced to nearest-single-tick lookup)
// trips it.
func TestAccuracyGatePassesAndTrips(t *testing.T) {
	spec := tinyGridSpec("block", "bursty")
	scale := tinyScale()
	res, err := RunGrid(scale, spec, GridOptions{})
	if err != nil {
		t.Fatal(err)
	}
	baseline := NewBaseline(res)

	again, err := RunGrid(scale, spec, GridOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if failures := baseline.Gate(again, 0.05); len(failures) != 0 {
		t.Fatalf("clean re-run tripped the gate: %v", failures)
	}

	degraded, err := RunGrid(scale, spec, GridOptions{Perturb: func(cfg *core.Config) {
		cfg.PatternLength = 1
		cfg.K = 1
	}})
	if err != nil {
		t.Fatal(err)
	}
	failures := baseline.Gate(degraded, 0.05)
	if len(failures) == 0 {
		t.Fatal("degraded engine passed the accuracy gate")
	}
	for _, f := range failures {
		if !strings.Contains(f, "/TKCM") {
			t.Fatalf("gate failure names a non-TKCM cell: %s", f)
		}
	}
}

// TestAccuracyGateEdgeCases covers the gate's non-regression failure modes.
func TestAccuracyGateEdgeCases(t *testing.T) {
	mk := func(key string, rmse, smape float64) *GridResult {
		parts := strings.Split(key, "/")
		return &GridResult{Schema: GridSchema, Grid: "g", Cells: []CellResult{{
			Dataset: parts[0], Scenario: parts[1], PatternLength: 24, Algorithm: parts[3],
			RMSE: JSONFloat(rmse), SMAPE: JSONFloat(smape),
		}}}
	}
	base := NewBaseline(mk("SBR/block/l=24/TKCM", 1.0, 10))

	// A pinned TKCM cell missing from the run fails.
	if failures := base.Gate(&GridResult{}, 0.05); len(failures) != 1 {
		t.Fatalf("missing cell: %v", failures)
	}
	// NaN where the pin is finite fails.
	if failures := base.Gate(mk("SBR/block/l=24/TKCM", math.NaN(), 10), 0.05); len(failures) != 1 {
		t.Fatalf("NaN metric: %v", failures)
	}
	// A NaN pin gates nothing.
	nanBase := NewBaseline(mk("SBR/block/l=24/TKCM", math.NaN(), math.NaN()))
	if failures := nanBase.Gate(mk("SBR/block/l=24/TKCM", 99, 199), 0.05); len(failures) != 0 {
		t.Fatalf("NaN pin gated: %v", failures)
	}
	// SMAPE regressions gate independently of RMSE.
	if failures := base.Gate(mk("SBR/block/l=24/TKCM", 1.0, 10.6), 0.05); len(failures) != 1 {
		t.Fatalf("SMAPE regression: %v", failures)
	}
	// Within tolerance passes.
	if failures := base.Gate(mk("SBR/block/l=24/TKCM", 1.04, 10.4), 0.05); len(failures) != 0 {
		t.Fatalf("within-tolerance run failed: %v", failures)
	}
	// Non-TKCM baseline cells never gate.
	spiritBase := NewBaseline(mk("SBR/block/l=24/SPIRIT", 1.0, 10))
	if failures := spiritBase.Gate(&GridResult{}, 0.05); len(failures) != 0 {
		t.Fatalf("SPIRIT cell gated: %v", failures)
	}
}

// TestBaselineRoundTrip: Save/Load preserve cells, NaN included, and Load
// rejects foreign schemas.
func TestBaselineRoundTrip(t *testing.T) {
	res := &GridResult{Schema: GridSchema, Grid: "g", Seed: 3, Scale: "tiny", Cells: []CellResult{
		{Dataset: DSSBR, Scenario: "block", PatternLength: 24, Algorithm: AlgTKCM, RMSE: 0.5, SMAPE: 7},
		{Dataset: DSSBR, Scenario: "adversarial", PatternLength: 24, Algorithm: AlgTKCM,
			RMSE: JSONFloat(math.NaN()), SMAPE: JSONFloat(math.NaN())},
	}}
	path := filepath.Join(t.TempDir(), "ACCURACY.json")
	if err := NewBaseline(res).Save(path); err != nil {
		t.Fatal(err)
	}
	b, err := LoadBaseline(path)
	if err != nil {
		t.Fatal(err)
	}
	if len(b.Cells) != 2 || b.Grid != "g" || b.Seed != 3 {
		t.Fatalf("round trip lost data: %+v", b)
	}
	adv := b.Cells["SBR/adversarial/l=24/TKCM"]
	if !math.IsNaN(float64(adv.RMSE)) {
		t.Fatalf("NaN cell decoded as %v", adv.RMSE)
	}
	// Foreign schema rejected.
	if err := os.WriteFile(path, []byte(`{"schema":"bogus-v9","cells":{}}`), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := LoadBaseline(path); err == nil {
		t.Fatal("foreign schema accepted")
	}
}

// TestJSONFloat: NaN survives a marshal/unmarshal round trip as null.
func TestJSONFloat(t *testing.T) {
	in := []JSONFloat{1.5, JSONFloat(math.NaN()), JSONFloat(math.Inf(1))}
	raw, err := json.Marshal(in)
	if err != nil {
		t.Fatal(err)
	}
	if string(raw) != "[1.5,null,null]" {
		t.Fatalf("marshal = %s", raw)
	}
	var out []JSONFloat
	if err := json.Unmarshal(raw, &out); err != nil {
		t.Fatal(err)
	}
	if float64(out[0]) != 1.5 || !math.IsNaN(float64(out[1])) || !math.IsNaN(float64(out[2])) {
		t.Fatalf("unmarshal = %v", out)
	}
	if err := json.Unmarshal([]byte(`["nope"]`), &out); err == nil {
		t.Fatal("string accepted as JSONFloat")
	}
}

// TestGridGolden is the golden-file acceptance test: a tiny 2-cell grid must
// render byte-stable summary artifacts (summary.md compared modulo its
// stamped metadata block). Regenerate with TKCM_UPDATE_GOLDEN=1 after an
// intentional rendering or engine change.
func TestGridGolden(t *testing.T) {
	spec := tinyGridSpec("block")
	spec.Algorithms = []string{AlgTKCM, AlgInterpolate} // 2 cells
	res, err := RunGrid(tinyScale(), spec, GridOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Cells) != 2 {
		t.Fatalf("got %d cells, want 2", len(res.Cells))
	}
	js, err := RenderSummaryJSON(res)
	if err != nil {
		t.Fatal(err)
	}
	md, err := RenderSummaryMD(res)
	if err != nil {
		t.Fatal(err)
	}
	checkGolden(t, "summary.json.golden", js)
	checkGolden(t, "summary.md.golden", StripSummaryMeta(md))
}

func checkGolden(t *testing.T, name string, got []byte) {
	t.Helper()
	path := filepath.Join("testdata", name)
	if os.Getenv("TKCM_UPDATE_GOLDEN") == "1" {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, got, 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("missing golden file %s (regenerate with TKCM_UPDATE_GOLDEN=1): %v", path, err)
	}
	if !bytes.Equal(got, want) {
		t.Errorf("%s drifted from its golden file; if intentional, regenerate with TKCM_UPDATE_GOLDEN=1\ngot:\n%s", name, got)
	}
}
