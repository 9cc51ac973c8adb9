package experiments

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math"
	"sort"
	"strings"
)

// SummaryMetaMarker brackets the stamped metadata block at the top of
// summary.md. Everything between the markers is run identity (spec name,
// seed, scale); the golden test strips it before comparing, and everything
// below it is a pure function of the grid result.
const (
	SummaryMetaBegin = "<!-- tkcm-grid meta:begin -->"
	SummaryMetaEnd   = "<!-- tkcm-grid meta:end -->"
)

// RenderSummaryJSON renders the machine-readable paper_runs/summary.json:
// the grid identity plus every cell in deterministic key order. Two runs of
// the same grid produce byte-identical output (no timestamps, no
// durations).
func RenderSummaryJSON(res *GridResult) ([]byte, error) {
	if len(res.Cells) == 0 {
		return nil, fmt.Errorf("experiments: refusing to render a summary with zero cells")
	}
	sorted := *res
	sorted.Cells = append([]CellResult(nil), res.Cells...)
	sort.Slice(sorted.Cells, func(i, j int) bool { return sorted.Cells[i].Key() < sorted.Cells[j].Key() })
	raw, err := json.MarshalIndent(&sorted, "", "  ")
	if err != nil {
		return nil, err
	}
	return append(raw, '\n'), nil
}

// RenderSummaryMD renders the human-readable paper_runs/summary.md: one
// markdown table per dataset × pattern-length with algorithms as columns and
// scenarios as rows, RMSE (SMAPE%) per cell. The algorithm set must be
// uniform across the grid — a partial grid is a bug upstream, not something
// to render around.
func RenderSummaryMD(res *GridResult) ([]byte, error) {
	if len(res.Cells) == 0 {
		return nil, fmt.Errorf("experiments: refusing to render a summary with zero cells")
	}
	type group struct {
		dataset string
		l       int
	}
	cells := make(map[group]map[string]map[string]CellResult) // group → scenario → alg → cell
	algSets := make(map[group][]string)
	var groups []group
	for _, c := range res.Cells {
		g := group{c.Dataset, c.PatternLength}
		if cells[g] == nil {
			cells[g] = make(map[string]map[string]CellResult)
			groups = append(groups, g)
		}
		if cells[g][c.Scenario] == nil {
			cells[g][c.Scenario] = make(map[string]CellResult)
		}
		if _, dup := cells[g][c.Scenario][c.Algorithm]; dup {
			return nil, fmt.Errorf("experiments: duplicate cell %s", c.Key())
		}
		cells[g][c.Scenario][c.Algorithm] = c
	}
	sort.Slice(groups, func(i, j int) bool {
		if groups[i].dataset != groups[j].dataset {
			return groups[i].dataset < groups[j].dataset
		}
		return groups[i].l < groups[j].l
	})
	// The algorithm set must match across scenarios and groups.
	for g, scs := range cells {
		var ref []string
		for _, sc := range sortedKeys(scs) {
			algs := sortedKeys(scs[sc])
			if ref == nil {
				ref = algs
			} else if strings.Join(ref, ",") != strings.Join(algs, ",") {
				return nil, fmt.Errorf("experiments: mismatched algorithm sets in %s/l=%d: %v vs %v",
					g.dataset, g.l, ref, algs)
			}
		}
		algSets[g] = ref
	}

	var buf bytes.Buffer
	buf.WriteString(SummaryMetaBegin + "\n")
	fmt.Fprintf(&buf, "grid: %s · seed %d · scale %s", res.Grid, res.Seed, res.Scale)
	if res.Quick {
		buf.WriteString(" · quick")
	}
	buf.WriteString("\n" + SummaryMetaEnd + "\n\n")
	buf.WriteString("# TKCM paper grid — accuracy summary\n\n")
	buf.WriteString("Each cell is RMSE with SMAPE% in parentheses, averaged over the\n")
	buf.WriteString("cell's target series; lower is better. `—` marks a cell with no\n")
	buf.WriteString("comparable ticks.\n")

	for _, g := range groups {
		algs := orderAlgs(algSets[g])
		fmt.Fprintf(&buf, "\n## %s (l = %d)\n\n", g.dataset, g.l)
		buf.WriteString("| scenario |")
		for _, a := range algs {
			fmt.Fprintf(&buf, " %s |", a)
		}
		buf.WriteString("\n|---|")
		for range algs {
			buf.WriteString("---|")
		}
		buf.WriteString("\n")
		for _, sc := range orderScenarios(sortedKeys(cells[g])) {
			fmt.Fprintf(&buf, "| %s |", sc)
			for _, a := range algs {
				c := cells[g][sc][a]
				buf.WriteString(" " + formatCell(c) + " |")
			}
			buf.WriteString("\n")
		}
	}
	return buf.Bytes(), nil
}

// formatCell renders one cell's metrics: "rmse (smape%)" or "—".
func formatCell(c CellResult) string {
	r, s := float64(c.RMSE), float64(c.SMAPE)
	if math.IsNaN(r) && math.IsNaN(s) {
		return "—"
	}
	rs, ss := "—", "—"
	if !math.IsNaN(r) {
		rs = fmt.Sprintf("%.4g", r)
	}
	if !math.IsNaN(s) {
		ss = fmt.Sprintf("%.3g%%", s)
	}
	return fmt.Sprintf("%s (%s)", rs, ss)
}

// orderAlgs orders algorithm columns: TKCM first, then the canonical
// comparison order, then anything else alphabetically.
func orderAlgs(algs []string) []string {
	rank := map[string]int{
		AlgTKCM: 0, AlgSPIRIT: 1, AlgMUSCLES: 2, AlgCD: 3, AlgInterpolate: 4, AlgKNNI: 5,
	}
	out := append([]string(nil), algs...)
	sort.SliceStable(out, func(i, j int) bool {
		ri, iok := rank[out[i]]
		rj, jok := rank[out[j]]
		if iok && jok {
			return ri < rj
		}
		if iok != jok {
			return iok
		}
		return out[i] < out[j]
	})
	return out
}

// orderScenarios orders scenario rows in the dataset package's presentation
// order, unknown kinds last alphabetically.
func orderScenarios(scs []string) []string {
	rank := map[string]int{
		"block": 0, "uniform": 1, "bursty": 2, "correlated": 3,
		"regime-shift": 4, "seasonal-drift": 5, "adversarial": 6,
	}
	out := append([]string(nil), scs...)
	sort.SliceStable(out, func(i, j int) bool {
		ri, iok := rank[out[i]]
		rj, jok := rank[out[j]]
		if iok && jok {
			return ri < rj
		}
		if iok != jok {
			return iok
		}
		return out[i] < out[j]
	})
	return out
}

// sortedKeys returns the map's keys sorted ascending.
func sortedKeys[V any](m map[string]V) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}

// StripSummaryMeta removes the stamped metadata block from a rendered
// summary.md, leaving only the deterministic body (used by the golden test).
func StripSummaryMeta(md []byte) []byte {
	s := string(md)
	begin := strings.Index(s, SummaryMetaBegin)
	end := strings.Index(s, SummaryMetaEnd)
	if begin < 0 || end < 0 || end < begin {
		return md
	}
	return []byte(s[:begin] + s[end+len(SummaryMetaEnd):])
}
