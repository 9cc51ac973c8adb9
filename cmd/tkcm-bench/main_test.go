package main

import (
	"testing"

	"tkcm/internal/experiments"
)

func TestExperimentIDsUnique(t *testing.T) {
	seen := map[string]bool{}
	for _, e := range allExperiments() {
		if e.id == "" || e.about == "" || e.run == nil {
			t.Fatalf("incomplete experiment entry %+v", e)
		}
		if seen[e.id] {
			t.Fatalf("duplicate experiment id %q", e.id)
		}
		seen[e.id] = true
	}
	// Every paper artifact PAPER-MAP.md maps to tkcm-bench must be present.
	for _, want := range []string{"analysis", "fig10", "fig11", "fig12", "fig13", "fig14", "fig15", "fig16", "fig17", "perf", "ablation", "alignment"} {
		if !seen[want] {
			t.Fatalf("experiment %q missing from the table", want)
		}
	}
}

func TestRunAnalysis(t *testing.T) {
	// The analysis experiment is scale-independent and fast; it must not
	// error (output goes to stdout).
	if err := runAnalysis(experiments.SmallScale()); err != nil {
		t.Fatal(err)
	}
}
