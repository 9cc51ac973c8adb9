package main

import (
	"encoding/json"
	"fmt"
	"os"
	"sort"
	"strings"
	"testing"
)

// TestBenchmarkJSONMatchesProgram keeps the contract file and the program in
// step: the same workloads and exactly the metric names each mode prints.
func TestBenchmarkJSONMatchesProgram(t *testing.T) {
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var b struct {
		Workloads []struct{ Name, Why string } `json:"workloads"`
		EndToEnd  []struct{ Name string }      `json:"end_to_end"`
		PerLayer  []struct{ Name string }      `json:"per_layer"`
	}
	if err := json.Unmarshal(raw, &b); err != nil {
		t.Fatal(err)
	}
	names := func(xs []struct{ Name string }) []string {
		var out []string
		for _, x := range xs {
			out = append(out, x.Name)
		}
		sort.Strings(out)
		return out
	}
	sorted := func(xs []string) []string {
		out := append([]string(nil), xs...)
		sort.Strings(out)
		return out
	}
	same := func(what string, got, want []string) {
		if len(got) != len(want) {
			t.Errorf("%s: BENCHMARK.json has %v, program has %v", what, got, want)
			return
		}
		for i := range got {
			if got[i] != want[i] {
				t.Errorf("%s: BENCHMARK.json has %v, program has %v", what, got, want)
				return
			}
		}
	}
	same("end_to_end", names(b.EndToEnd), sorted(gatedMetrics))
	same("per_layer", names(b.PerLayer), sorted(layerMetrics))
	for _, w := range b.Workloads {
		wl, err := lookupWorkload(w.Name)
		if err != nil {
			t.Errorf("workload %s: %v", w.Name, err)
			continue
		}
		// The fixed rate is pinned in the contract file's description.
		if rate := fmt.Sprintf("%g rows/s", wl.rate); !strings.Contains(w.Why, rate) {
			t.Errorf("workload %s: why %q does not state its fixed rate %s", w.Name, w.Why, rate)
		}
	}
}
