package experiments

import "testing"

// TestWideEngineThroughputSmoke runs one small wide-engine measurement per
// mode and sanity-checks the reported rows: the configuration must round-
// trip, every tick must impute the missing 5%, and the lean mode must not
// report more allocations than the diagnostic mode.
func TestWideEngineThroughputSmoke(t *testing.T) {
	const (
		width  = 48
		winLen = 512 // smallest round size hosting k=5 patterns of l=72
		ticks  = 40
	)
	var lean, lazy WideRow
	for _, wc := range WideCases() {
		row, err := WideEngineThroughput(width, winLen, ticks, 0.05, wc)
		if err != nil {
			t.Fatalf("%s: %v", wc.Mode, err)
		}
		if row.Mode != wc.Mode || row.SkipDiagnostics != wc.SkipDiagnostics {
			t.Fatalf("row misreports configuration: %+v", row)
		}
		if row.Width != width || row.Ticks != ticks {
			t.Fatalf("row misreports dimensions: %+v", row)
		}
		wantMiss := width * 5 / 100
		if row.MissingPerTick != wantMiss {
			t.Fatalf("missing per tick = %d, want %d", row.MissingPerTick, wantMiss)
		}
		if row.Imputations != wantMiss*ticks {
			t.Fatalf("imputations = %d, want %d (every missing value imputed)", row.Imputations, wantMiss*ticks)
		}
		if row.TicksPerSec <= 0 || row.NsPerTick <= 0 {
			t.Fatalf("non-positive rates: %+v", row)
		}
		switch wc.Mode {
		case "lazy":
			lazy = row
		case "lazy+lean":
			lean = row
		}
	}
	if lean.AllocsPerTick > lazy.AllocsPerTick {
		t.Fatalf("lean mode allocates more than the diagnostic mode: %v > %v",
			lean.AllocsPerTick, lazy.AllocsPerTick)
	}
	if err := func() error {
		_, err := WideEngineThroughput(wideRefPool, winLen, ticks, 0.05, WideCases()[0])
		return err
	}(); err == nil {
		t.Fatal("width ≤ reference pool accepted")
	}
}

// TestWideScenarioMissingDistinct pins MarkMissing to NaN exactly
// MissingPerTick distinct streams per tick, including at high missing
// fractions where a strided rotation would collide with itself.
func TestWideScenarioMissingDistinct(t *testing.T) {
	for _, frac := range []float64{0.05, 0.5, 1.0} {
		s, err := NewWideScenario(40, frac) // Targets = 28, divisible by 7
		if err != nil {
			t.Fatal(err)
		}
		row := make([]float64, s.Width)
		for tick := 0; tick < 3*s.Targets; tick++ {
			s.FillRow(tick, row)
			s.MarkMissing(tick, row)
			n := 0
			for _, v := range row {
				if v != v { // NaN
					n++
				}
			}
			if n != s.MissingPerTick {
				t.Fatalf("frac %v tick %d: %d streams missing, want %d", frac, tick, n, s.MissingPerTick)
			}
		}
	}
}
