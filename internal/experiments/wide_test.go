package experiments

import "testing"

// TestWideEngineThroughputSmoke runs one small wide-engine measurement and
// sanity-checks the reported row: the dimensions must round-trip, every tick
// must impute the missing 5%, and the engine's Result pool must keep the
// steady state below one allocation per imputation.
func TestWideEngineThroughputSmoke(t *testing.T) {
	const (
		width  = 48
		winLen = 512 // smallest round size hosting k=5 patterns of l=72
		ticks  = 40
	)
	row, err := WideEngineThroughput(width, winLen, ticks, 0.05)
	if err != nil {
		t.Fatal(err)
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
	if perTick := float64(row.Imputations) / float64(ticks); row.AllocsPerTick >= perTick {
		t.Fatalf("%.1f allocations per tick, want fewer than the %.1f imputations per tick", row.AllocsPerTick, perTick)
	}
	if _, err := WideEngineThroughput(wideRefPool, winLen, ticks, 0.05); err == nil {
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
