package dataset

import (
	"bytes"
	"math"
	"reflect"
	"testing"
	"testing/quick"

	"tkcm/internal/stats"
	"tkcm/internal/timeseries"
)

func TestSBRShape(t *testing.T) {
	cfg := SBRConfig{Stations: 4, Ticks: 3 * 288, Seed: 1, NoiseSD: 0.25}
	f := SBR(cfg)
	if f.Width() != 4 || f.Len() != 3*288 {
		t.Fatalf("shape %dx%d", f.Width(), f.Len())
	}
	if f.ByName("s0") == nil || f.ByName("s3") == nil {
		t.Fatal("station names wrong")
	}
	if f.Sampling.TicksPerDay() != 288 {
		t.Fatalf("sampling = %v, want 5-minute", f.Sampling.Interval)
	}
	for _, s := range f.Series {
		if !s.Complete() {
			t.Fatalf("generator emitted missing values in %s", s.Name)
		}
	}
}

func TestSBRDeterministic(t *testing.T) {
	cfg := SBRConfig{Stations: 3, Ticks: 500, Seed: 7, NoiseSD: 0.1}
	a := SBR(cfg)
	b := SBR(cfg)
	for i, s := range a.Series {
		if !reflect.DeepEqual(s.Values, b.Series[i].Values) {
			t.Fatalf("series %s not deterministic", s.Name)
		}
	}
	c := SBR(SBRConfig{Stations: 3, Ticks: 500, Seed: 8, NoiseSD: 0.1})
	if reflect.DeepEqual(a.Series[0].Values, c.Series[0].Values) {
		t.Fatal("different seeds produced identical data")
	}
}

// TestSBRDailyCycle: the diurnal pattern must dominate — autocorrelation at
// one day high, at half a day low.
func TestSBRDailyCycle(t *testing.T) {
	f := SBR(SBRConfig{Stations: 2, Ticks: 10 * 288, Seed: 3, NoiseSD: 0.1})
	s := f.Series[0].Values
	day := stats.Autocorrelation(s, 288)
	half := stats.Autocorrelation(s, 144)
	if day < 0.6 {
		t.Fatalf("1-day autocorrelation = %v, want high", day)
	}
	if half >= day {
		t.Fatalf("half-day autocorrelation %v not below 1-day %v", half, day)
	}
}

// TestSBRStationsCorrelated: non-shifted stations must be strongly linearly
// correlated (the SBR regime of the paper).
func TestSBRStationsCorrelated(t *testing.T) {
	f := SBR(SBRConfig{Stations: 3, Ticks: 6 * 288, Seed: 1, NoiseSD: 0.25})
	rho := stats.Pearson(f.Series[0].Values, f.Series[1].Values)
	if rho < 0.9 {
		t.Fatalf("ρ(s0, s1) = %v, want ≥ 0.9 on non-shifted SBR", rho)
	}
}

// TestSBR1dShiftsAllStations: SBR-1d shifts every station by its own amount
// (Sec. 7.1), lowering the linear correlation between station pairs.
func TestSBR1dShiftsAllStations(t *testing.T) {
	cfg := SBRConfig{Stations: 4, Ticks: 6 * 288, Seed: 1, NoiseSD: 0.25}
	plain := SBR(cfg)
	shifted := SBR1d(cfg)
	moved := 0
	for i := 0; i < 4; i++ {
		if !reflect.DeepEqual(plain.Series[i].Values, shifted.Series[i].Values) {
			moved++
		}
	}
	if moved != 4 {
		t.Fatalf("SBR-1d shifted %d of 4 stations, want all", moved)
	}
	// The average pairwise correlation must drop relative to plain SBR.
	avg := func(f func(i, j int) float64) float64 {
		sum, n := 0.0, 0
		for i := 0; i < 4; i++ {
			for j := i + 1; j < 4; j++ {
				sum += f(i, j)
				n++
			}
		}
		return sum / float64(n)
	}
	rhoPlain := avg(func(i, j int) float64 {
		return stats.Pearson(plain.Series[i].Values, plain.Series[j].Values)
	})
	rhoShift := avg(func(i, j int) float64 {
		return stats.Pearson(shifted.Series[i].Values, shifted.Series[j].Values)
	})
	if rhoShift >= rhoPlain {
		t.Fatalf("shifting must lower mean pairwise correlation: %v → %v", rhoPlain, rhoShift)
	}
}

func TestFlightsShape(t *testing.T) {
	f := Flights(DefaultFlightsConfig())
	if f.Width() != 8 || f.Len() != 8801 {
		t.Fatalf("shape %dx%d, want 8x8801 (paper)", f.Width(), f.Len())
	}
	for _, s := range f.Series {
		lo, hi := stats.MinMax(s.Values)
		if lo < 0 {
			t.Fatalf("%s has negative flight count %v", s.Name, lo)
		}
		if hi < 10 || hi > 120 {
			t.Fatalf("%s peak %v outside the plausible 10–120 range", s.Name, hi)
		}
	}
}

// TestFlightsDailyDoublePeak: within one day there must be two distinct
// departure waves (a morning and an evening peak with a midday dip).
func TestFlightsDailyDoublePeak(t *testing.T) {
	f := Flights(FlightsConfig{Airports: 1, Ticks: 1440, Seed: 7})
	s := f.Series[0].Values
	hourMean := make([]float64, 24)
	for h := 0; h < 24; h++ {
		hourMean[h] = stats.Mean(s[h*60 : (h+1)*60])
	}
	morning := hourMean[8] + hourMean[9]
	midday := hourMean[12] + hourMean[13]
	evening := hourMean[17] + hourMean[18]
	night := hourMean[2] + hourMean[3]
	if !(morning > midday && evening > midday) {
		t.Fatalf("no double peak: morning=%v midday=%v evening=%v", morning, midday, evening)
	}
	if night > midday {
		t.Fatalf("night traffic %v above midday %v", night, midday)
	}
}

func TestChlorineShape(t *testing.T) {
	f := Chlorine(ChlorineConfig{Junctions: 12, Ticks: 600, Seed: 13, MaxDelayTicks: 288})
	if f.Width() != 12 || f.Len() != 600 {
		t.Fatalf("shape %dx%d", f.Width(), f.Len())
	}
	for _, s := range f.Series {
		lo, hi := stats.MinMax(s.Values)
		if lo < 0 || hi > 0.5 {
			t.Fatalf("%s range [%v, %v] outside [0, 0.5] mg/L", s.Name, lo, hi)
		}
	}
}

// TestChlorinePhaseShift: two junctions must see the dosing pattern at
// different delays — the cross-correlation of a pair must peak at a nonzero
// lag for at least one pair (the phase-shift property).
func TestChlorinePhaseShift(t *testing.T) {
	f := Chlorine(ChlorineConfig{Junctions: 6, Ticks: 5 * 288, Seed: 13, MaxDelayTicks: 288})
	foundShift := false
	a := f.Series[0].Values
	for j := 1; j < 6 && !foundShift; j++ {
		b := f.Series[j].Values
		zero := stats.Pearson(a, b)
		for lag := 12; lag <= 96; lag += 12 {
			if stats.Pearson(a[lag:], b[:len(b)-lag]) > zero+0.05 ||
				stats.Pearson(a[:len(a)-lag], b[lag:]) > zero+0.05 {
				foundShift = true
				break
			}
		}
	}
	if !foundShift {
		t.Fatal("no junction pair shows a lagged correlation peak — phase shifts missing")
	}
}

func TestInjectBlock(t *testing.T) {
	f := SBR(SBRConfig{Stations: 2, Ticks: 600, Seed: 1, NoiseSD: 0.1})
	orig := append([]float64(nil), f.ByName("s0").Values...)
	b, err := InjectBlock(f, "s0", 100, 50)
	if err != nil {
		t.Fatal(err)
	}
	if b.Len() != 50 || b.End() != 150 || b.Series != "s0" {
		t.Fatalf("block meta wrong: %+v", b)
	}
	if !reflect.DeepEqual(b.Truth, orig[100:150]) {
		t.Fatal("truth does not match erased values")
	}
	s := f.ByName("s0")
	for i := 100; i < 150; i++ {
		if !s.MissingAt(i) {
			t.Fatalf("tick %d not erased", i)
		}
	}
	if s.MissingAt(99) || s.MissingAt(150) {
		t.Fatal("erase leaked outside the block")
	}
	if _, err := InjectBlock(f, "nope", 0, 1); err == nil {
		t.Fatal("unknown series accepted")
	}
	if _, err := InjectBlock(f, "s0", 590, 20); err == nil {
		t.Fatal("out-of-range block accepted")
	}
}

func TestCSVRoundTrip(t *testing.T) {
	f := timeseries.NewFrame(
		timeseries.New("a", []float64{1.5, timeseries.Missing, -3}),
		timeseries.New("b", []float64{0, 2.25, timeseries.Missing}),
	)
	var buf bytes.Buffer
	if err := WriteCSV(&buf, f); err != nil {
		t.Fatal(err)
	}
	back, err := ReadCSV(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(back.Names(), f.Names()) {
		t.Fatalf("names = %v", back.Names())
	}
	for i, s := range f.Series {
		for j, want := range s.Values {
			got := back.Series[i].Values[j]
			if timeseries.IsMissing(want) != timeseries.IsMissing(got) {
				t.Fatalf("missing mismatch at (%d,%d)", i, j)
			}
			if !timeseries.IsMissing(want) && got != want {
				t.Fatalf("(%d,%d) = %v, want %v", i, j, got, want)
			}
		}
	}
}

// TestCSVRoundTripProperty round-trips random frames.
func TestCSVRoundTripProperty(t *testing.T) {
	f := func(vals []float64, missingMask uint16) bool {
		if len(vals) == 0 {
			return true
		}
		n := len(vals)
		if n > 16 {
			n = 16
			vals = vals[:16]
		}
		col := make([]float64, n)
		copy(col, vals)
		for i := range col {
			if math.IsNaN(col[i]) || math.IsInf(col[i], 0) {
				col[i] = 1
			}
			if missingMask&(1<<i) != 0 {
				col[i] = timeseries.Missing
			}
		}
		frame := timeseries.NewFrame(timeseries.New("x", col))
		var buf bytes.Buffer
		if err := WriteCSV(&buf, frame); err != nil {
			return false
		}
		back, err := ReadCSV(&buf)
		if err != nil {
			return false
		}
		got := back.Series[0].Values
		for i := range col {
			if timeseries.IsMissing(col[i]) != timeseries.IsMissing(got[i]) {
				return false
			}
			if !timeseries.IsMissing(col[i]) && got[i] != col[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

func TestReadCSVMissingTokens(t *testing.T) {
	in := "a,b\n1,NaN\nNULL,2\nnil,3\n"
	f, err := ReadCSV(bytes.NewBufferString(in))
	if err != nil {
		t.Fatal(err)
	}
	a, b := f.ByName("a"), f.ByName("b")
	if a.At(0) != 1 || !a.MissingAt(1) || !a.MissingAt(2) {
		t.Fatalf("a = %v", a.Values)
	}
	if !b.MissingAt(0) || b.At(1) != 2 || b.At(2) != 3 {
		t.Fatalf("b = %v", b.Values)
	}
}

func TestReadCSVErrors(t *testing.T) {
	if _, err := ReadCSV(bytes.NewBufferString("")); err == nil {
		t.Fatal("empty input accepted")
	}
	if _, err := ReadCSV(bytes.NewBufferString("a,b\n1\n")); err == nil {
		t.Fatal("short row accepted")
	}
	if _, err := ReadCSV(bytes.NewBufferString("a\nxyz\n")); err == nil {
		t.Fatal("non-numeric field accepted")
	}
}

func TestRNGDeterminism(t *testing.T) {
	a, b := newRNG(42), newRNG(42)
	for i := 0; i < 100; i++ {
		if a.next() != b.next() {
			t.Fatal("rng not deterministic")
		}
	}
	r := newRNG(1)
	for i := 0; i < 1000; i++ {
		v := r.float64()
		if v < 0 || v >= 1 {
			t.Fatalf("float64 out of range: %v", v)
		}
		u := r.uniform(-2, 3)
		if u < -2 || u >= 3 {
			t.Fatalf("uniform out of range: %v", u)
		}
		n := r.intn(7)
		if n < 0 || n >= 7 {
			t.Fatalf("intn out of range: %d", n)
		}
	}
	if newRNG(1).intn(0) != 0 {
		t.Fatal("intn(0) must be 0")
	}
}

func TestRNGNormalMoments(t *testing.T) {
	r := newRNG(123)
	const n = 20000
	sum, sumSq := 0.0, 0.0
	for i := 0; i < n; i++ {
		v := r.norm()
		sum += v
		sumSq += v * v
	}
	mean := sum / n
	variance := sumSq/n - mean*mean
	if math.Abs(mean) > 0.05 {
		t.Fatalf("normal mean = %v, want ≈ 0", mean)
	}
	if math.Abs(variance-1) > 0.1 {
		t.Fatalf("normal variance = %v, want ≈ 1", variance)
	}
}
