package dataset

import (
	"fmt"
	"math"
	"time"

	"tkcm/internal/timeseries"
)

// SBRConfig parameterizes the synthetic SBR weather-station dataset: 5-minute
// temperature measurements from a network of stations in the same valley
// (this comment is the substitution rationale; PAPER-MAP.md's Sec. 7.1
// datasets row lists every generator). Stations share a daily
// cycle, an annual cycle, and a smooth weather-front component; each station
// adds its own amplitude, offset, and small idiosyncratic noise, so stations
// are strongly linearly correlated — the paper's non-shifted regime.
type SBRConfig struct {
	// Stations is the number of weather stations (the paper's SBR network
	// has >130; experiments use a handful of series).
	Stations int
	// Ticks is the number of 5-minute measurements per station
	// (105120 = 1 year).
	Ticks int
	// Seed makes generation deterministic.
	Seed uint64
	// NoiseSD is the standard deviation of the per-measurement noise in °C.
	NoiseSD float64
	// MaxShiftTicks, when positive, circularly shifts every station by a
	// per-station deterministic amount up to this many ticks. SBR-1d uses
	// 288 (one day at 5-minute sampling), reproducing the paper's SBR-1d
	// construction: each series gets its own shift, so the shift of a
	// reference *relative to the target* follows a triangular distribution
	// peaked at zero and extending to ±one day.
	MaxShiftTicks int
}

// DefaultSBRConfig returns a 10-station, 1-year configuration.
func DefaultSBRConfig() SBRConfig {
	return SBRConfig{Stations: 10, Ticks: 105120, Seed: 1, NoiseSD: 0.25}
}

// ticksPerDay at 5-minute sampling.
const sbrTicksPerDay = 288

// SBR generates the synthetic SBR dataset. Station names are "s0", "s1", ...
// Temperatures span roughly −10…+30 °C over the year with a daily swing of
// several degrees, matching the paper's reported range in spirit.
func SBR(cfg SBRConfig) *timeseries.Frame {
	if cfg.Stations <= 0 || cfg.Ticks <= 0 {
		panic(fmt.Sprintf("dataset: invalid SBR config %+v", cfg))
	}
	r := newRNG(cfg.Seed)
	sampling := timeseries.Sampling{
		Start:    time.Date(2014, 1, 1, 0, 0, 0, 0, time.UTC),
		Interval: 5 * time.Minute,
	}

	// Shared components.
	ticksPerYear := 365 * sbrTicksPerDay
	// Weather front: a smooth mean-reverting random walk shared by all
	// stations, updated hourly and linearly interpolated between updates.
	// The front is what makes single-point matching ambiguous: an
	// instantaneous reading cannot tell a warm front at night from a cool
	// afternoon, while a 6-hour pattern (l = 72) can — the mechanism behind
	// the paper's Fig. 11/12.
	front := make([]float64, cfg.Ticks)
	{
		const stepEvery = 12 // hourly at 5-min ticks
		level := 0.0
		prev := 0.0
		for t := 0; t < cfg.Ticks; t += stepEvery {
			prev = level
			level += -0.01*level + r.normScaled(0.35)
			end := t + stepEvery
			if end > cfg.Ticks {
				end = cfg.Ticks
			}
			for i := t; i < end; i++ {
				frac := float64(i-t) / float64(stepEvery)
				front[i] = prev*(1-frac) + level*frac
			}
		}
	}
	// Fast weather: gusts and passing clouds shared by all stations, with a
	// ~1-hour correlation time. On SBR-1d this is what penalizes a linear
	// readout from a reference that is misaligned by even a fraction of an
	// hour, while pattern matching — which aligns situations on the
	// references' own clocks — is unaffected.
	fast := make([]float64, cfg.Ticks)
	{
		fr := newRNG(cfg.Seed ^ 0xfa57)
		level := 0.0
		for t := 0; t < cfg.Ticks; t++ {
			level += -level/12 + fr.normScaled(0.2)
			fast[t] = level
		}
	}

	frame := timeseries.NewFrame()
	frame.Sampling = sampling
	for st := 0; st < cfg.Stations; st++ {
		// Station-specific climate: altitude offset and amplitude scaling.
		offset := r.uniform(-2, 2)
		dailyAmp := r.uniform(3.5, 5.5)
		annualAmp := r.uniform(8, 11)
		frontGain := r.uniform(0.8, 1.2)
		// Saturation of the front response: valley stations cap cold
		// snaps, exposed ridges amplify them. The response is therefore a
		// station-specific *non-linear* function of the shared front —
		// pattern matching transfers it across stations (matching front
		// trajectories match responses), linear regression cannot.
		frontCap := r.uniform(1.5, 6)
		noise := newRNG(cfg.Seed ^ (uint64(st)+1)*0x9e37)
		values := make([]float64, cfg.Ticks)
		for t := 0; t < cfg.Ticks; t++ {
			day := 2 * math.Pi * float64(t%sbrTicksPerDay) / float64(sbrTicksPerDay)
			year := 2 * math.Pi * float64(t%ticksPerYear) / float64(ticksPerYear)
			v := 10 + offset
			// Annual cycle peaking mid-July.
			v += annualAmp * math.Sin(year-math.Pi/2)
			// Skewed diurnal cycle (fast morning warm-up, slow evening
			// cool-down): several harmonics, so a time shift of the curve is
			// NOT representable as a linear combination of a few shifted
			// copies — the property that separates TKCM from the linear
			// methods on SBR-1d (see Sec. 5.1 of the paper).
			phase := day - 2*math.Pi*14/24 + math.Pi/2
			v += dailyAmp * (math.Sin(phase) + 0.45*math.Sin(2*phase+0.8) + 0.25*math.Sin(3*phase+1.9))
			v += frontGain * frontCap * math.Tanh(front[t]/frontCap)
			v += fast[t]
			v += noise.normScaled(cfg.NoiseSD)
			values[t] = v
		}
		s := timeseries.New(fmt.Sprintf("s%d", st), values)
		s.Sampling = sampling
		if cfg.MaxShiftTicks > 0 {
			// Deterministic per-station shift, stratified over
			// [0, MaxShiftTicks) so every pair of stations ends up with a
			// distinct relative shift of at least ~MaxShiftTicks/Stations.
			// A plain uniform draw occasionally puts two stations within
			// minutes of each other, which silently restores the linear
			// correlation the SBR-1d construction is meant to destroy (see
			// SBR1d).
			shiftRNG := newRNG(cfg.Seed ^ 0xdead ^ (uint64(st)+1)*0x51ab)
			stride := cfg.MaxShiftTicks / cfg.Stations
			if stride < 1 {
				stride = 1
			}
			delta := st*stride + shiftRNG.intn(stride/3+1)
			s = s.Shift(delta % cfg.MaxShiftTicks)
		}
		frame.Add(s)
	}
	return frame
}

// SBR1d generates the paper's SBR-1d dataset: the SBR generator with every
// station circularly shifted by its own deterministic random amount of up to
// one day (288 ticks at 5-minute sampling), exactly as in Sec. 7.1. Relative
// shifts between a series and its references are therefore mostly a few
// hours (triangular distribution), which lowers the linear correlation
// without severing the shared weather information.
func SBR1d(cfg SBRConfig) *timeseries.Frame {
	cfg.MaxShiftTicks = sbrTicksPerDay
	return SBR(cfg)
}
