package dataset

import (
	"fmt"
	"math"
	"time"

	"tkcm/internal/timeseries"
)

// ChlorineConfig parameterizes the synthetic Chlorine dataset. The paper's
// dataset (from the SPIRIT project) is an EPANET simulation of chlorine
// concentration at 166 junctions of a drinking-water network over 4310
// five-minute ticks (15 days); the propagation of chlorinated water through
// the pipes causes each junction to see the source's daily dosing pattern
// *delayed* and *attenuated* — the phase-shift property both papers
// highlight. The generator reproduces exactly that mechanism: a daily
// dosing waveform at the source is propagated to each junction with a
// junction-specific transport delay, attenuation, dispersive smoothing, and
// small sensor noise.
type ChlorineConfig struct {
	// Junctions is the number of series (paper: 166).
	Junctions int
	// Ticks is the series length at 5-minute sampling (paper: 4310).
	Ticks int
	// Seed makes generation deterministic.
	Seed uint64
	// MaxDelayTicks caps the transport delay of the farthest junction
	// (default: one day, 288 ticks).
	MaxDelayTicks int
}

// DefaultChlorineConfig matches the paper's dataset shape.
func DefaultChlorineConfig() ChlorineConfig {
	return ChlorineConfig{Junctions: 166, Ticks: 4310, Seed: 13, MaxDelayTicks: 288}
}

const chlorineTicksPerDay = 288 // 5-minute sampling

// Chlorine generates the synthetic Chlorine dataset. Series names are
// "j0", "j1", ... Values lie in roughly [0, 0.25] mg/L, matching Fig. 9d.
func Chlorine(cfg ChlorineConfig) *timeseries.Frame {
	if cfg.Junctions <= 0 || cfg.Ticks <= 0 {
		panic(fmt.Sprintf("dataset: invalid Chlorine config %+v", cfg))
	}
	if cfg.MaxDelayTicks <= 0 {
		cfg.MaxDelayTicks = chlorineTicksPerDay
	}
	r := newRNG(cfg.Seed)
	sampling := timeseries.Sampling{
		Start:    time.Date(2015, 3, 1, 0, 0, 0, 0, time.UTC),
		Interval: 5 * time.Minute,
	}

	// Source dosing pattern: a daily waveform with two injection plateaus
	// (demand-driven dosing), generated long enough to cover the maximum
	// delay, plus slow day-to-day drift.
	srcLen := cfg.Ticks + cfg.MaxDelayTicks
	source := make([]float64, srcLen)
	// Day-to-day dosing level: the utility adjusts the injected chlorine to
	// the forecast demand, so the plateau heights vary across days. Like the
	// SBR weather front, this makes instantaneous readings ambiguous (same
	// residual = strong dose late in decay, or weak dose at the plateau)
	// while a multi-hour pattern is not.
	days := srcLen/chlorineTicksPerDay + 2
	doseLevel := make([]float64, days)
	doseRNG := newRNG(cfg.Seed ^ 0xc1)
	for d := range doseLevel {
		doseLevel[d] = 1 + doseRNG.uniform(-0.3, 0.3)
	}
	for t := 0; t < srcLen; t++ {
		day := t / chlorineTicksPerDay
		frac := float64(t%chlorineTicksPerDay) / float64(chlorineTicksPerDay)
		level := doseLevel[day]*(1-frac) + doseLevel[day+1]*frac
		hour := frac * 24
		v := 0.05
		v += level * 0.12 * plateau(hour, 6, 10)  // morning demand dosing
		v += level * 0.09 * plateau(hour, 17, 21) // evening demand dosing
		source[t] = v
	}

	frame := timeseries.NewFrame()
	frame.Sampling = sampling
	for j := 0; j < cfg.Junctions; j++ {
		// Network distance is spread over the junctions by a golden-ratio
		// sequence (not sorted by index, not uniform-random): nearby
		// junction indices end up at materially different delays, so no
		// reference is a near-instantaneous copy of its target — the
		// phase-shift property of the real EPANET data. A uniform draw
		// occasionally places two junctions within minutes of each other,
		// which would silently restore the linear correlation (see
		// ChlorineConfig).
		dist := 0.05 + 0.95*math.Mod(float64(j)*0.6180339887498949+r.float64()*0.01, 1)
		delay := int(dist * float64(cfg.MaxDelayTicks))
		atten := 1 - 0.5*dist // farther junctions see weaker residual
		// Junction-specific demand mixing: the morning and evening dosing
		// waves attenuate differently along different paths, so junctions
		// are not plain scaled copies of one another.
		mixM := r.uniform(0.7, 1.3)
		mixE := r.uniform(0.7, 1.3)
		smooth := 1 + int(4*dist)
		noise := newRNG(cfg.Seed ^ (uint64(j)+1)*0x2b)
		// Junction-local demand: a slow, independent mean-reverting walk
		// (±~10%) modelling local consumption. It keeps any junction from
		// being an exact delayed-linear function of the others, so lagged
		// regression accumulates error over long gaps while pattern
		// matching only pays the walk's spread.
		local := make([]float64, cfg.Ticks)
		{
			lw := newRNG(cfg.Seed ^ (uint64(j)+7)*0x91)
			level := 0.0
			for t := 0; t < cfg.Ticks; t++ {
				if t%12 == 0 { // hourly steps
					level += -0.05*level + lw.normScaled(0.012)
					if level > 0.15 {
						level = 0.15
					}
					if level < -0.15 {
						level = -0.15
					}
				}
				local[t] = level
			}
		}
		values := make([]float64, cfg.Ticks)
		for t := 0; t < cfg.Ticks; t++ {
			// Dispersive smoothing: moving average over the delayed source.
			sum := 0.0
			for w := 0; w < smooth; w++ {
				idx := t + cfg.MaxDelayTicks - delay - w
				if idx < 0 {
					idx = 0
				}
				sum += source[idx]
			}
			v := atten * sum / float64(smooth)
			// Re-shape by the junction's demand mix: emphasize or damp the
			// morning vs evening wave at the *local* (delayed) clock.
			localHour := math.Mod((float64(t-delay)/float64(chlorineTicksPerDay)*24)+48, 24)
			v *= 1 + 0.25*(mixM-1)*plateau(localHour, 6, 10) + 0.25*(mixE-1)*plateau(localHour, 17, 21)
			v *= 1 + local[t]
			v += noise.normScaled(0.0025)
			if v < 0 {
				v = 0
			}
			values[t] = v
		}
		s := timeseries.New(fmt.Sprintf("j%d", j), values)
		s.Sampling = sampling
		frame.Add(s)
	}
	return frame
}

// plateau is a smooth bump that is ≈1 between rise and fall (hours) and ≈0
// elsewhere, with soft half-hour shoulders; it wraps around midnight.
func plateau(hour, rise, fall float64) float64 {
	const sharp = 4.0
	up := sigmoid(sharp * hourDiff(hour, rise))
	down := sigmoid(sharp * hourDiff(fall, hour))
	return up * down
}

// hourDiff returns the signed circular distance a−b in hours, in [−12, 12).
func hourDiff(a, b float64) float64 {
	d := math.Mod(a-b+36, 24) - 12
	return d
}

func sigmoid(x float64) float64 { return 1 / (1 + math.Exp(-x)) }
