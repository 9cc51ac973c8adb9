package experiments

import (
	"fmt"
	"math"
	"runtime"
	"time"

	"tkcm/internal/core"
)

// WideRow reports one wide-engine throughput measurement: the streaming
// engine driven over a very wide stream set with sparse missingness — the
// production-scale workload the demand-driven profiler state targets.
// NsPerTick and AllocsPerTick are the steady-state per-tick cost over the
// measured ticks (warm-up excluded).
type WideRow struct {
	Width          int     `json:"width"`
	WindowLength   int     `json:"window_length"`
	MissingPerTick int     `json:"missing_per_tick"`
	Ticks          int     `json:"ticks"`
	Imputations    int     `json:"imputations"`
	TicksPerSec    float64 `json:"ticks_per_sec"`
	NsPerTick      float64 `json:"ns_per_tick"`
	AllocsPerTick  float64 `json:"allocs_per_tick"`
}

// wideRefPool is the number of always-present reference streams the targets
// draw from. Keeping it small and shared makes one tick assemble several
// profiles from the same caught-up reference aggregates, the way real
// deployments do (many co-located sensors share the same few high-quality
// references).
const wideRefPool = 12

// WideScenario deterministically generates the wide workload: width streams
// whose first width−wideRefPool entries are targets referencing overlapping
// triples from the always-present trailing pool, a rotating subset of the
// targets missing per steady-state tick. It is shared by the tkcm-bench
// "wide" experiment and the repo-root BenchmarkEngineWide so the two always
// measure the same scenario.
type WideScenario struct {
	Width          int
	Targets        int
	MissingPerTick int
	noise          uint64
}

// NewWideScenario validates the dimensions and derives the target and
// missing-per-tick counts from the missing fraction (clamped to [1,
// Targets]).
func NewWideScenario(width int, missingFrac float64) (*WideScenario, error) {
	if width <= wideRefPool {
		return nil, fmt.Errorf("experiments: wide width %d must exceed the reference pool %d", width, wideRefPool)
	}
	targets := width - wideRefPool
	nMiss := int(missingFrac * float64(width))
	if nMiss < 1 {
		nMiss = 1
	}
	if nMiss > targets {
		nMiss = targets
	}
	return &WideScenario{Width: width, Targets: targets, MissingPerTick: nMiss, noise: 0x9E3779B97F4A7C15}, nil
}

// Names returns the stream names, targets first, reference pool last.
func (s *WideScenario) Names() []string {
	names := make([]string, s.Width)
	for i := range names {
		names[i] = fmt.Sprintf("s%d", i)
	}
	return names
}

// Refs returns the target reference sets: overlapping triples drawn from
// the always-present pool, so missing targets share reference streams (and
// often whole reference sets) within a tick.
func (s *WideScenario) Refs() map[string]core.ReferenceSet {
	names := s.Names()
	refs := make(map[string]core.ReferenceSet, s.Targets)
	for i := 0; i < s.Targets; i++ {
		refs[names[i]] = core.ReferenceSet{Stream: names[i], Candidates: []string{
			names[s.Targets+i%wideRefPool],
			names[s.Targets+(i+4)%wideRefPool],
			names[s.Targets+(i+8)%wideRefPool],
		}}
	}
	return refs
}

// FillRow writes tick t's measurements into row: phase-shifted daily
// sinusoids plus cheap xorshift noise, generated on the fly (materializing
// width × winLen values up front would dwarf the engine's own footprint).
func (s *WideScenario) FillRow(t int, row []float64) {
	ph := 2 * math.Pi * float64(t) / 288
	for j := range row {
		s.noise ^= s.noise << 13
		s.noise ^= s.noise >> 7
		s.noise ^= s.noise << 17
		row[j] = math.Sin(ph+0.61*float64(j)) + float64(s.noise%1000)/4000
	}
}

// MarkMissing drops the steady-state tick t's rotating subset of target
// streams from row (t counted from the start of the measured phase): a
// contiguous block of MissingPerTick targets whose start moves every tick,
// so the indices are always distinct and every target cycles through being
// missing. A block still spans every reference triple of the pool (the
// triples repeat with period wideRefPool), so reference sharing is
// exercised the same way a scattered subset would.
func (s *WideScenario) MarkMissing(t int, row []float64) {
	base := (t * 131) % s.Targets
	for x := 0; x < s.MissingPerTick; x++ {
		row[(base+x)%s.Targets] = math.NaN()
	}
}

// WideEngineThroughput streams the WideScenario workload through the
// continuous engine: the window is warmed completely, then measureTicks
// steady-state ticks run with missingFrac of the streams missing per tick.
// It reports wall-clock and allocator cost per tick.
func WideEngineThroughput(width, winLen, measureTicks int, missingFrac float64) (WideRow, error) {
	s, err := NewWideScenario(width, missingFrac)
	if err != nil {
		return WideRow{}, err
	}
	cfg := core.Config{
		K:             5,
		PatternLength: 72,
		D:             3,
		WindowLength:  winLen,
		Norm:          core.L2,
		Selection:     core.SelectDP,
		Profiler:      core.ProfilerIncremental,
	}
	eng, err := core.NewEngine(cfg, s.Names(), s.Refs())
	if err != nil {
		return WideRow{}, err
	}
	defer eng.Close()
	row := make([]float64, width)
	for t := 0; t < winLen; t++ {
		s.FillRow(t, row)
		if _, _, err := eng.Tick(row); err != nil {
			return WideRow{}, err
		}
	}
	impBefore := eng.Stats.Imputations
	var ms0, ms1 runtime.MemStats
	runtime.ReadMemStats(&ms0)
	start := time.Now()
	for t := 0; t < measureTicks; t++ {
		s.FillRow(winLen+t, row)
		s.MarkMissing(t, row)
		if _, _, err := eng.Tick(row); err != nil {
			return WideRow{}, err
		}
	}
	elapsed := time.Since(start)
	runtime.ReadMemStats(&ms1)
	return WideRow{
		Width:          width,
		WindowLength:   winLen,
		MissingPerTick: s.MissingPerTick,
		Ticks:          measureTicks,
		Imputations:    eng.Stats.Imputations - impBefore,
		TicksPerSec:    float64(measureTicks) / elapsed.Seconds(),
		NsPerTick:      float64(elapsed.Nanoseconds()) / float64(measureTicks),
		AllocsPerTick:  float64(ms1.Mallocs-ms0.Mallocs) / float64(measureTicks),
	}, nil
}
