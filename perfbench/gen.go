package main

import (
	"fmt"
	"math"
)

// gen produces a workload's rows as a pure function of (workload, seed,
// tenant, seq): no generator state advances between calls, so the served
// run, the reference engines and the traced layer replays all see
// bit-identical inputs without the benchmark storing a single row. The
// workload fixes the feed's shape (each stream's level, amplitudes and
// phases, the same in every tenant); the seed draws its realization (noise,
// which cells go missing, the burst schedule), so runs with different seeds
// do the same kind and amount of work whichever tenants the bursts favour.
type gen struct {
	seed     uint64
	streams  int
	warm     uint64  // seqs 1..warm are complete (the set-up warm-up)
	missRate float64 // long-run share of dropped cells after warm-up
	missRun  int     // mean length of a missing run
	block    uint64  // missing runs are placed within aligned blocks of this many rows
	params   [][]streamParam
}

// streamParam shapes one phase-shifted seasonal stream: a daily and a weekly
// component (5-minute ticks) plus Gaussian noise, quantized to 0.01 like a
// sensor feed.
type streamParam struct {
	level, daily, dailyPhase, weekly, weeklyPhase, noise float64
}

const (
	dailyPeriod  = 288  // ticks per day at 5-minute sampling
	weeklyPeriod = 2016 // ticks per week
)

func newGen(shape, seed uint64, tenants, streams int, warm int, missRate float64, missRun int) *gen {
	g := &gen{
		seed:     seed,
		streams:  streams,
		warm:     uint64(warm),
		missRate: missRate,
		missRun:  missRun,
		block:    uint64(8 * missRun),
		params:   make([][]streamParam, tenants),
	}
	for t := range g.params {
		g.params[t] = make([]streamParam, streams)
		for j := range g.params[t] {
			u := func(k uint64) float64 { return unit(mix(shape, 1, 0, uint64(j), k)) }
			g.params[t][j] = streamParam{
				level:       10 + 20*u(0),
				daily:       4 + 4*u(1),
				dailyPhase:  dailyPeriod * u(2),
				weekly:      1 + 2*u(3),
				weeklyPhase: weeklyPeriod * u(4),
				noise:       0.2,
			}
		}
	}
	return g
}

// truth is stream j's true value of tenant t at seq (the value the
// generator drops when the cell is missing).
func (g *gen) truth(t, j int, seq uint64) float64 {
	p := &g.params[t][j]
	n := float64(seq)
	v := p.level +
		p.daily*math.Sin(2*math.Pi*(n+p.dailyPhase)/dailyPeriod) +
		p.weekly*math.Sin(2*math.Pi*(n+p.weeklyPhase)/weeklyPeriod) +
		p.noise*normal(mix(g.seed, 2, uint64(t), uint64(j), seq))
	return math.Round(100*v) / 100
}

// missing reports whether cell (t, j, seq) is dropped. Each aligned block of
// g.block rows holds at most one run per stream, starting with probability
// missRate·block/missRun and lasting 1..2·missRun−1 rows (mean missRun), so
// runs are bursty yet the long-run missing share is missRate.
func (g *gen) missing(t, j int, seq uint64) bool {
	if seq <= g.warm || g.missRate <= 0 {
		return false
	}
	b := seq / g.block
	h := mix(g.seed, 3, uint64(t), uint64(j), b)
	if unit(h) >= g.missRate*float64(g.block)/float64(g.missRun) {
		return false
	}
	h2 := mix(h, 4, 0, 0, 0)
	runLen := uint64(1) + h2%uint64(2*g.missRun-1)
	start := (h2 >> 20) % (g.block - runLen + 1)
	off := seq % g.block
	return off >= start && off < start+runLen
}

// row fills dst with tenant t's row at seq (NaN marks a dropped cell).
func (g *gen) row(t int, seq uint64, dst []float64) {
	for j := range dst {
		if g.missing(t, j, seq) {
			dst[j] = math.NaN()
		} else {
			dst[j] = g.truth(t, j, seq)
		}
	}
}

func streamNames(n int) []string {
	names := make([]string, n)
	for i := range names {
		names[i] = fmt.Sprintf("s%02d", i)
	}
	return names
}

// mix hashes a seed and four coordinates with splitmix64 finalization.
func mix(seed uint64, a, b, c, d uint64) uint64 {
	h := seed ^ 0x9e3779b97f4a7c15
	for _, v := range [4]uint64{a, b, c, d} {
		h ^= v + 0x9e3779b97f4a7c15 + (h << 6) + (h >> 2)
		h = splitmix(h)
	}
	return h
}

func splitmix(x uint64) uint64 {
	x += 0x9e3779b97f4a7c15
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	return x ^ (x >> 31)
}

// unit maps a hash to [0, 1).
func unit(h uint64) float64 { return float64(h>>11) / (1 << 53) }

// normal maps a hash to an approximately standard normal variate (sum of
// four uniforms, rescaled to unit variance).
func normal(h uint64) float64 {
	s := 0.0
	for i := 0; i < 4; i++ {
		h = splitmix(h)
		s += unit(h)
	}
	return (s - 2) * math.Sqrt(3)
}

// zipfPick draws a rank in [0, n) with P(rank i) ∝ (i+1)^-s, using the
// precomputed cumulative weights.
func zipfPick(cum []float64, u float64) int {
	x := u * cum[len(cum)-1]
	lo, hi := 0, len(cum)-1
	for lo < hi {
		mid := (lo + hi) / 2
		if cum[mid] > x {
			hi = mid
		} else {
			lo = mid + 1
		}
	}
	return lo
}

func zipfCum(n int, s float64) []float64 {
	cum := make([]float64, n)
	acc := 0.0
	for i := range cum {
		acc += math.Pow(float64(i+1), -s)
		cum[i] = acc
	}
	return cum
}
