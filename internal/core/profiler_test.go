package core

import (
	"fmt"
	"math"
	"testing"

	"tkcm/internal/window"
)

// profileTol is the agreement tolerance between profiler implementations.
// The FFT and incremental paths reassociate the floating-point sums, so they
// differ from the naive loop in the last ulps; the acceptance bound for
// imputed values is 1e-6 and the profiles themselves stay far inside it.
const profileTol = 1e-6

// TestProfilerSliceEquivalence: on random slice histories, every Profiler
// implementation must agree with the naive Def. 2 loop across norms,
// pattern lengths and reference counts.
func TestProfilerSliceEquivalence(t *testing.T) {
	profilers := []Profiler{NaiveProfiler{}, FFTProfiler{}, NewIncrementalProfiler(1, window.New(2, 4, 0, "x"))}
	for _, norm := range []Norm{L2, L1, LInf} {
		for _, l := range []int{1, 3, 8, 17} {
			for _, d := range []int{1, 2, 4} {
				n := 6*l + 11
				refs := randomRefs(int64(100*l+10*d+int(norm)), d, n)
				want := dissimilarityProfile(refs, l, norm, nil)
				for _, p := range profilers {
					got := p.Profile(refs, l, norm, nil)
					if len(got) != len(want) {
						t.Fatalf("%s norm=%v l=%d d=%d: profile length %d != %d", p.Name(), norm, l, d, len(got), len(want))
					}
					for j := range want {
						if math.Abs(got[j]-want[j]) > profileTol {
							t.Fatalf("%s norm=%v l=%d d=%d: profile[%d] = %v, want %v", p.Name(), norm, l, d, j, got[j], want[j])
						}
					}
				}
			}
		}
	}
}

// servedWindow builds the window NewEngine gives the incremental profiler:
// capacity L + l + L/4, keeping the last l slid-out values across
// compactions.
func servedWindow(L, l int, names ...string) *window.Window {
	return window.New(L, historyCapacity(ProfilerIncremental, L, l), historyKeep(ProfilerIncremental, l), names...)
}

// TestIncrementalProfilerMatchesNaive drives the stateful incremental
// profiler tick by tick through warm-up, steady state and several backing
// compactions, checking the maintained L2 profile against a from-scratch
// naive profile at every tick.
func TestIncrementalProfilerMatchesNaive(t *testing.T) {
	const (
		L     = 64
		l     = 5
		ticks = 500
		d     = 3
	)
	data := randomRefs(42, d, ticks)
	w := servedWindow(L, l, "a", "b", "c")
	p := NewIncrementalProfiler(l, w)
	refIdx := []int{0, 1, 2}
	snaps := make([][]float64, d)
	for n := 0; n < ticks; n++ {
		w.AdvanceColumns(data, n, n+1)
		if w.Filled() < 2*l {
			continue
		}
		for i := range snaps {
			snaps[i] = w.Snapshot(i)
		}
		want := dissimilarityProfile(snaps, l, L2, nil)
		got := p.ProfileWindow(refIdx, nil)
		if len(got) != len(want) {
			t.Fatalf("tick %d: %d candidates, want %d", n, len(got), len(want))
		}
		for j := range want {
			if math.Abs(got[j]-want[j]) > profileTol {
				t.Fatalf("tick %d: profile[%d] = %v, want %v (diff %g)", n, j, got[j], want[j], got[j]-want[j])
			}
		}
	}
}

// TestIncrementalProfilerSubsetAssembly: profiles assembled over a subset of
// the maintained streams must match the naive profile over that subset (the
// aggregates are per stream, shared by every imputation of a tick).
func TestIncrementalProfilerSubsetAssembly(t *testing.T) {
	const (
		L = 48
		l = 4
		d = 4
	)
	data := randomRefs(7, d, 3*L)
	w := servedWindow(L, l, "a", "b", "c", "d")
	p := NewIncrementalProfiler(l, w)
	w.AdvanceColumns(data, 0, 3*L)
	for _, subset := range [][]int{{0}, {2}, {1, 3}, {3, 0, 2}} {
		snaps := make([][]float64, len(subset))
		for x, i := range subset {
			snaps[x] = w.Snapshot(i)
		}
		want := dissimilarityProfile(snaps, l, L2, nil)
		got := p.ProfileWindow(subset, nil)
		for j := range want {
			if math.Abs(got[j]-want[j]) > profileTol {
				t.Fatalf("subset %v: profile[%d] = %v, want %v", subset, j, got[j], want[j])
			}
		}
	}
}

// streamEngines runs identically configured engines over the same row
// sequence and asserts their completed rows agree within tol wherever a
// value was missing.
func streamEngines(t *testing.T, cfgs []Config, labels []string, tol float64) {
	t.Helper()
	const (
		period = 48
		n      = 6 * period
		width  = 4
	)
	names := []string{"s", "r1", "r2", "r3"}
	refs := func() map[string]ReferenceSet {
		return map[string]ReferenceSet{
			"s":  {Stream: "s", Candidates: []string{"r1", "r2", "r3"}},
			"r1": {Stream: "r1", Candidates: []string{"r2", "r3", "s"}},
		}
	}
	engines := make([]*Engine, len(cfgs))
	for i, cfg := range cfgs {
		eng, err := NewEngine(cfg, names, refs())
		if err != nil {
			t.Fatalf("%s: %v", labels[i], err)
		}
		engines[i] = eng
	}
	state := uint64(11)
	noise := func() float64 {
		state ^= state << 13
		state ^= state >> 7
		state ^= state << 17
		return float64(state%1000) / 5000
	}
	for tick := 0; tick < n; tick++ {
		ph := 2 * math.Pi * float64(tick) / period
		row := make([]float64, width)
		row[0] = math.Sin(ph) + noise()
		row[1] = math.Sin(ph-1.0) + noise()
		row[2] = math.Cos(ph+0.4) + noise()
		row[3] = math.Sin(2*ph) + noise()
		// Scattered single and double losses once the window is warm.
		if tick > 3*period {
			if tick%5 == 0 {
				row[0] = math.NaN()
			}
			if tick%7 == 0 {
				row[1] = math.NaN()
			}
		}
		outs := make([][]float64, len(engines))
		for i, eng := range engines {
			rowCopy := append([]float64(nil), row...)
			out, _, err := eng.Tick(rowCopy)
			if err != nil {
				t.Fatalf("%s tick %d: %v", labels[i], tick, err)
			}
			outs[i] = out
		}
		for i := 1; i < len(engines); i++ {
			for j := range outs[0] {
				if !math.IsNaN(row[j]) {
					continue
				}
				if math.Abs(outs[i][j]-outs[0][j]) > tol {
					t.Fatalf("tick %d stream %d: %s imputed %v, %s imputed %v (diff %g)",
						tick, j, labels[i], outs[i][j], labels[0], outs[0][j], outs[i][j]-outs[0][j])
				}
			}
		}
	}
	for i := 1; i < len(engines); i++ {
		if engines[i].Stats.Imputations != engines[0].Stats.Imputations {
			t.Fatalf("%s performed %d imputations, %s performed %d",
				labels[i], engines[i].Stats.Imputations, labels[0], engines[0].Stats.Imputations)
		}
	}
}

// TestEngineProfilerEquivalence: the streaming engine must impute the same
// values (within FFT/incremental rounding) whichever profiler drives
// pattern extraction — the end-to-end equivalence the refactor promises.
func TestEngineProfilerEquivalence(t *testing.T) {
	base := Config{K: 3, PatternLength: 12, D: 2, WindowLength: 4 * 48, Norm: L2, Selection: SelectDP}
	var cfgs []Config
	var labels []string
	for _, kind := range []ProfilerKind{ProfilerNaive, ProfilerFFT, ProfilerIncremental} {
		cfg := base
		cfg.Profiler = kind
		cfgs = append(cfgs, cfg)
		labels = append(labels, kind.String())
	}
	streamEngines(t, cfgs, labels, 1e-6)
}

// TestEngineParallelEquivalence: a tick fanned out across workers must
// produce the same imputations as the inline tick.
func TestEngineParallelEquivalence(t *testing.T) {
	for _, kind := range []ProfilerKind{ProfilerNaive, ProfilerIncremental} {
		t.Run(kind.String(), func(t *testing.T) {
			serial := Config{K: 3, PatternLength: 12, D: 2, WindowLength: 4 * 48, Norm: L2, Profiler: kind}
			parallel := serial
			parallel.Workers = 4
			streamEngines(t, []Config{serial, parallel}, []string{"serial", "parallel"}, 0)
		})
	}
}

// TestEngineNonL2FallsBackToNaive: non-L2 norms have no FFT/incremental
// decomposition; every kind must degrade to the naive loop and still impute.
func TestEngineNonL2FallsBackToNaive(t *testing.T) {
	for _, kind := range []ProfilerKind{ProfilerAuto, ProfilerFFT, ProfilerIncremental} {
		cfg := Config{K: 2, PatternLength: 6, D: 1, WindowLength: 96, Norm: L1, Profiler: kind}
		eng, err := NewEngine(cfg, []string{"s", "r"}, map[string]ReferenceSet{
			"s": {Stream: "s", Candidates: []string{"r"}},
		})
		if err != nil {
			t.Fatal(err)
		}
		if name := eng.Profiler().Name(); name != "naive" {
			t.Fatalf("kind %v under L1 resolved to %q, want naive", kind, name)
		}
		for i := 0; i < 120; i++ {
			ph := 2 * math.Pi * float64(i) / 48
			sv := math.Sin(ph)
			if i == 119 {
				sv = math.NaN()
			}
			out, _, err := eng.Tick([]float64{sv, math.Cos(ph)})
			if err != nil {
				t.Fatal(err)
			}
			if math.IsNaN(out[0]) {
				t.Fatalf("tick %d left NaN", i)
			}
		}
		if eng.Stats.Imputations != 1 {
			t.Fatalf("imputations = %d, want 1", eng.Stats.Imputations)
		}
	}
}

// TestParseProfilerKind round-trips every kind and rejects junk.
func TestParseProfilerKind(t *testing.T) {
	for _, k := range []ProfilerKind{ProfilerAuto, ProfilerNaive, ProfilerFFT, ProfilerIncremental} {
		got, err := ParseProfilerKind(k.String())
		if err != nil || got != k {
			t.Fatalf("round trip %v: got %v, err %v", k, got, err)
		}
	}
	if _, err := ParseProfilerKind("stomp"); err == nil {
		t.Fatal("want error for unknown profiler name")
	}
}

// TestImputeWindowHonorsProfilerConfig: the streaming one-shot path must
// produce equivalent results under every profiler kind, including the FFT
// fast path that was previously slice-only.
func TestImputeWindowHonorsProfilerConfig(t *testing.T) {
	const L = 60
	data := randomRefs(3, 3, L+17)
	mkWindow := func() *window.Window {
		w := window.New(L, 2*L, 0, "s", "r1", "r2")
		for i := range data[0] {
			w.Advance([]float64{data[0][i], data[1][i], data[2][i]})
		}
		w.SetCurrent(0, math.NaN())
		return w
	}
	var want *Result
	for _, kind := range []ProfilerKind{ProfilerNaive, ProfilerFFT, ProfilerIncremental} {
		cfg := Config{K: 3, PatternLength: 4, D: 2, WindowLength: L, Profiler: kind}
		res, err := ImputeWindow(cfg, mkWindow(), 0, []int{1, 2})
		if err != nil {
			t.Fatalf("%v: %v", kind, err)
		}
		if want == nil {
			want = res
			continue
		}
		if math.Abs(res.Value-want.Value) > profileTol {
			t.Fatalf("%v imputed %v, want %v", kind, res.Value, want.Value)
		}
	}
}

// syncReference is sync with the per-slide replay and the one-candidate-at-
// a-time rebuild: the same replay-vs-rebuild rule and backing positions
// (replayFrom), applying each deferred slide in its own pass over cross. It is the oracle the fused replay and the blocked rebuild must
// match bit for bit.
func syncReference(p *IncrementalProfiler, i int) {
	st := p.states[i]
	hist, start := p.w.Backing(i)
	m := p.w.Filled()
	pos := p.w.Shifted() + start
	if st.aggOK && pos == st.syncPos && m == st.syncM {
		return
	}
	l := p.l
	nCand := m - 2*l + 1
	if nCand <= 0 {
		st.aggOK = false
		return
	}
	if st.energy == nil {
		st.energy = make([]float64, p.energyLen)
		st.cross = make([]float64, 0, p.maxCand)
	}
	grow := m - st.syncM
	deferred := grow + pos - st.syncPos
	syncStart := p.replayFrom(st, m, pos)
	if syncStart < 0 {
		rebuildReference(st, hist[start:start+m], l)
		st.syncPos = pos
		st.syncM = m
		st.aggOK = true
		return
	}
	for g := 1; g <= grow; g++ {
		st.replayGrowth(hist[syncStart:syncStart+st.syncM+g], l)
	}
	for s := syncStart + 1; s <= start; s++ {
		replaySlideReference(st, hist, s, m, l)
	}
	st.sinceRebuild += deferred
	st.syncPos = pos
	st.syncM = m
}

// replaySlideReference replays one deferred steady-state tick, after which
// the window sat at hist[s : s+m]: one pass over cross, then the energy and
// query-energy bumps.
func replaySlideReference(st *incStreamState, hist []float64, s, m, l int) {
	nCand := m - 2*l + 1
	qs := m - l
	vNew := hist[s+m-1]
	qold := hist[s+qs-1]
	for j := 0; j < nCand; j++ {
		st.cross[j] += hist[s+l-1+j]*vNew - hist[s-1+j]*qold
	}
	if st.estart+nCand == len(st.energy) {
		copy(st.energy, st.energy[st.estart:st.estart+nCand])
		st.estart = 0
	}
	st.estart++
	last := st.estart + nCand - 1
	e0 := hist[s+nCand-2]
	e1 := hist[s+nCand-2+l]
	st.energy[last] = st.energy[last-1] - e0*e0 + e1*e1
	st.eq += vNew*vNew - qold*qold
}

// rebuildReference recomputes the aggregates one candidate at a time.
func rebuildReference(st *incStreamState, nv []float64, l int) {
	m := len(nv)
	nCand := m - 2*l + 1
	qs := m - l
	st.sinceRebuild = 0
	st.estart = 0
	st.eq = 0
	for _, v := range nv[qs:] {
		st.eq += v * v
	}
	if cap(st.cross) < nCand {
		st.cross = make([]float64, nCand)
	} else {
		st.cross = st.cross[:nCand]
	}
	e := 0.0
	for x := 0; x < l; x++ {
		e += nv[x] * nv[x]
	}
	for j := 0; j < nCand; j++ {
		st.energy[j] = e
		if j+1 < nCand {
			e += nv[j+l]*nv[j+l] - nv[j]*nv[j]
		}
		c := 0.0
		for x := 0; x < l; x++ {
			c += nv[j+x] * nv[qs+x]
		}
		st.cross[j] = c
	}
}

// profileWindowReference assembles the profile the way the per-stream
// contribution vectors did: materialize each reference's
// energy[j] + eq − 2·cross[j], sum the vectors in reference order, then
// take the guarded square root in a final pass.
func profileWindowReference(p *IncrementalProfiler, refIdx []int) []float64 {
	var dst []float64
	for x, ri := range refIdx {
		syncReference(p, ri)
		st := p.states[ri]
		nCand := len(st.cross)
		c := make([]float64, nCand)
		for j := range c {
			c[j] = st.energy[st.estart+j] + st.eq - 2*st.cross[j]
		}
		if x == 0 {
			dst = c
			continue
		}
		for j := range dst {
			dst[j] += c[j]
		}
	}
	for j, v := range dst {
		if v < 0 {
			v = 0
		}
		dst[j] = math.Sqrt(v)
	}
	return dst
}

// sameAggregates reports the first field on which two stream states'
// aggregates differ in any bit, or "" when cross, the live candidate
// energies and eq all agree exactly.
func sameAggregates(a, b *incStreamState) string {
	if len(a.cross) != len(b.cross) {
		return fmt.Sprintf("candidate count %d != %d", len(a.cross), len(b.cross))
	}
	for j := range a.cross {
		if math.Float64bits(a.cross[j]) != math.Float64bits(b.cross[j]) {
			return fmt.Sprintf("cross[%d] %v != %v", j, a.cross[j], b.cross[j])
		}
		if ea, eb := a.energy[a.estart+j], b.energy[b.estart+j]; math.Float64bits(ea) != math.Float64bits(eb) {
			return fmt.Sprintf("energy[%d] %v != %v", j, ea, eb)
		}
	}
	if math.Float64bits(a.eq) != math.Float64bits(b.eq) {
		return fmt.Sprintf("eq %v != %v", a.eq, b.eq)
	}
	return ""
}

// TestFusedReplayMatchesPerSlide consults three references every gap
// ticks, for every gap from 1 to 80, through the production catch-up and
// through the per-slide oracle, over the served backing. Gaps above 61 cross
// the replay-vs-rebuild threshold at this shape, and each run crosses several
// backing compactions, so fused replays of every remainder mod 4 start from
// both rebuilt and replayed aggregates. cross, energy, eq and the assembled
// profiles — over one reference and over all three, which exercises the
// first, middle and last assembly passes — must agree bit for bit at every
// consult.
func TestFusedReplayMatchesPerSlide(t *testing.T) {
	const (
		L = 512
		l = 72
		d = 3
	)
	for gap := 1; gap <= 80; gap++ {
		ticks := 5*L/2 + 2*gap
		data := randomRefs(int64(1000+gap), d, ticks)
		w := servedWindow(L, l, "a", "b", "c")
		got := NewIncrementalProfiler(l, w)
		want := NewIncrementalProfiler(l, w)
		for n := 0; n < ticks; n++ {
			w.AdvanceColumns(data, n, n+1)
			if n < 2*l || (n+1)%gap != 0 {
				continue
			}
			for _, refIdx := range [][]int{{2, 0, 1}, {1}} {
				gp := got.ProfileWindow(refIdx, nil)
				wp := profileWindowReference(want, refIdx)
				for j := range wp {
					if math.Float64bits(gp[j]) != math.Float64bits(wp[j]) {
						t.Fatalf("gap %d tick %d refs %v: profile[%d] %v != %v", gap, n, refIdx, j, gp[j], wp[j])
					}
				}
			}
			for i := 0; i < d; i++ {
				if diff := sameAggregates(got.states[i], want.states[i]); diff != "" {
					t.Fatalf("gap %d tick %d stream %d: %s", gap, n, i, diff)
				}
			}
		}
	}
}

// TestBlockedRebuildMatchesPlain: the four-candidates-per-pass rebuild must
// reproduce the one-candidate-at-a-time rebuild bit for bit, for candidate
// counts of every residue mod 4.
func TestBlockedRebuildMatchesPlain(t *testing.T) {
	for _, l := range []int{1, 3, 24, 72} {
		for extra := 0; extra < 9; extra++ {
			m := 2*l + extra // extra+1 candidates
			nv := randomRefs(int64(10*l+extra), 1, m)[0]
			got := &incStreamState{energy: make([]float64, 2*m), cross: make([]float64, 0, m)}
			want := &incStreamState{energy: make([]float64, 2*m)}
			got.rebuild(nv, l)
			rebuildReference(want, nv, l)
			if diff := sameAggregates(got, want); diff != "" {
				t.Fatalf("l=%d m=%d: %s", l, m, diff)
			}
		}
	}
}

// TestAggregatesReleasedWhenUnreplayable drives an ingest-shaped engine — 64
// streams, L = 1024, l = 72, pinned references, one-cell gaps that mostly hit
// four hot streams — for more than 2L ticks, so that references are consulted
// again within the replay bound and long after it. It tracks every stream's last consult from the pinned reference sets (a lone
// gap consults the first D candidates) and checks after every tick that no
// stream holds aggregates more than l + ⌈l/4⌉ ticks after it, that a sweep
// kept a stream's aggregates exactly when the replay rule, applied to the
// stream's state before the tick, could still use them, that nothing else
// released or took any, and that the sweep kept no more spare arrays than
// rebuilds took since the previous one.
func TestAggregatesReleasedWhenUnreplayable(t *testing.T) {
	const (
		width = 64
		L     = 1024
		l     = 72
		ticks = 2*L + 500
	)
	cfg := Config{K: 5, PatternLength: l, D: 3, WindowLength: L}
	names := make([]string, width)
	for i := range names {
		names[i] = fmt.Sprintf("s%d", i)
	}
	refs := make(map[string]ReferenceSet, width)
	for i, n := range names {
		refs[n] = ReferenceSet{Stream: n, Candidates: []string{names[(i+1)%width], names[(i+5)%width], names[(i+11)%width], names[(i+17)%width]}}
	}
	eng, err := NewEngine(cfg, names, refs)
	if err != nil {
		t.Fatal(err)
	}
	defer eng.Close()
	p := eng.inc
	state := uint64(7)
	next := func() uint64 { // xorshift64
		state ^= state << 13
		state ^= state >> 7
		state ^= state << 17
		return state
	}
	lastConsult := make([]int, width)
	for i := range lastConsult {
		lastConsult[i] = -1
	}
	held := make([]bool, width)
	released := make([]bool, width)
	before := make([]incStreamState, width)
	bound := l + (l+3)/4
	var releases, retakes, sweeps, takes int
	row := make([]float64, width)
	for tick := 0; tick < ticks; tick++ {
		for i, st := range p.states {
			before[i] = *st
		}
		for j := range row {
			row[j] = 10 + 3*math.Sin(2*math.Pi*float64(tick)/288+0.37*float64(j)) + float64(next()%100)/250
		}
		if tick >= L && next()%5 == 0 {
			gap := int(next() % width)
			if next()%2 == 0 {
				gap %= 4
			}
			row[gap] = math.NaN()
			for _, c := range refs[names[gap]].Candidates[:cfg.D] {
				lastConsult[eng.w.IndexOf(c)] = tick
			}
		}
		if _, _, err := eng.Tick(row); err != nil {
			t.Fatal(err)
		}
		_, start := eng.w.Backing(0)
		m, pos := eng.w.Filled(), eng.w.Shifted()+start
		swept := p.sweptAt == tick
		if swept {
			sweeps++
		}
		nHeld := 0
		for i, st := range p.states {
			has := st.energy != nil
			if has {
				nHeld++
				if lastConsult[i] < 0 || tick-lastConsult[i] > bound {
					t.Fatalf("tick %d: stream %d holds aggregates %d ticks after its last consult (at %d), bound %d", tick, i, tick-lastConsult[i], lastConsult[i], bound)
				}
			}
			// A consult leaves the aggregates held (and replayable, with no
			// tick deferred); otherwise only a sweep changes what a stream
			// holds, and it keeps them exactly when the replay rule could
			// still use them.
			consulted := lastConsult[i] == tick
			want := held[i] || consulted
			if swept && !consulted {
				want = held[i] && p.replayable(&before[i], m, pos)
			}
			if has != want {
				t.Fatalf("tick %d (sweep %v): stream %d holds aggregates %v, want %v (last consult %d)", tick, swept, i, has, want, lastConsult[i])
			}
			switch {
			case held[i] && !has:
				releases++
				released[i] = true
			case !held[i] && has:
				takes++
				if released[i] {
					retakes++
				}
			}
			held[i] = has
		}
		if nHeld != len(p.held) {
			t.Fatalf("tick %d: %d streams hold aggregates, the sweep list has %d", tick, nHeld, len(p.held))
		}
		// A sweep keeps no more spare arrays than rebuilds took since the
		// previous one.
		if swept {
			if len(p.spare) > takes {
				t.Fatalf("tick %d: the sweep kept %d spare arrays after %d takes", tick, len(p.spare), takes)
			}
			takes = 0
		}
	}
	if releases == 0 || retakes == 0 || sweeps < (ticks-L)/((l+3)/4) {
		t.Fatalf("%d releases, %d re-takes, %d sweeps: the feed did not exercise the sweep", releases, retakes, sweeps)
	}
	t.Logf("%d sweeps, %d releases, %d re-takes over %d imputations", sweeps, releases, retakes, eng.Stats.Imputations)
}
