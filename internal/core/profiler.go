package core

import (
	"fmt"
	"math"

	"tkcm/internal/window"
)

// ProfilerKind selects the pattern-extraction strategy — the implementation
// that computes the dissimilarity profile of Def. 2, the phase the paper
// measures at ~92% of TKCM's runtime (Sec. 7.4).
type ProfilerKind int

const (
	// ProfilerAuto picks the fastest correct implementation for the call
	// site: the incremental profiler in the streaming engine under the L2
	// norm, and the naive profiler otherwise.
	ProfilerAuto ProfilerKind = iota
	// ProfilerNaive is the paper's Def. 2 loop: O(d·l·L) per profile,
	// supports every norm.
	ProfilerNaive
	// ProfilerFFT computes the L2 profile via FFT cross-correlation in
	// O(d·L·log L) (Sec. 8 future work). Non-L2 norms fall back to naive.
	ProfilerFFT
	// ProfilerIncremental maintains per-stream L2 profile aggregates across
	// consecutive engine ticks (a STOMP-style diagonal update). State is
	// demand-driven: recording a tick is O(1) per stream, and a stream's
	// aggregates are caught up only when it is consulted as a reference, so
	// untouched streams cost nothing. Outside the engine (one-shot slice
	// imputation, non-L2 norms) it falls back to the FFT or naive profiler.
	ProfilerIncremental
)

// String returns the flag-friendly name of the kind.
func (k ProfilerKind) String() string {
	switch k {
	case ProfilerAuto:
		return "auto"
	case ProfilerNaive:
		return "naive"
	case ProfilerFFT:
		return "fft"
	case ProfilerIncremental:
		return "incremental"
	default:
		return fmt.Sprintf("ProfilerKind(%d)", int(k))
	}
}

// ParseProfilerKind maps a flag value ("auto", "naive", "fft",
// "incremental") back to its ProfilerKind.
func ParseProfilerKind(s string) (ProfilerKind, error) {
	for _, k := range []ProfilerKind{ProfilerAuto, ProfilerNaive, ProfilerFFT, ProfilerIncremental} {
		if s == k.String() {
			return k, nil
		}
	}
	return ProfilerAuto, fmt.Errorf("core: unknown profiler %q (want auto, naive, fft or incremental)", s)
}

// Profiler computes the dissimilarity profile D[j] = δ(P(anchor_j), P(tn))
// over plain reference histories (oldest first, equal lengths), writing into
// dst (allocated when nil). All implementations agree with the Def. 2 loop
// up to floating-point rounding; equivalence is enforced by tests.
type Profiler interface {
	// Name identifies the implementation in benches and logs.
	Name() string
	// Profile computes the dissimilarity profile for pattern length l under
	// the given norm. refs must be non-empty with equal-length rows.
	Profile(refs [][]float64, l int, norm Norm, dst []float64) []float64
}

// NaiveProfiler is the paper's Def. 2 loop over all candidate anchors:
// O(d·l·L) per profile, every norm supported.
type NaiveProfiler struct{}

// Name implements Profiler.
func (NaiveProfiler) Name() string { return "naive" }

// Profile implements Profiler via the direct per-anchor loop.
func (NaiveProfiler) Profile(refs [][]float64, l int, norm Norm, dst []float64) []float64 {
	return dissimilarityProfile(refs, l, norm, dst)
}

// FFTProfiler computes the L2 profile via FFT cross-correlation in
// O(d·L·log L); other norms fall back to the naive loop (the energy/
// cross-correlation decomposition only exists for L2).
type FFTProfiler struct{}

// Name implements Profiler.
func (FFTProfiler) Name() string { return "fft" }

// Profile implements Profiler.
func (FFTProfiler) Profile(refs [][]float64, l int, norm Norm, dst []float64) []float64 {
	if norm != L2 {
		return dissimilarityProfile(refs, l, norm, dst)
	}
	return dissimilarityProfileFFT(refs, l, dst)
}

// incRebuildEvery bounds floating-point drift of the incremental updates: a
// full rebuild at least every incRebuildEvery absorbed ticks keeps the
// maintained profile within ~1e-9 of the naive one.
const incRebuildEvery = 8192

// backingSlack is the spare room of a window backing past its L values and
// the slid-out values it keeps: at L/4 it compacts once every L/4 slides
// (about four copies per slide, amortized) and costs 1.25× its live size.
func backingSlack(L int) int { return max(1, L/4) }

// historyCapacity is the per-stream window backing the engine allocates:
// the window, the slid-out values it keeps (historyKeep) and backingSlack.
func historyCapacity(kind ProfilerKind, L, l int) int {
	return L + historyKeep(kind, l) + backingSlack(L)
}

// historyKeep is how many slid-out values the engine's window keeps across a
// compaction: the l a replay may read under the incremental profiler (see
// IncrementalProfiler.replayFrom), none under the stateless profilers.
func historyKeep(kind ProfilerKind, l int) int {
	if kind == ProfilerIncremental {
		return l
	}
	return 0
}

// incStreamState holds one stream's (possibly stale) sliding profile
// aggregates. With v the stream's window (oldest first, m ticks) and
// qs = m − l:
//
//	eq        = Σ_{x<l} v[qs+x]²           (query pattern energy)
//	energy[j] = Σ_{x<l} v[j+x]²            (candidate pattern energy)
//	cross[j]  = Σ_{x<l} v[j+x]·v[qs+x]     (candidate·query dot product)
//
// so the stream's L2 profile contribution at anchor j is
// energy[j] + eq − 2·cross[j]. When the window advances by one tick, every
// cross entry moves along a diagonal of the dot-product matrix (candidate
// and query both shift by one), which updates it with one subtraction and
// one addition — the same observation that powers the STOMP matrix-profile
// algorithm.
//
// The history itself is the engine window's backing (window.Window.Backing),
// which slides with amortized-O(1) compaction, so the hot loops run over
// plain slices. Aggregates are demand-driven: sync catches them up to the
// current tick when the stream is actually consulted — replaying the
// deferred diagonal updates tick by tick when that is cheaper, rebuilding
// from scratch otherwise. syncPos/syncM record the window geometry at the
// last sync, syncPos as an absolute position (Window.Shifted + start) that
// compactions do not move, so the replay can reconstruct every intermediate
// window directly from the backing: a replay starts at most l positions left
// of the window, and the backing keeps the last l slid-out values.
//
// energy and cross are views of one array, held only while the replay rule
// can still use it (see IncrementalProfiler.sweep).
type incStreamState struct {
	// Aggregates; valid only while aggOK, and then describe the window as it
	// was at the last sync.
	aggOK        bool
	syncPos      int // absolute position of the window's oldest value at the last sync
	syncM        int // filled ticks at the last sync
	sinceRebuild int // synced ticks since the last full rebuild

	cross  []float64 // len = candidate count at last sync, cap maxCand; nil while released
	energy []float64 // len maxCand + l, cap the whole array; entries = energy[estart : estart+nCand]
	estart int
	eq     float64
}

// IncrementalProfiler maintains per-stream profile aggregates inside the
// engine, replacing the O(d·l·L) per-tick recompute with demand-driven
// incremental maintenance. It reads the stream histories from the engine's
// window — whose backing keeps the last l slid-out values across compactions
// — and keeps no copy of them, and assembles profiles for any reference
// subset via ProfileWindow.
//
// Recording a tick costs the profiler nothing. A stream's aggregates are
// caught up when it is first consulted in a tick, choosing the cheaper of
// replaying the t deferred diagonal updates (O(t·L)) and a full rebuild
// (O(l·L)), so per-tick engine cost scales with the streams that actually
// serve as references, not with the total width.
//
// The aggregates are a cache with a bounded life: about l ticks after a
// stream's last consult the replay rule can no longer use them, and the next
// consult rebuilds them from the window whatever they hold. The engine's
// sweep releases them then, so a tenant holds aggregates — 2n + l floats per
// stream, n = L − 2l + 1 — only for the streams consulted in about the last
// l ticks, plus the spare arrays its recent rebuilds took.
//
// The aggregates are per stream, not per target, so every imputation in a
// tick shares them: ProfileWindow sums each reference's contribution
// energy[j] + eq − 2·cross[j] straight from its aggregates into the profile,
// with no intermediate per-stream vector.
//
// Its stateless Profile method (the Profiler interface) delegates to the FFT
// profiler — one-shot slice imputations have no tick-to-tick state to exploit.
type IncrementalProfiler struct {
	l         int
	maxCand   int
	energyLen int // maxCand live candidate energies plus l of slack
	w         *window.Window
	states    []*incStreamState
	fallbak   FFTProfiler

	// held lists the streams whose aggregates hold an array, the only ones a
	// sweep visits. spare holds released arrays for the next rebuilds; took
	// counts the arrays rebuilds took since the last sweep, at the window
	// tick sweptAt.
	held    []int
	spare   [][]float64
	took    int
	sweptAt int
}

// NewIncrementalProfiler creates the engine-side incremental profiler for
// pattern length l over the streams of w. Consulted streams must be complete
// over w's retained window, the engine's continuous-imputation invariant, and
// w must keep at least l slid-out values across a compaction (window.New's
// keep); sync panics on a backing that lost values a replay reads.
//
// The candidate energies have l entries of slack: a replayed slide shifts
// them one slot and every l slides they move to the front. They are only
// moved, never recomputed, so the slack changes no bit, and the move costs
// O(nCand/l) per slide inside a replay that costs O(nCand) per slide.
func NewIncrementalProfiler(l int, w *window.Window) *IncrementalProfiler {
	maxCand := max(w.Length()-2*l+1, 0)
	p := &IncrementalProfiler{
		l:         l,
		maxCand:   maxCand,
		energyLen: maxCand + l,
		w:         w,
		states:    make([]*incStreamState, w.Width()),
	}
	for i := range p.states {
		p.states[i] = &incStreamState{}
	}
	return p
}

// Name implements Profiler.
func (p *IncrementalProfiler) Name() string { return "incremental" }

// Profile implements Profiler for one-shot slice histories (no streaming
// state available) by delegating to the FFT fast path.
func (p *IncrementalProfiler) Profile(refs [][]float64, l int, norm Norm, dst []float64) []float64 {
	return p.fallbak.Profile(refs, l, norm, dst)
}

// sync brings stream i's aggregates up to the current tick. It replays the
// deferred per-tick diagonal updates when the aggregates are recent enough
// for that to beat a rebuild (t deferred ticks cost O(t·L) vs the rebuild's
// O(l·L)), and rebuilds from the raw window otherwise (see replayable); a
// stream that holds no aggregate array takes one for the rebuild.
func (p *IncrementalProfiler) sync(i int) {
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
		// Window too short for any candidate; nothing to maintain yet.
		st.aggOK = false
		return
	}
	syncStart := p.replayFrom(st, m, pos)
	if syncStart < 0 {
		if st.energy == nil {
			p.take(i)
		}
		st.rebuild(hist[start:start+m], l)
		st.syncPos = pos
		st.syncM = m
		st.aggOK = true
		return
	}
	// Each deferred tick either grew the window or slid it by one.
	grow := m - st.syncM
	slide := pos - st.syncPos
	for g := 1; g <= grow; g++ {
		st.replayGrowth(hist[syncStart:syncStart+st.syncM+g], l)
	}
	if slide > 0 {
		st.replaySlides(hist, syncStart+1, slide, m, l)
	}
	st.sinceRebuild += grow + slide
	st.syncPos = pos
	st.syncM = m
}

// replayable reports whether a sync of st to a window of m values at
// absolute position pos may replay the deferred ticks instead of rebuilding.
// A replay needs valid aggregates that already covered ≥ 1 candidate and room
// under the drift-rebuild budget — and it must be cheaper than the
// O(m + nCand·l) rebuild. With m = nCand + 2l − 1 that last condition gives
// deferred < l + 1, so a replay reads at most l slid-out values, which the
// engine's window keeps.
//
// Once false it stays false as the window advances, until the next sync: every
// tick adds one deferred tick, which raises deferred·(nCand + l) by at least
// as much as it raises m + nCand·l (by nCand + l on a slide against 0, by
// deferred + nCand + l + 1 on a growth against l + 1), and the drift budget
// only shrinks. So a stream whose aggregates fail it will rebuild at its next
// consult, and until then they are dead weight.
func (p *IncrementalProfiler) replayable(st *incStreamState, m, pos int) bool {
	l := p.l
	nCand := m - 2*l + 1
	deferred := (m - st.syncM) + (pos - st.syncPos)
	return st.aggOK &&
		st.syncM-2*l+1 >= 1 &&
		st.sinceRebuild+deferred < incRebuildEvery &&
		deferred*(nCand+l) <= m+nCand*l
}

// replayFrom decides how sync catches st up to a window of m values at
// absolute position pos: it returns the backing position of st's sync point,
// where a replay of the deferred ticks starts, or -1 to rebuild (see
// replayable). A sync point a compaction moved out of the backing is a broken
// invariant, not a rebuild case, and panics.
func (p *IncrementalProfiler) replayFrom(st *incStreamState, m, pos int) int {
	if !p.replayable(st, m, pos) {
		return -1
	}
	from := st.syncPos - p.w.Shifted()
	if from < 0 {
		panic(fmt.Sprintf("core: replay from absolute position %d, but the window backing starts at %d", st.syncPos, p.w.Shifted()))
	}
	return from
}

// take gives stream i an aggregate array for a rebuild: a spare one when the
// last sweep kept any, a new one otherwise. The rebuild overwrites every entry
// a later sync or ProfileWindow reads, so a spare's old contents change no bit.
func (p *IncrementalProfiler) take(i int) {
	var agg []float64
	if n := len(p.spare); n > 0 {
		agg = p.spare[n-1]
		p.spare[n-1] = nil
		p.spare = p.spare[:n-1]
	} else {
		agg = make([]float64, p.energyLen+p.maxCand)
	}
	st := p.states[i]
	st.energy = agg[:p.energyLen]
	st.cross = agg[p.energyLen:p.energyLen]
	p.held = append(p.held, i)
	p.took++
}

// sweep releases the aggregate array of every held stream the replay rule can
// no longer replay at the current window, which its next consult would
// rebuild anyway (see replayable), so releasing changes no output bit. The
// released arrays join the spares, and the spares are trimmed to the count
// rebuilds took since the previous sweep, so a tenant keeps one sweep
// interval's worth of rebuild demand, not its peak. The engine calls it on the
// ticking goroutine, after every read of the tick; it acts at most once every
// ⌈l/4⌉ ticks and visits only held streams, so a stream holds its aggregates
// at most l + ⌈l/4⌉ ticks past its last consult, or to the end of a longer
// TickColumns batch.
func (p *IncrementalProfiler) sweep() {
	t := p.w.Tick()
	if t-p.sweptAt < (p.l+3)/4 {
		return
	}
	p.sweptAt = t
	_, start := p.w.Backing(0)
	m := p.w.Filled()
	pos := p.w.Shifted() + start
	kept := p.held[:0]
	for _, i := range p.held {
		st := p.states[i]
		if p.replayable(st, m, pos) {
			kept = append(kept, i)
			continue
		}
		p.spare = append(p.spare, st.energy[:cap(st.energy)])
		st.energy, st.cross = nil, nil
		st.aggOK = false
	}
	p.held = kept
	if len(p.spare) > p.took {
		clear(p.spare[p.took:])
		p.spare = p.spare[:p.took]
	}
	p.took = 0
}

// replayGrowth replays one deferred warm-up tick: the window grew by one to
// w (start unchanged at 0 during warm-up), adding one candidate. Old cross
// entry j-1 slides diagonally into entry j; entry 0 is computed fresh in
// O(l); the new candidate's energy extends its neighbor by one pair.
func (st *incStreamState) replayGrowth(w []float64, l int) {
	m := len(w)
	nCand := m - 2*l + 1
	qs := m - l
	vNew := w[m-1]
	qold := w[qs-1]
	st.cross = st.cross[:nCand]
	cross := st.cross
	for j := nCand - 1; j >= 1; j-- {
		cross[j] = cross[j-1] - w[j-1]*qold + w[j-1+l]*vNew
	}
	c0 := 0.0
	for x := 0; x < l; x++ {
		c0 += w[x] * w[qs+x]
	}
	cross[0] = c0
	last := st.estart + nCand - 1
	ls := nCand - 1 // window-local start of the newest candidate
	st.energy[last] = st.energy[last-1] - w[ls-1]*w[ls-1] + w[ls-1+l]*w[ls-1+l]
	st.eq += vNew*vNew - w[m-1-l]*w[m-1-l]
}

// replaySlides replays t deferred steady-state ticks: the full window slid
// by one per tick, so that after the tick at backing position s (s = s0 ..
// s0+t−1) it was hist[s : s+m]. Candidate starts stay index-aligned, so every
// cross entry slides along its diagonal once per tick,
//
//	cross[j] += hist[s+l−1+j]·hist[s+m−1] − hist[s−1+j]·hist[s+qs−1]
//
// (the value entering the window times the candidate's new last value,
// minus the value leaving the query times the candidate's old first value).
// One pass over cross applies four consecutive ticks to each entry, in tick
// order, so every entry sees exactly the roundings of four separate passes
// while cross is loaded and stored once per four ticks. The O(1) per-tick
// bumps of the candidate and query energies follow.
func (st *incStreamState) replaySlides(hist []float64, s0, t, m, l int) {
	nCand := m - 2*l + 1
	qs := m - l
	cross := st.cross[:nCand]
	end := s0 + t
	s := s0
	for ; s+4 <= end; s += 4 {
		v0, v1, v2, v3 := hist[s+m-1], hist[s+m], hist[s+m+1], hist[s+m+2]
		q0, q1, q2, q3 := hist[s+qs-1], hist[s+qs], hist[s+qs+1], hist[s+qs+2]
		// a_u[j] and b_u[j] are tick s+u's anchor and left-edge values.
		a0, a1, a2, a3 := hist[s+l-1:], hist[s+l:], hist[s+l+1:], hist[s+l+2:]
		b0, b1, b2, b3 := hist[s-1:], hist[s:], hist[s+1:], hist[s+2:]
		a0, a1, a2, a3 = a0[:nCand], a1[:nCand], a2[:nCand], a3[:nCand]
		b0, b1, b2, b3 = b0[:nCand], b1[:nCand], b2[:nCand], b3[:nCand]
		for j, c := range cross {
			c += a0[j]*v0 - b0[j]*q0
			c += a1[j]*v1 - b1[j]*q1
			c += a2[j]*v2 - b2[j]*q2
			c += a3[j]*v3 - b3[j]*q3
			cross[j] = c
		}
	}
	for ; s < end; s++ {
		v, q := hist[s+m-1], hist[s+qs-1]
		a, b := hist[s+l-1:], hist[s-1:]
		a, b = a[:nCand], b[:nCand]
		j := 0
		for ; j+4 <= nCand; j += 4 {
			c4, a4, b4 := cross[j:j+4:j+4], a[j:j+4:j+4], b[j:j+4:j+4]
			c4[0] += a4[0]*v - b4[0]*q
			c4[1] += a4[1]*v - b4[1]*q
			c4[2] += a4[2]*v - b4[2]*q
			c4[3] += a4[3]*v - b4[3]*q
		}
		for ; j < nCand; j++ {
			cross[j] += a[j]*v - b[j]*q
		}
	}
	for s := s0; s < end; s++ {
		// Candidate energies shift down one slot (a start-offset bump) and
		// the newest candidate's energy extends its neighbor by one pair.
		if st.estart+nCand == len(st.energy) {
			copy(st.energy, st.energy[st.estart:st.estart+nCand])
			st.estart = 0
		}
		st.estart++
		last := st.estart + nCand - 1
		e0 := hist[s+nCand-2]
		e1 := hist[s+nCand-2+l]
		st.energy[last] = st.energy[last-1] - e0*e0 + e1*e1
		vNew, qold := hist[s+m-1], hist[s+qs-1]
		st.eq += vNew*vNew - qold*qold
	}
}

// rebuild recomputes all aggregates exactly from the current window.
// Candidate energies roll in O(m); the cross products cost O(l) each and
// are computed four candidates per pass over the query pattern, with one
// accumulator per candidate summing in x order.
func (st *incStreamState) rebuild(nv []float64, l int) {
	m := len(nv)
	nCand := m - 2*l + 1
	qs := m - l
	st.sinceRebuild = 0
	st.estart = 0
	st.eq = 0
	for _, v := range nv[qs:] {
		st.eq += v * v
	}
	st.cross = st.cross[:nCand]
	e := 0.0
	for x := 0; x < l; x++ {
		e += nv[x] * nv[x]
	}
	for j := 0; j < nCand; j++ {
		st.energy[j] = e
		if j+1 < nCand {
			e += nv[j+l]*nv[j+l] - nv[j]*nv[j]
		}
	}
	q := nv[qs : qs+l]
	cross := st.cross
	j := 0
	for ; j+4 <= nCand; j += 4 {
		w0, w1, w2, w3 := nv[j:], nv[j+1:], nv[j+2:], nv[j+3:]
		w0, w1, w2, w3 = w0[:len(q)], w1[:len(q)], w2[:len(q)], w3[:len(q)]
		var c0, c1, c2, c3 float64
		for x, qx := range q {
			c0 += w0[x] * qx
			c1 += w1[x] * qx
			c2 += w2[x] * qx
			c3 += w3[x] * qx
		}
		cross[j], cross[j+1], cross[j+2], cross[j+3] = c0, c1, c2, c3
	}
	for ; j < nCand; j++ {
		w := nv[j : j+l]
		c := 0.0
		for x, qx := range q {
			c += w[x] * qx
		}
		cross[j] = c
	}
}

// Prepare catches up every stream in refIdx. The engine calls it serially for
// every job of a tick before any of the jobs' profile assemblies run, inline
// or across workers, so both ways sync the same streams at the same point and
// concurrent ProfileWindow calls only read the aggregates.
func (p *IncrementalProfiler) Prepare(refIdx []int) {
	for _, ri := range refIdx {
		p.sync(ri)
	}
}

// ProfileWindow assembles the L2 dissimilarity profile over the reference
// streams refIdx from the maintained aggregates, writing into dst (allocated
// when nil). Each reference adds its contribution energy[j] + eq − 2·cross[j]
// in one pass, and the last reference's pass also takes the square root.
// Streams not yet caught up are synced on demand (catch-up mutates state —
// concurrent callers must Prepare their reference streams first, as the
// engine does).
func (p *IncrementalProfiler) ProfileWindow(refIdx []int, dst []float64) []float64 {
	if len(refIdx) == 0 {
		panic("core: ProfileWindow needs at least one reference stream")
	}
	nCand := max(p.w.Filled()-2*p.l+1, 0)
	if dst == nil {
		dst = make([]float64, nCand)
	}
	dst = dst[:nCand:nCand]
	last := len(refIdx) - 1
	for x, ri := range refIdx {
		p.sync(ri)
		st := p.states[ri]
		energy := st.energy[st.estart:]
		energy, cross := energy[:len(dst)], st.cross[:len(dst)]
		eq := st.eq
		switch {
		case x == 0 && x < last:
			j := 0
			for ; j+4 <= len(dst); j += 4 {
				d4, e4, c4 := dst[j:j+4:j+4], energy[j:j+4:j+4], cross[j:j+4:j+4]
				d4[0] = e4[0] + eq - 2*c4[0]
				d4[1] = e4[1] + eq - 2*c4[1]
				d4[2] = e4[2] + eq - 2*c4[2]
				d4[3] = e4[3] + eq - 2*c4[3]
			}
			for ; j < len(dst); j++ {
				dst[j] = energy[j] + eq - 2*cross[j]
			}
		case x == 0:
			for j := range dst {
				dst[j] = guardedSqrt(energy[j] + eq - 2*cross[j])
			}
		case x < last:
			j := 0
			for ; j+4 <= len(dst); j += 4 {
				d4, e4, c4 := dst[j:j+4:j+4], energy[j:j+4:j+4], cross[j:j+4:j+4]
				d4[0] += e4[0] + eq - 2*c4[0]
				d4[1] += e4[1] + eq - 2*c4[1]
				d4[2] += e4[2] + eq - 2*c4[2]
				d4[3] += e4[3] + eq - 2*c4[3]
			}
			for ; j < len(dst); j++ {
				dst[j] += energy[j] + eq - 2*cross[j]
			}
		default:
			for j := range dst {
				dst[j] = guardedSqrt(dst[j] + (energy[j] + eq - 2*cross[j]))
			}
		}
	}
	return dst
}

// guardedSqrt is the profile's final step: incremental rounding can leave a
// squared distance a few ulps below zero, which counts as zero.
func guardedSqrt(v float64) float64 {
	if v < 0 {
		v = 0
	}
	return math.Sqrt(v)
}

// sliceProfiler resolves the profiler used for one-shot slice imputations
// (Impute): FFT for the kinds that ask for a fast L2 path, naive otherwise.
func (c Config) sliceProfiler() Profiler {
	switch c.Profiler {
	case ProfilerFFT, ProfilerIncremental:
		return FFTProfiler{}
	default:
		return NaiveProfiler{}
	}
}

// engineProfilerKind resolves the streaming engine's extraction strategy.
// Auto prefers the incremental profiler under L2 (the norm it supports);
// every kind degrades to naive for non-L2 norms, matching the slice path.
func (c Config) engineProfilerKind() ProfilerKind {
	k := c.Profiler
	if k == ProfilerAuto {
		k = ProfilerIncremental
	}
	if c.Norm != L2 && k != ProfilerNaive {
		return ProfilerNaive
	}
	return k
}
