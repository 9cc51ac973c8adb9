// Package window maintains the streaming window W = {tn-L+1, ..., tn} over a
// set of co-evolving streams (Sec. 3). Each stream's retained values sit
// contiguously in a backing array of fixed capacity C > L + keep: a tick
// writes its value right after the window and slides the window's start, and
// when the right edge is reached the window and the last keep values that
// slid out of it are copied to the front. That is L + keep copies every
// C − L − keep ticks — an amortized O(1) advance, like the ring buffer of
// Sec. 6.2 (Lemma 6.1) — and every scan runs over one plain slice.
//
// Values that slid out of the window stay readable left of its start until
// the next compaction, and the last keep of them survive it; the incremental
// profiler (internal/core) replays deferred ticks against them instead of
// keeping a second copy of the history. Every tick delivers exactly one value
// per stream (NaN marks a missing one), so all streams share one geometry —
// start, filled count and compaction points — and imputers overwrite the
// newest slot of incomplete streams (SetCurrent), so the retained history is
// always complete.
package window

import "fmt"

// Window holds the last L values of a fixed set of named streams.
type Window struct {
	length   int
	capacity int
	keep     int // slid-out values a compaction keeps left of the window
	names    []string
	index    map[string]int
	// hist holds one backing slice of len capacity per stream, allocated on
	// the first Advance; stream i's window is hist[i][start : start+filled].
	hist    [][]float64
	start   int
	filled  int
	shifted int // total positions compactions moved the backings down by
	// tick is the index of the current time tn, counted from the first
	// Advance call (first tick is 0). It is -1 before any data arrives.
	tick int
}

// New creates a window of length L over the given stream names, backed by
// capacity values per stream, whose compactions keep the last keep slid-out
// values readable left of the window (see Backing). A larger capacity
// compacts less often. It panics if L <= 0, if keep < 0, if capacity <=
// L + keep, if no names are given, or on duplicate names.
func New(length, capacity, keep int, names ...string) *Window {
	if length <= 0 {
		panic(fmt.Sprintf("window: length must be positive, got %d", length))
	}
	if keep < 0 {
		panic(fmt.Sprintf("window: keep must be non-negative, got %d", keep))
	}
	if capacity <= length+keep {
		panic(fmt.Sprintf("window: capacity %d must exceed the length %d plus keep %d", capacity, length, keep))
	}
	if len(names) == 0 {
		panic("window: at least one stream is required")
	}
	w := &Window{
		length:   length,
		capacity: capacity,
		keep:     keep,
		names:    append([]string(nil), names...),
		index:    make(map[string]int, len(names)),
		hist:     make([][]float64, len(names)),
		tick:     -1,
	}
	for i, name := range names {
		if _, dup := w.index[name]; dup {
			panic(fmt.Sprintf("window: duplicate stream name %q", name))
		}
		w.index[name] = i
	}
	return w
}

// Length returns L, the number of ticks retained per stream.
func (w *Window) Length() int { return w.length }

// Capacity returns the per-stream backing capacity.
func (w *Window) Capacity() int { return w.capacity }

// Width returns the number of streams.
func (w *Window) Width() int { return len(w.hist) }

// Names returns the stream names in declaration order.
func (w *Window) Names() []string { return w.names }

// Tick returns the index of the current time tn (-1 before any Advance).
func (w *Window) Tick() int { return w.tick }

// SetTick overwrites the tick counter. It exists for snapshot restore, where
// the retained values are replayed through Advance (yielding tick Filled()-1)
// but the window logically sits at a later absolute tick. It panics if t is
// smaller than Filled()-1 — a restored window cannot predate its contents.
func (w *Window) SetTick(t int) {
	if t < w.Filled()-1 {
		panic(fmt.Sprintf("window: tick %d predates the %d retained values", t, w.Filled()))
	}
	w.tick = t
}

// Filled returns the number of ticks currently retained (≤ L).
func (w *Window) Filled() int { return w.filled }

// Advance moves the current time to the next tick and records one value per
// stream. row must have one entry per stream, in declaration order; NaN marks
// a missing measurement. It returns the new tick index.
func (w *Window) Advance(row []float64) int {
	if len(row) != len(w.hist) {
		panic(fmt.Sprintf("window: row has %d values, window has %d streams", len(row), len(w.hist)))
	}
	w.room(1)
	p := w.start + w.filled
	for i, v := range row {
		w.hist[i][p] = v
	}
	w.appended(1)
	w.tick++
	return w.tick
}

// AdvanceColumns advances the current time by to−from ticks at once, reading
// the values from stream-major columns: cols[i][t] is stream i's measurement
// at batch tick t. Each stream's run [from, to) lands in its backing in one
// contiguous copy per compaction it straddles, and the compactions fall on
// the same ticks as under row-by-row Advance, which it is equivalent to. It
// returns the new tick index and panics on a width mismatch or a column
// shorter than to.
func (w *Window) AdvanceColumns(cols [][]float64, from, to int) int {
	if len(cols) != len(w.hist) {
		panic(fmt.Sprintf("window: %d columns, window has %d streams", len(cols), len(w.hist)))
	}
	w.tick += to - from
	for from < to {
		n := w.room(to - from)
		p := w.start + w.filled
		for i, col := range cols {
			copy(w.hist[i][p:p+n], col[from:from+n])
		}
		w.appended(n)
		from += n
	}
	return w.tick
}

// room makes space right after the window — allocating the backings on
// first use, and compacting them when the right edge is reached — and
// returns how many of n values fit there contiguously. A compaction moves the
// window and the keep values before it to the front; the right edge is only
// reached once more than keep values have slid out, since capacity exceeds
// L + keep.
func (w *Window) room(n int) int {
	if w.hist[0] == nil {
		all := make([]float64, len(w.hist)*w.capacity)
		for i := range w.hist {
			w.hist[i] = all[i*w.capacity : (i+1)*w.capacity : (i+1)*w.capacity]
		}
	}
	free := w.capacity - (w.start + w.filled)
	if free == 0 {
		from := w.start - w.keep
		for _, h := range w.hist {
			copy(h, h[from:w.start+w.filled])
		}
		w.shifted += from
		w.start = w.keep
		free = w.capacity - w.keep - w.filled
	}
	return min(n, free)
}

// appended accounts for n values written right after the window: the window
// grows until it holds L values, then slides.
func (w *Window) appended(n int) {
	grow := min(n, w.length-w.filled)
	w.filled += grow
	w.start += n - grow
}

// IndexOf returns the position of the named stream, or -1 if unknown.
func (w *Window) IndexOf(name string) int {
	if i, ok := w.index[name]; ok {
		return i
	}
	return -1
}

// At returns the value of stream i at logical window index j (0 = oldest
// retained tick, Filled()-1 = tn). It panics if j is out of range.
func (w *Window) At(i, j int) float64 {
	if j < 0 || j >= w.filled {
		panic(fmt.Sprintf("window: index %d out of range [0,%d)", j, w.filled))
	}
	return w.hist[i][w.start+j]
}

// Current returns the value of stream i at the current time tn.
func (w *Window) Current(i int) float64 { return w.hist[i][w.start+w.filled-1] }

// SetCurrent overwrites the value of stream i at the current time tn. This
// is how imputers store a recovered value (Algorithm 1 line 26).
func (w *Window) SetCurrent(i int, v float64) { w.hist[i][w.start+w.filled-1] = v }

// Backing returns stream i's whole backing array and the position of the
// oldest retained value in it: the window is hist[start : start+Filled()].
// Positions left of start hold values that slid out of the window, readable
// until the next compaction moves the window to the front; the last keep of
// them (all of them while fewer have slid out) survive it, so start ≥
// min(keep, Shifted()+start) at every tick (see Shifted). The slice aliases
// the window's storage, is nil before the first Advance, and must not be
// written through.
func (w *Window) Backing(i int) (hist []float64, start int) { return w.hist[i], w.start }

// Shifted returns the total number of positions compactions have moved the
// backings down by: the value at backing position p was appended at absolute
// position Shifted()+p, counting from 0 at the window's first Advance, so
// Shifted()+start identifies the window's oldest value across compactions.
func (w *Window) Shifted() int { return w.shifted }

// Snapshot copies the retained history of stream i (oldest first).
func (w *Window) Snapshot(i int) []float64 { return w.SnapshotInto(i, nil) }

// SnapshotInto copies the retained history of stream i (oldest first) into
// dst, reusing its storage when it is large enough; it returns the filled
// slice of length Filled(). Imputers use this to materialize reference
// histories into per-engine scratch without allocating per tick.
func (w *Window) SnapshotInto(i int, dst []float64) []float64 {
	if cap(dst) < w.filled {
		dst = make([]float64, w.filled)
	}
	dst = dst[:w.filled]
	copy(dst, w.hist[i][w.start:])
	return dst
}
