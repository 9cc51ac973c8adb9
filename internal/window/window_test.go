package window

import (
	"fmt"
	"math"
	"reflect"
	"testing"
	"testing/quick"
)

func TestNewValidation(t *testing.T) {
	for name, fn := range map[string]func(){
		"zero length":        func() { New(0, 1, 0, "a") },
		"capacity == length": func() { New(3, 3, 0, "a") },
		"capacity < length":  func() { New(3, 2, 0, "a") },
		"negative keep":      func() { New(3, 6, -1, "a") },
		"no streams":         func() { New(3, 6, 0) },
		"duplicate name":     func() { New(3, 6, 0, "a", "a") },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%s accepted", name)
				}
			}()
			fn()
		}()
	}
}

// TestNewPanicsOnBadCapacity: a backing must have room past the window and
// the keep values a compaction moves with it, so every capacity up to
// L + keep is refused and L + keep + 1, the tightest, is accepted.
func TestNewPanicsOnBadCapacity(t *testing.T) {
	for _, L := range []int{1, 4} {
		for _, keep := range []int{0, 1, 3} {
			for _, c := range []int{-1, 0, L - 1, L, L + keep} {
				func() {
					defer func() {
						if recover() == nil {
							t.Errorf("L = %d keep %d: capacity %d accepted", L, keep, c)
						}
					}()
					New(L, c, keep, "a")
				}()
			}
			w := New(L, L+keep+1, keep, "a")
			for v := 0; v < 3*(L+keep); v++ {
				w.Advance([]float64{float64(v)})
			}
			if w.Capacity() != L+keep+1 || w.Filled() != L || w.Current(0) != float64(3*(L+keep)-1) || startOf(w) != keep+1 {
				t.Fatalf("L = %d keep %d at capacity L+keep+1: capacity %d filled %d current %v start %d",
					L, keep, w.Capacity(), w.Filled(), w.Current(0), startOf(w))
			}
		}
	}
}

func TestAdvanceAndAccessors(t *testing.T) {
	w := New(3, 4, 0, "x", "y")
	if w.Tick() != -1 || w.Filled() != 0 {
		t.Fatal("fresh window state wrong")
	}
	if got := w.Advance([]float64{1, 10}); got != 0 {
		t.Fatalf("first tick = %d, want 0", got)
	}
	w.Advance([]float64{2, 20})
	if got := w.Snapshot(1); !reflect.DeepEqual(got, []float64{10, 20}) {
		t.Fatalf("y before full = %v", got)
	}
	w.Advance([]float64{3, 30})
	if w.Filled() != 3 || w.Tick() != 2 {
		t.Fatalf("window not full after L ticks: filled=%d tick=%d", w.Filled(), w.Tick())
	}
	w.Advance([]float64{4, 40})
	w.Advance([]float64{5, 50}) // compacts
	if w.Tick() != 4 || w.Filled() != 3 {
		t.Fatalf("tick = %d filled = %d, want 4 and 3", w.Tick(), w.Filled())
	}
	if got := w.Snapshot(0); !reflect.DeepEqual(got, []float64{3, 4, 5}) {
		t.Fatalf("x snapshot = %v", got)
	}
	if w.At(1, 0) != 30 || w.Current(1) != 50 {
		t.Fatalf("y accessors wrong: oldest=%v current=%v", w.At(1, 0), w.Current(1))
	}
}

// TestAdvanceBeforeFull: until L values arrive the window grows in place from
// the front of the backing — no slide, no compaction — and reads oldest first.
func TestAdvanceBeforeFull(t *testing.T) {
	w := New(4, 8, 0, "a", "b")
	if w.Filled() != 0 || w.Tick() != -1 {
		t.Fatal("fresh window must be empty")
	}
	for v := 1; v <= 4; v++ {
		w.Advance([]float64{float64(v), float64(10 * v)})
		if w.Filled() != v || w.Tick() != v-1 || startOf(w) != 0 || w.Shifted() != 0 {
			t.Fatalf("after %d values: filled %d tick %d start %d shifted %d", v, w.Filled(), w.Tick(), startOf(w), w.Shifted())
		}
		if w.At(0, 0) != 1 || w.Current(0) != float64(v) || w.At(1, 0) != 10 || w.Current(1) != float64(10*v) {
			t.Fatalf("after %d values: oldest/current = %v/%v and %v/%v", v, w.At(0, 0), w.Current(0), w.At(1, 0), w.Current(1))
		}
	}
	if got := w.Snapshot(1); !reflect.DeepEqual(got, []float64{10, 20, 30, 40}) {
		t.Fatalf("full window = %v", got)
	}
	w.Advance([]float64{5, 50})
	if w.Filled() != 4 || startOf(w) != 1 || w.At(0, 0) != 2 {
		t.Fatalf("first slide: filled %d start %d oldest %v", w.Filled(), startOf(w), w.At(0, 0))
	}
}

// TestAdvanceEvictsOldest: once full, every Advance evicts exactly the oldest
// value, here at the tightest capacity L+1, where the backing compacts on
// every tick after the first slide.
func TestAdvanceEvictsOldest(t *testing.T) {
	const L = 3
	w := New(L, L+1, 0, "a")
	for v := 1; v <= 9; v++ {
		w.Advance([]float64{float64(v)})
		var want []float64
		for u := max(1, v-L+1); u <= v; u++ {
			want = append(want, float64(u))
		}
		if got := w.Snapshot(0); !reflect.DeepEqual(got, want) {
			t.Fatalf("after %d: snapshot %v, want %v", v, got, want)
		}
		if w.At(0, 0) != want[0] || w.Current(0) != float64(v) {
			t.Fatalf("after %d: oldest/current = %v/%v", v, w.At(0, 0), w.Current(0))
		}
	}
	if w.Shifted() != 9-(L+1) {
		t.Fatalf("shifted %d, want one position per tick past the capacity (%d)", w.Shifted(), 9-(L+1))
	}
}

func TestAdvanceWidthMismatch(t *testing.T) {
	w := New(3, 6, 0, "a")
	defer func() {
		if recover() == nil {
			t.Fatal("row width mismatch accepted")
		}
	}()
	w.Advance([]float64{1, 2})
}

// TestAtOutOfRangePanics: At only reads the retained window, never the
// slid-out values or the free room of the backing.
func TestAtOutOfRangePanics(t *testing.T) {
	w := New(2, 4, 0, "a")
	for v := 0; v < 3; v++ {
		w.Advance([]float64{float64(v)})
	}
	for _, j := range []int{-1, 2} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("At(0, %d) did not panic", j)
				}
			}()
			w.At(0, j)
		}()
	}
}

// TestEmptyAccessorsPanic: before the first Advance there is no current
// value to read or overwrite.
func TestEmptyAccessorsPanic(t *testing.T) {
	w := New(2, 4, 0, "a")
	for name, fn := range map[string]func(){
		"Current":    func() { w.Current(0) },
		"SetCurrent": func() { w.SetCurrent(0, 1) },
		"At":         func() { w.At(0, 0) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%s on an empty window did not panic", name)
				}
			}()
			fn()
		}()
	}
}

// TestMissingDetection: a missing value is NaN in the stream's newest slot
// until SetCurrent overwrites it; the other streams are untouched.
func TestMissingDetection(t *testing.T) {
	w := New(2, 3, 0, "a", "b", "c")
	w.Advance([]float64{1, math.NaN(), math.NaN()})
	if !math.IsNaN(w.Current(1)) || math.IsNaN(w.Current(0)) || !math.IsNaN(w.At(2, 0)) {
		t.Fatal("missing values not recorded as NaN at tn")
	}
	w.SetCurrent(1, 5)
	if w.Current(1) != 5 || w.At(1, 0) != 5 || !math.IsNaN(w.Current(2)) || w.Current(0) != 1 {
		t.Fatalf("after SetCurrent: %v %v %v", w.Current(0), w.Current(1), w.Current(2))
	}
}

// TestSnapshotKeepsMissing: the window never fills in a missing value itself,
// so scanning a snapshot counts exactly the NaNs still retained — at every
// tick, across compactions, until each one slides out.
func TestSnapshotKeepsMissing(t *testing.T) {
	const L = 4
	nan := math.NaN()
	feed := []float64{1, nan, 3, nan, 5, 6, nan, 8, 9, 10, 11, nan, nan, 14}
	w := New(L, L+2, 0, "a")
	for x, v := range feed {
		w.Advance([]float64{v})
		retained := feed[max(0, x-L+1) : x+1]
		got := w.Snapshot(0)
		if len(got) != len(retained) {
			t.Fatalf("tick %d: snapshot %v, want %d values", x, got, len(retained))
		}
		missing, want := 0, 0
		for j := range retained {
			if math.IsNaN(retained[j]) {
				want++
			}
			if math.IsNaN(got[j]) {
				missing++
				if !math.IsNaN(retained[j]) {
					t.Fatalf("tick %d: slot %d is NaN, fed %v", x, j, retained[j])
				}
			}
		}
		if missing != want {
			t.Fatalf("tick %d: snapshot %v counts %d missing, want %d of %v", x, got, missing, want, retained)
		}
	}
	if w.Shifted() == 0 {
		t.Fatal("the feed never compacted")
	}
}

func TestNamesAndLookup(t *testing.T) {
	w := New(2, 3, 0, "a", "b")
	if !reflect.DeepEqual(w.Names(), []string{"a", "b"}) {
		t.Fatalf("names = %v", w.Names())
	}
	if w.IndexOf("b") != 1 || w.IndexOf("zz") != -1 {
		t.Fatal("IndexOf wrong")
	}
	if w.Length() != 2 || w.Capacity() != 3 || w.Width() != 2 {
		t.Fatal("shape accessors wrong")
	}
}

// TestSnapshotIntoReusesStorage: SnapshotInto must grow once and then reuse
// the caller's buffer, returning the logical contents oldest-first.
func TestSnapshotIntoReusesStorage(t *testing.T) {
	w := New(3, 4, 0, "a", "b")
	w.Advance([]float64{1, 10})
	w.Advance([]float64{2, 20})
	got := w.SnapshotInto(1, nil)
	if len(got) != 2 || got[0] != 10 || got[1] != 20 {
		t.Fatalf("snapshot = %v, want [10 20]", got)
	}
	w.Advance([]float64{3, 30})
	w.Advance([]float64{4, 40})
	w.Advance([]float64{5, 50}) // compacted
	buf := make([]float64, 0, 8)
	got = w.SnapshotInto(1, buf)
	if len(got) != 3 || got[0] != 30 || got[1] != 40 || got[2] != 50 {
		t.Fatalf("snapshot = %v, want [30 40 50]", got)
	}
	if &got[0] != &buf[:1][0] {
		t.Fatal("SnapshotInto must reuse the provided buffer's storage")
	}
}

// TestSnapshotIntoShortBuffer: a dst whose capacity is exactly Filled() is
// reused; a shorter one is left untouched and a fresh slice is returned.
func TestSnapshotIntoShortBuffer(t *testing.T) {
	w := New(3, 4, 0, "a")
	for v := 1; v <= 5; v++ {
		w.Advance([]float64{float64(v)})
	}
	short := []float64{-1, -1}
	got := w.SnapshotInto(0, short[:0])
	if !reflect.DeepEqual(got, []float64{3, 4, 5}) || !reflect.DeepEqual(short, []float64{-1, -1}) {
		t.Fatalf("short dst: got %v, dst now %v", got, short)
	}
	exact := []float64{-1, -1, -1}
	got = w.SnapshotInto(0, exact[:1])
	if !reflect.DeepEqual(got, []float64{3, 4, 5}) || &got[0] != &exact[0] {
		t.Fatalf("exact-capacity dst not reused: got %v", got)
	}
}

// TestWindowViews: Backing aliases the window's storage, holds the retained
// history at [start, start+Filled()), and keeps slid-out values left of
// start — at absolute position Shifted()+p — until a compaction moves the
// window to the front. No backing exists before the first Advance.
func TestWindowViews(t *testing.T) {
	const L, C = 3, 5
	w := New(L, C, 0, "a", "b")
	if h, _ := w.Backing(0); h != nil {
		t.Fatal("backing allocated before the first Advance")
	}
	for tick := 0; tick < 12; tick++ {
		w.Advance([]float64{float64(tick), float64(10 * tick)})
		for s := 0; s < 2; s++ {
			h, start := w.Backing(s)
			if len(h) != C {
				t.Fatalf("tick %d: backing has %d values, want %d", tick, len(h), C)
			}
			for j := 0; j < w.Filled(); j++ {
				if h[start+j] != w.At(s, j) {
					t.Fatalf("tick %d stream %d: backing[%d] = %v, At = %v", tick, s, start+j, h[start+j], w.At(s, j))
				}
			}
			// Every position holds the value appended at its absolute
			// position, slid-out ones included.
			for p := 0; p < start+w.Filled(); p++ {
				if want := float64((s*9 + 1) * (w.Shifted() + p)); h[p] != want {
					t.Fatalf("tick %d stream %d: backing[%d] = %v, want %v", tick, s, p, h[p], want)
				}
			}
		}
		if end := w.Shifted() + startOf(w) + w.Filled(); end != tick+1 {
			t.Fatalf("tick %d: absolute end %d, want %d", tick, end, tick+1)
		}
	}
	h, start := w.Backing(1)
	w.SetCurrent(1, -1)
	if h[start+w.Filled()-1] != -1 {
		t.Fatal("Backing does not alias the window's storage")
	}
}

// startOf returns the backing position of w's oldest retained value.
func startOf(w *Window) int {
	_, start := w.Backing(0)
	return start
}

// TestBackingAliasesStorage: each stream's backing aliases that stream's
// storage alone — a SetCurrent shows through its own backing, before and
// after a compaction, and never through a neighbor's, and no backing's
// capacity reaches into the next stream's values.
func TestBackingAliasesStorage(t *testing.T) {
	w := New(2, 3, 0, "a", "b", "c")
	for tick := 0; tick < 4; tick++ {
		w.Advance([]float64{1, 2, 3})
		w.SetCurrent(1, float64(40+tick))
		for s := 0; s < 3; s++ {
			h, start := w.Backing(s)
			if len(h) != w.Capacity() || cap(h) != w.Capacity() {
				t.Fatalf("tick %d stream %d: backing len %d cap %d, want %d", tick, s, len(h), cap(h), w.Capacity())
			}
			want := float64(s + 1)
			if s == 1 {
				want = float64(40 + tick)
			}
			if got := h[start+w.Filled()-1]; got != want {
				t.Fatalf("tick %d stream %d: newest backing slot %v, want %v", tick, s, got, want)
			}
		}
	}
	if w.Shifted() == 0 {
		t.Fatal("the feed never compacted")
	}
}

// TestBackingMatchesLogicalOrder: the backing's window segment reads the
// logical contents oldest first at every fill level and compaction position,
// and the last min(keep, slid-out) values sit left of it, for keep 0, 1 and a
// pattern length l, under the tightest, a quarter-slack and a doubled
// capacity, whether the window advances row by row or in AdvanceColumns runs.
func TestBackingMatchesLogicalOrder(t *testing.T) {
	const L, l = 8, 3
	col := make([]float64, 5*L)
	for x := range col {
		col[x] = float64(x)
	}
	for _, keep := range []int{0, 1, l} {
		for _, capacity := range []int{L + keep + 1, L + keep + L/4, 2 * L} {
			for _, run := range []int{1, 3} {
				testBackingOrder(t, col, L, capacity, keep, run)
			}
		}
	}
}

// testBackingOrder feeds col through one window, run values per advance, and
// checks its backing after every advance.
func testBackingOrder(t *testing.T, col []float64, L, capacity, keep, run int) {
	t.Helper()
	w := New(L, capacity, keep, "a")
	if h, _ := w.Backing(0); h != nil {
		t.Fatal("backing allocated before the first Advance")
	}
	for from := 0; from < len(col); from += run {
		to := min(from+run, len(col))
		if run == 1 {
			w.Advance(col[from:to])
		} else {
			w.AdvanceColumns([][]float64{col}, from, to)
		}
		h, start := w.Backing(0)
		if got, want := h[start:start+w.Filled()], col[to-w.Filled():to]; !reflect.DeepEqual(got, want) {
			t.Fatalf("capacity %d keep %d run %d at %d: backing segment %v, want %v", capacity, keep, run, from, got, want)
		}
		for j := 0; j < w.Filled(); j++ {
			if w.At(0, j) != h[start+j] {
				t.Fatalf("capacity %d keep %d run %d at %d: At(0, %d) = %v, backing %v", capacity, keep, run, from, j, w.At(0, j), h[start+j])
			}
		}
		if msg := keptSlidOut(w, h, start, col); msg != "" {
			t.Fatalf("capacity %d keep %d run %d at %d: %s", capacity, keep, run, from, msg)
		}
	}
	if w.Shifted() == 0 {
		t.Fatalf("capacity %d keep %d run %d: the feed never compacted", capacity, keep, run)
	}
}

// keptSlidOut checks the values left of the window in backing h against the
// fed column col: at least the last min(keep, slid-out) of them are there,
// each at its absolute position Shifted()+p. It returns "" when they are.
func keptSlidOut(w *Window, h []float64, start int, col []float64) string {
	slidOut := w.Shifted() + start
	if want := min(w.keep, slidOut); start < want {
		return fmt.Sprintf("%d slid-out values left of the window, want at least %d", start, want)
	}
	for p := range h[:start] {
		if h[p] != col[w.Shifted()+p] {
			return fmt.Sprintf("backing[%d] = %v, want the value fed at %d (%v)", p, h[p], w.Shifted()+p, col[w.Shifted()+p])
		}
	}
	return ""
}

// TestAdvanceColumnsMatchesAdvance: bulk runs of mixed lengths — shorter
// than, equal to and longer than the window and the free room, straddling
// several compactions — leave the same backing, geometry, Filled, Tick and At
// values as row-by-row Advance, under a doubled and a quarter-slack capacity.
func TestAdvanceColumnsMatchesAdvance(t *testing.T) {
	const L = 16
	for _, capacity := range []int{2 * L, L + L/4} {
		cols := [][]float64{make([]float64, 400), make([]float64, 400)}
		for x := range cols[0] {
			cols[0][x], cols[1][x] = float64(x), -float64(x)
		}
		rowWise := New(L, capacity, 0, "p", "q")
		bulk := New(L, capacity, 0, "p", "q")
		runs := []int{1, 3, 15, 16, 17, 2, 40, 5, 1, 1, 33, 64, 7}
		from := 0
		for r := 0; from < len(cols[0]); r++ {
			to := min(from+runs[r%len(runs)], len(cols[0]))
			for x := from; x < to; x++ {
				rowWise.Advance([]float64{cols[0][x], cols[1][x]})
			}
			if got := bulk.AdvanceColumns(cols, from, to); got != rowWise.Tick() {
				t.Fatalf("capacity %d run [%d,%d): AdvanceColumns returned tick %d, want %d", capacity, from, to, got, rowWise.Tick())
			}
			if bulk.Filled() != rowWise.Filled() || bulk.Shifted() != rowWise.Shifted() || startOf(bulk) != startOf(rowWise) {
				t.Fatalf("capacity %d run [%d,%d): geometry (filled %d, shifted %d, start %d) != row-wise (%d, %d, %d)",
					capacity, from, to, bulk.Filled(), bulk.Shifted(), startOf(bulk), rowWise.Filled(), rowWise.Shifted(), startOf(rowWise))
			}
			for s := 0; s < 2; s++ {
				gb, _ := bulk.Backing(s)
				wb, _ := rowWise.Backing(s)
				if !reflect.DeepEqual(gb, wb) {
					t.Fatalf("capacity %d run [%d,%d) stream %d: backings differ", capacity, from, to, s)
				}
				for j := 0; j < bulk.Filled(); j++ {
					if bulk.At(s, j) != cols[s][to-bulk.Filled()+j] {
						t.Fatalf("capacity %d run [%d,%d) stream %d: At(%d) = %v", capacity, from, to, s, j, bulk.At(s, j))
					}
				}
			}
			from = to
		}
		if rowWise.Shifted() < 3*L {
			t.Fatalf("capacity %d: only %d positions compacted; the feed must straddle several compactions", capacity, rowWise.Shifted())
		}
	}
}

// TestSetCurrentAtCompaction: the tick whose Advance compacts the backing
// still writes its value to the newest slot, SetCurrent overwrites exactly
// that slot, and the history before it survives the move.
func TestSetCurrentAtCompaction(t *testing.T) {
	const L, C = 4, 6
	w := New(L, C, 0, "a", "b")
	for tick := 0; tick < C; tick++ {
		w.Advance([]float64{float64(tick), float64(tick)})
	}
	if w.Shifted() != 0 || startOf(w) != C-L {
		t.Fatalf("backing compacted early: shifted %d start %d", w.Shifted(), startOf(w))
	}
	w.Advance([]float64{6, math.NaN()}) // right edge reached: compacts
	if w.Shifted() != C-L || startOf(w) != 1 {
		t.Fatalf("no compaction at the right edge: shifted %d start %d", w.Shifted(), startOf(w))
	}
	w.SetCurrent(1, 60)
	for s, want := range [][]float64{{3, 4, 5, 6}, {3, 4, 5, 60}} {
		if got := w.Snapshot(s); !reflect.DeepEqual(got, want) {
			t.Fatalf("stream %d after compaction = %v, want %v", s, got, want)
		}
	}
}

// TestSnapshotAcrossCompactions: Snapshot returns a copy of the last L
// values, oldest first, at every tick through many compactions, and the copy
// does not change when the window advances.
func TestSnapshotAcrossCompactions(t *testing.T) {
	const L = 5
	w := New(L, L+1, 0, "a")
	var prev, prevWant []float64
	for tick := 0; tick < 40; tick++ {
		w.Advance([]float64{float64(tick)})
		if !reflect.DeepEqual(prev, prevWant) {
			t.Fatalf("tick %d: the previous snapshot changed to %v", tick, prev)
		}
		got := w.Snapshot(0)
		want := make([]float64, 0, L)
		for v := max(0, tick-L+1); v <= tick; v++ {
			want = append(want, float64(v))
		}
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("tick %d: snapshot %v, want %v", tick, got, want)
		}
		prev, prevWant = got, want
	}
	if w.Shifted() == 0 {
		t.Fatal("the feed never compacted")
	}
}

// TestWindowMatchesSliceModel drives the window against a slice model per
// stream under random advance sequences and capacities (testing/quick).
func TestWindowMatchesSliceModel(t *testing.T) {
	f := func(rows []uint32, lenRaw, slackRaw uint8) bool {
		L := int(lenRaw)%6 + 2
		w := New(L, L+int(slackRaw)%(L+1)+1, 0, "p", "q")
		var mp, mq []float64
		for _, r := range rows {
			pv := float64(r & 0xffff)
			qv := float64(r >> 16)
			w.Advance([]float64{pv, qv})
			mp = append(mp, pv)
			mq = append(mq, qv)
			if len(mp) > L {
				mp, mq = mp[1:], mq[1:]
			}
			if w.Filled() != len(mp) {
				return false
			}
			for i := range mp {
				if w.At(0, i) != mp[i] || w.At(1, i) != mq[i] {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

// TestAdvanceColumnsMatchesSliceModel drives AdvanceColumns runs of random
// lengths, empty ones included, against a slice model under random lengths,
// keeps and capacities (testing/quick): after every run the tick, the fill
// level and every retained value, oldest and newest included, match the
// model, and the last min(keep, slid-out) values sit left of the window at
// their absolute positions.
func TestAdvanceColumnsMatchesSliceModel(t *testing.T) {
	f := func(vals []uint16, runs []uint8, lenRaw, keepRaw, slackRaw uint8) bool {
		L := int(lenRaw)%6 + 1
		keep := int(keepRaw) % (L + 2)
		w := New(L, L+keep+int(slackRaw)%(L+1)+1, keep, "a")
		col := make([]float64, len(vals))
		for x, v := range vals {
			col[x] = float64(v % 97)
		}
		if len(runs) == 0 {
			runs = []uint8{1}
		}
		for from, r := 0, 0; from < len(col); r++ {
			n := int(runs[r%len(runs)]) % 9
			if r%len(runs) == 0 {
				n = max(n, 1) // every cycle through runs advances
			}
			to := min(from+n, len(col))
			if w.AdvanceColumns([][]float64{col}, from, to) != to-1 {
				return false
			}
			model := col[max(0, to-L):to]
			if w.Filled() != len(model) {
				return false
			}
			for j, want := range model {
				if w.At(0, j) != want {
					return false
				}
			}
			if len(model) > 0 && w.Current(0) != model[len(model)-1] {
				return false
			}
			if h, start := w.Backing(0); len(model) > 0 && (w.Shifted()+start != to-len(model) || keptSlidOut(w, h, start, col) != "") {
				return false
			}
			from = to
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}
