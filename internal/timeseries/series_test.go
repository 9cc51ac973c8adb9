package timeseries

import (
	"math"
	"reflect"
	"testing"
	"testing/quick"
	"time"
)

func TestMissingMarker(t *testing.T) {
	if !IsMissing(Missing) {
		t.Fatal("Missing must be missing")
	}
	if IsMissing(0) || IsMissing(-3.5) || IsMissing(math.Inf(1)) {
		t.Fatal("finite and infinite values are not missing")
	}
}

func TestSamplingTimeMath(t *testing.T) {
	sp := Sampling{Start: time.Date(2014, 3, 11, 0, 0, 0, 0, time.UTC), Interval: 5 * time.Minute}
	if got := sp.TicksPerDay(); got != 288 {
		t.Fatalf("TicksPerDay = %d, want 288", got)
	}
	var zero Sampling
	if zero.TicksPerDay() != 0 {
		t.Fatal("zero sampling must degrade gracefully")
	}
}

func TestSeriesBasics(t *testing.T) {
	s := New("t", []float64{1, Missing, 3})
	if s.Len() != 3 || s.At(0) != 1 || !s.MissingAt(1) {
		t.Fatalf("unexpected series state: %+v", s)
	}
	s.Set(1, 2)
	if s.MissingAt(1) || s.At(1) != 2 {
		t.Fatal("Set failed")
	}
	s.Append(4)
	if s.Len() != 4 || s.At(3) != 4 {
		t.Fatal("Append failed")
	}
	if s.CountMissing() != 0 || !s.Complete() {
		t.Fatal("completeness accounting wrong")
	}
}

func TestNewEmpty(t *testing.T) {
	s := NewEmpty("e", 4)
	if s.Len() != 4 || s.CountMissing() != 4 {
		t.Fatalf("NewEmpty wrong: %+v", s)
	}
}

func TestCloneIndependence(t *testing.T) {
	s := New("a", []float64{1, 2})
	c := s.Clone()
	c.Set(0, 99)
	if s.At(0) != 1 {
		t.Fatal("Clone shares storage")
	}
}

func TestSliceSharesStorage(t *testing.T) {
	s := New("a", []float64{1, 2, 3, 4})
	v := s.Slice(1, 3)
	v.Set(0, 99)
	if s.At(1) != 99 {
		t.Fatal("Slice must share storage")
	}
	if v.Len() != 2 {
		t.Fatalf("slice length = %d, want 2", v.Len())
	}
}

func TestGaps(t *testing.T) {
	s := New("g", []float64{Missing, 1, Missing, Missing, 2, Missing})
	gaps := s.Gaps()
	want := []Gap{{0, 1}, {2, 2}, {5, 1}}
	if !reflect.DeepEqual(gaps, want) {
		t.Fatalf("gaps = %v, want %v", gaps, want)
	}
	if g := (Gap{Start: 2, Length: 2}); g.End() != 4 {
		t.Fatalf("gap end = %d, want 4", g.End())
	}
	if len(New("c", []float64{1, 2}).Gaps()) != 0 {
		t.Fatal("complete series must have no gaps")
	}
}

// TestGapsPartitionProperty: the gaps plus the present positions partition
// the index range, for random missingness.
func TestGapsPartitionProperty(t *testing.T) {
	f := func(mask uint32) bool {
		s := New("p", make([]float64, 32))
		missing := 0
		for i := 0; i < 32; i++ {
			if mask&(1<<i) != 0 {
				s.Set(i, Missing)
				missing++
			} else {
				s.Set(i, float64(i))
			}
		}
		total := 0
		for _, g := range s.Gaps() {
			if g.Length <= 0 {
				return false
			}
			for i := g.Start; i < g.End(); i++ {
				if !s.MissingAt(i) {
					return false
				}
			}
			// Maximality: neighbours must be present.
			if g.Start > 0 && s.MissingAt(g.Start-1) {
				return false
			}
			if g.End() < 32 && s.MissingAt(g.End()) {
				return false
			}
			total += g.Length
		}
		return total == missing && s.CountMissing() == missing
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestEraseBlock(t *testing.T) {
	s := New("e", []float64{1, 2, 3, 4, 5})
	truth := s.EraseBlock(1, 3)
	if !reflect.DeepEqual(truth, []float64{2, 3, 4}) {
		t.Fatalf("truth = %v", truth)
	}
	if s.CountMissing() != 3 || !s.MissingAt(1) || !s.MissingAt(3) || s.MissingAt(0) {
		t.Fatalf("erase wrong: %v", s.Values)
	}
	defer func() {
		if recover() == nil {
			t.Fatal("out-of-range erase must panic")
		}
	}()
	s.EraseBlock(3, 5)
}

func TestShift(t *testing.T) {
	s := New("sh", []float64{1, 2, 3, 4})
	if got := s.Shift(1).Values; !reflect.DeepEqual(got, []float64{4, 1, 2, 3}) {
		t.Fatalf("shift +1 = %v", got)
	}
	if got := s.Shift(-1).Values; !reflect.DeepEqual(got, []float64{2, 3, 4, 1}) {
		t.Fatalf("shift -1 = %v", got)
	}
	if got := s.Shift(4).Values; !reflect.DeepEqual(got, s.Values) {
		t.Fatalf("full-period shift = %v", got)
	}
	if got := s.Shift(6).Values; !reflect.DeepEqual(got, s.Shift(2).Values) {
		t.Fatalf("shift wraps: %v", got)
	}
}

// TestShiftRoundTrip: Shift(d) then Shift(-d) is the identity.
func TestShiftRoundTrip(t *testing.T) {
	f := func(seed int64, dRaw int8) bool {
		n := 17
		vals := make([]float64, n)
		for i := range vals {
			vals[i] = float64((seed>>uint(i%32))&0xff) + float64(i)
		}
		s := New("rt", vals)
		d := int(dRaw)
		return reflect.DeepEqual(s.Shift(d).Shift(-d).Values, s.Values)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestFrame(t *testing.T) {
	a := New("a", []float64{1, 2, 3})
	b := New("b", []float64{4, 5, 6})
	f := NewFrame(a, b)
	if f.Len() != 3 || f.Width() != 2 {
		t.Fatalf("frame shape %dx%d", f.Len(), f.Width())
	}
	if f.ByName("b") != b || f.ByName("zzz") != nil {
		t.Fatal("ByName wrong")
	}
	if f.IndexOf("a") != 0 || f.IndexOf("b") != 1 || f.IndexOf("c") != -1 {
		t.Fatal("IndexOf wrong")
	}
	if !reflect.DeepEqual(f.Names(), []string{"a", "b"}) {
		t.Fatalf("names = %v", f.Names())
	}
	if !reflect.DeepEqual(f.Row(1), []float64{2, 5}) {
		t.Fatalf("row = %v", f.Row(1))
	}
}

func TestFramePanics(t *testing.T) {
	f := NewFrame(New("a", []float64{1, 2}))
	mustPanic(t, "misaligned series", func() { f.Add(New("b", []float64{1})) })
	mustPanic(t, "duplicate name", func() { f.Add(New("a", []float64{3, 4})) })
}

func TestFrameCloneAndSlice(t *testing.T) {
	f := NewFrame(New("a", []float64{1, 2, 3}), New("b", []float64{4, 5, 6}))
	c := f.Clone()
	c.ByName("a").Set(0, 99)
	if f.ByName("a").At(0) != 99 && f.ByName("a").At(0) != 1 {
		t.Fatal("unexpected")
	}
	if f.ByName("a").At(0) == 99 {
		t.Fatal("Clone shares storage")
	}
}

func TestFrameEmpty(t *testing.T) {
	f := NewFrame()
	if f.Len() != 0 || f.Width() != 0 {
		t.Fatal("empty frame must have zero shape")
	}
}

func mustPanic(t *testing.T, name string, fn func()) {
	t.Helper()
	defer func() {
		if recover() == nil {
			t.Fatalf("%s: expected panic", name)
		}
	}()
	fn()
}
