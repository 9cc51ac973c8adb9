// Package timeseries provides the core time-series primitives used across
// the TKCM reproduction: regularly sampled series with explicit missing
// values, aligned multi-series frames, and utilities for describing and
// manipulating gaps.
//
// A missing value (the paper's NIL) is represented as an IEEE-754 NaN so a
// series is a flat []float64 with no side-band bitmap. All helpers in this
// package treat any NaN as missing.
package timeseries

import (
	"fmt"
	"math"
	"time"
)

// Missing is the canonical missing-value marker (NaN). Any NaN is treated
// as missing; Missing is provided so call sites read as intent.
var Missing = math.NaN()

// IsMissing reports whether v denotes a missing measurement.
func IsMissing(v float64) bool { return math.IsNaN(v) }

// Sampling describes the regular time grid of a stream: the wall-clock time
// of tick 0 and the fixed interval between consecutive ticks. The paper's
// datasets use 5-minute (SBR, Chlorine) and 1-minute (Flights) intervals.
type Sampling struct {
	Start    time.Time
	Interval time.Duration
}

// TicksPerDay returns the number of ticks covering 24 hours, or 0 if the
// interval is non-positive.
func (sp Sampling) TicksPerDay() int {
	if sp.Interval <= 0 {
		return 0
	}
	return int(24 * time.Hour / sp.Interval)
}

// Series is a regularly sampled stream of measurements. Values[i] is the
// measurement at tick i; NaN marks a missing measurement. The zero value is
// an empty, unnamed series ready to append to.
type Series struct {
	Name     string
	Sampling Sampling
	Values   []float64
}

// New returns a named series with the given values. The slice is used
// directly (not copied).
func New(name string, values []float64) *Series {
	return &Series{Name: name, Values: values}
}

// NewEmpty returns a named series of length n with every value missing.
func NewEmpty(name string, n int) *Series {
	v := make([]float64, n)
	for i := range v {
		v[i] = Missing
	}
	return &Series{Name: name, Values: v}
}

// Len returns the number of ticks in the series.
func (s *Series) Len() int { return len(s.Values) }

// At returns the value at tick i.
func (s *Series) At(i int) float64 { return s.Values[i] }

// Set assigns the value at tick i.
func (s *Series) Set(i int, v float64) { s.Values[i] = v }

// MissingAt reports whether the value at tick i is missing.
func (s *Series) MissingAt(i int) bool { return IsMissing(s.Values[i]) }

// Append adds a measurement at the end of the series.
func (s *Series) Append(v float64) { s.Values = append(s.Values, v) }

// Clone returns a deep copy of the series.
func (s *Series) Clone() *Series {
	v := make([]float64, len(s.Values))
	copy(v, s.Values)
	return &Series{Name: s.Name, Sampling: s.Sampling, Values: v}
}

// Slice returns a view of ticks [from, to) sharing the underlying storage.
func (s *Series) Slice(from, to int) *Series {
	return &Series{Name: s.Name, Sampling: s.Sampling, Values: s.Values[from:to]}
}

// CountMissing returns the number of missing values in the series.
func (s *Series) CountMissing() int {
	n := 0
	for _, v := range s.Values {
		if IsMissing(v) {
			n++
		}
	}
	return n
}

// Complete reports whether the series has no missing values.
func (s *Series) Complete() bool { return s.CountMissing() == 0 }

// Gap describes a maximal run of consecutive missing values:
// ticks [Start, Start+Length).
type Gap struct {
	Start  int
	Length int
}

// End returns the first tick after the gap.
func (g Gap) End() int { return g.Start + g.Length }

// Gaps returns all maximal runs of missing values, in order.
func (s *Series) Gaps() []Gap {
	var gaps []Gap
	i := 0
	for i < len(s.Values) {
		if !IsMissing(s.Values[i]) {
			i++
			continue
		}
		start := i
		for i < len(s.Values) && IsMissing(s.Values[i]) {
			i++
		}
		gaps = append(gaps, Gap{Start: start, Length: i - start})
	}
	return gaps
}

// EraseBlock marks ticks [from, from+length) missing and returns the erased
// values so callers (e.g. the experiment harness) can later compute errors
// against the ground truth. It panics if the block is out of range.
func (s *Series) EraseBlock(from, length int) []float64 {
	if from < 0 || from+length > len(s.Values) {
		panic(fmt.Sprintf("timeseries: erase block [%d,%d) out of range [0,%d)", from, from+length, len(s.Values)))
	}
	erased := make([]float64, length)
	copy(erased, s.Values[from:from+length])
	for i := from; i < from+length; i++ {
		s.Values[i] = Missing
	}
	return erased
}

// Shift returns a copy of the series circularly shifted right by delta ticks
// (delta may be negative). A shift models the paper's SBR-1d construction
// where each reference series is displaced by up to one day.
func (s *Series) Shift(delta int) *Series {
	n := len(s.Values)
	out := make([]float64, n)
	if n > 0 {
		delta = ((delta % n) + n) % n
		for i := 0; i < n; i++ {
			out[(i+delta)%n] = s.Values[i]
		}
	}
	return &Series{Name: s.Name, Sampling: s.Sampling, Values: out}
}

// Frame is an ordered collection of equally long, time-aligned series — the
// paper's set S of streaming time series.
type Frame struct {
	Sampling Sampling
	Series   []*Series
	index    map[string]int
}

// NewFrame builds a frame from the given series. All series must have the
// same length; NewFrame panics otherwise, since misaligned streams are a
// programming error in this codebase.
func NewFrame(series ...*Series) *Frame {
	f := &Frame{index: make(map[string]int, len(series))}
	for _, s := range series {
		f.Add(s)
	}
	return f
}

// Add appends a series to the frame.
func (f *Frame) Add(s *Series) {
	if len(f.Series) > 0 && s.Len() != f.Series[0].Len() {
		panic(fmt.Sprintf("timeseries: series %q has length %d, frame has %d", s.Name, s.Len(), f.Series[0].Len()))
	}
	if f.index == nil {
		f.index = make(map[string]int)
	}
	if _, dup := f.index[s.Name]; dup {
		panic(fmt.Sprintf("timeseries: duplicate series name %q", s.Name))
	}
	if len(f.Series) == 0 && f.Sampling.Interval == 0 {
		f.Sampling = s.Sampling
	}
	f.index[s.Name] = len(f.Series)
	f.Series = append(f.Series, s)
}

// Len returns the number of ticks common to all series (0 for an empty frame).
func (f *Frame) Len() int {
	if len(f.Series) == 0 {
		return 0
	}
	return f.Series[0].Len()
}

// Width returns the number of series in the frame.
func (f *Frame) Width() int { return len(f.Series) }

// ByName returns the series with the given name, or nil if absent.
func (f *Frame) ByName(name string) *Series {
	if i, ok := f.index[name]; ok {
		return f.Series[i]
	}
	return nil
}

// IndexOf returns the position of the named series, or -1 if absent.
func (f *Frame) IndexOf(name string) int {
	if i, ok := f.index[name]; ok {
		return i
	}
	return -1
}

// Names returns the series names in frame order.
func (f *Frame) Names() []string {
	names := make([]string, len(f.Series))
	for i, s := range f.Series {
		names[i] = s.Name
	}
	return names
}

// Row returns the values of every series at tick i, in frame order.
func (f *Frame) Row(i int) []float64 {
	row := make([]float64, len(f.Series))
	for j, s := range f.Series {
		row[j] = s.Values[i]
	}
	return row
}

// Clone returns a deep copy of the frame.
func (f *Frame) Clone() *Frame {
	out := &Frame{Sampling: f.Sampling, index: make(map[string]int, len(f.Series))}
	for _, s := range f.Series {
		out.index[s.Name] = len(out.Series)
		out.Series = append(out.Series, s.Clone())
	}
	return out
}
