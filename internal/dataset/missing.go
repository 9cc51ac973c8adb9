package dataset

import (
	"fmt"

	"tkcm/internal/timeseries"
)

// Block identifies a missing block injected into a series: which series, and
// the erased ground truth at ticks [Start, Start+len(Truth)).
type Block struct {
	Series string
	Start  int
	Truth  []float64
}

// End returns the first tick after the block.
func (b Block) End() int { return b.Start + len(b.Truth) }

// Len returns the number of erased ticks.
func (b Block) Len() int { return len(b.Truth) }

// InjectBlock erases ticks [start, start+length) of the named series in the
// frame (in place) and returns the ground truth. It mirrors the paper's
// experimental protocol: simulate a sensor failure of a given duration and
// impute each value in the block (Sec. 7).
func InjectBlock(f *timeseries.Frame, series string, start, length int) (Block, error) {
	s := f.ByName(series)
	if s == nil {
		return Block{}, fmt.Errorf("dataset: unknown series %q", series)
	}
	if start < 0 || start+length > s.Len() {
		return Block{}, fmt.Errorf("dataset: block [%d,%d) out of range [0,%d)", start, start+length, s.Len())
	}
	truth := s.EraseBlock(start, length)
	return Block{Series: series, Start: start, Truth: truth}, nil
}
