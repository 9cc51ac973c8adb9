package main

import (
	"errors"
	"fmt"
	"math"
	"sort"
)

// quantile is one reported percentile: its value, the sample count it was
// taken from, and how many samples lie beyond it.
type quantile struct {
	Value   float64 `json:"value"`
	Samples int     `json:"samples"`
	Beyond  int     `json:"beyond"`
}

// minBeyond is the fewest samples that must lie above a reported percentile;
// below it the tail is too thin for the percentile to mean anything.
const minBeyond = 10

var errThinTail = errors.New("fewer than 10 samples beyond the percentile")

// percentile returns the nearest-rank q-quantile of sorted (ascending) and
// refuses when fewer than minBeyond samples lie strictly past its rank.
func percentile(sorted []float64, q float64) (quantile, error) {
	n := len(sorted)
	if n == 0 {
		return quantile{}, errThinTail
	}
	rank := int(math.Ceil(q * float64(n))) // 1-based
	if rank < 1 {
		rank = 1
	}
	if rank > n {
		rank = n
	}
	out := quantile{Value: sorted[rank-1], Samples: n, Beyond: n - rank}
	if out.Beyond < minBeyond {
		return out, errThinTail
	}
	return out, nil
}

// windowedQuantiles splits rows into consecutive windows of width by due
// time (from start) and returns the median across windows of each window's
// q-quantile of metric, the total sample count behind it, and every
// window's quantile in window order. Windows whose tail is too thin for q
// are skipped; at least three must remain.
func windowedQuantiles(rows []rowTimes, start, width int64, q float64, metric func(rowTimes) int64) (float64, int, []float64, error) {
	buckets := map[int64][]float64{}
	for _, r := range rows {
		w := (r.due - start) / width
		buckets[w] = append(buckets[w], float64(metric(r)))
	}
	keys := make([]int64, 0, len(buckets))
	for k := range buckets {
		keys = append(keys, k)
	}
	sort.Slice(keys, func(i, j int) bool { return keys[i] < keys[j] })
	var vals []float64
	n := 0
	for _, k := range keys {
		b := buckets[k]
		sort.Float64s(b)
		v, err := percentile(b, q)
		if err != nil {
			continue
		}
		vals = append(vals, v.Value)
		n += v.Samples
	}
	if len(vals) < 3 {
		return 0, n, vals, fmt.Errorf("%d windows with at least %d samples beyond the q%g percentile, want 3", len(vals), minBeyond, q)
	}
	return median(vals), n, vals, nil
}

// median of unsorted values (the mean of the middle two for an even count).
func median(vals []float64) float64 {
	if len(vals) == 0 {
		return math.NaN()
	}
	s := append([]float64(nil), vals...)
	sort.Float64s(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// rowTimes are one row's clock readings (monotonic ns): when it was due
// under the fixed-rate schedule, when Send accepted it, and when its ack
// arrived.
type rowTimes struct {
	due, sent, ack int64
}

// ackLatency is the coordinated-omission-correct latency: from when the row
// was due, not when it was sent, so a stall that delays sending is charged
// to every row it delayed.
func (r rowTimes) ackLatency() int64 { return r.ack - r.due }

// lateness is how far behind schedule the generator sent the row.
func (r rowTimes) lateness() int64 {
	if r.sent < r.due {
		return 0
	}
	return r.sent - r.due
}

// interval is a half-open time range [start, end).
type interval struct{ start, end int64 }

// unionLength is the total length covered by a set of possibly overlapping
// intervals.
func unionLength(iv []interval) int64 {
	if len(iv) == 0 {
		return 0
	}
	s := append([]interval(nil), iv...)
	sort.Slice(s, func(i, j int) bool { return s[i].start < s[j].start })
	var total int64
	cur := s[0]
	for _, x := range s[1:] {
		if x.start <= cur.end {
			if x.end > cur.end {
				cur.end = x.end
			}
			continue
		}
		total += cur.end - cur.start
		cur = x
	}
	return total + cur.end - cur.start
}

// selfTime is a span's duration minus the part of it its children cover.
// Children are clipped to the parent first, so a child that outlives its
// parent is charged only for the overlap.
func selfTime(parent interval, children []interval) int64 {
	clipped := make([]interval, 0, len(children))
	for _, c := range children {
		if c.start < parent.start {
			c.start = parent.start
		}
		if c.end > parent.end {
			c.end = parent.end
		}
		if c.end > c.start {
			clipped = append(clipped, c)
		}
	}
	return (parent.end - parent.start) - unionLength(clipped)
}

// perRow normalizes a total over a row count (NaN for no rows).
func perRow(total float64, rows int) float64 {
	if rows <= 0 {
		return math.NaN()
	}
	return total / float64(rows)
}

// ledgerLine is one layer's self time per row in the traced ledger.
type ledgerLine struct {
	Layer      string  `json:"layer"`
	NsPerRow   float64 `json:"ns_per_row"`
	Entrypoint string  `json:"entrypoint"`
}

// residual is what the traced end-to-end per-row cost leaves after the
// named layers' self times and the tracing overhead; by construction the
// lines, the overhead and the residual add up to the end-to-end cost.
func residual(e2eNsPerRow, overheadNsPerRow float64, lines []ledgerLine) (sum, rest float64) {
	for _, l := range lines {
		sum += l.NsPerRow
	}
	return sum, e2eNsPerRow - overheadNsPerRow - sum
}
