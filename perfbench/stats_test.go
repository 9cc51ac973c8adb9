package main

import (
	"errors"
	"math"
	"testing"
)

func seqFloats(n int) []float64 {
	v := make([]float64, n)
	for i := range v {
		v[i] = float64(i + 1)
	}
	return v
}

func TestPercentile(t *testing.T) {
	cases := []struct {
		name       string
		n          int
		q          float64
		want       float64
		wantBeyond int
		thin       bool
	}{
		{"p50 of 100", 100, 0.50, 50, 50, false},
		{"p99 of 1000 leaves exactly 10 beyond", 1000, 0.99, 990, 10, false},
		{"p99 of 999 leaves 9 beyond", 999, 0.99, 990, 9, true},
		{"p99 of 100 is too thin", 100, 0.99, 99, 1, true},
		{"p90 of 100", 100, 0.90, 90, 10, false},
		{"empty", 0, 0.5, 0, 0, true},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			got, err := percentile(seqFloats(c.n), c.q)
			if c.thin != errors.Is(err, errThinTail) {
				t.Fatalf("err = %v, want thin tail %v", err, c.thin)
			}
			if c.n == 0 {
				return
			}
			if got.Value != c.want || got.Beyond != c.wantBeyond || got.Samples != c.n {
				t.Fatalf("got %+v, want value %v beyond %d samples %d", got, c.want, c.wantBeyond, c.n)
			}
		})
	}
}

func TestWindowedQuantile(t *testing.T) {
	const ms = int64(1e6)
	// Three 1-s windows of 1000 rows each; window k's latencies are
	// (k+1)·1..1000 ms, so its p99 is 990·(k+1) ms and the median is 1980.
	var rows []rowTimes
	for k := int64(0); k < 3; k++ {
		for i := int64(1); i <= 1000; i++ {
			due := k*1000*ms + i*ms/2
			rows = append(rows, rowTimes{due: due, sent: due, ack: due + (k+1)*i*ms})
		}
	}
	// A fourth window with too few rows for a p99 is skipped.
	rows = append(rows, rowTimes{due: 3500 * ms, sent: 3500 * ms, ack: 9999 * ms})
	lat := func(r rowTimes) int64 { return r.ackLatency() }
	v, n, wins, err := windowedQuantiles(rows, 0, 1000*ms, 0.99, lat)
	if err != nil {
		t.Fatal(err)
	}
	if v != 1980*float64(ms) || n != 3000 || len(wins) != 3 {
		t.Fatalf("got median %v over %d samples, windows %v", v, n, wins)
	}
	if _, _, _, err := windowedQuantiles(rows[:2000], 0, 1000*ms, 0.99, lat); err == nil {
		t.Fatal("two usable windows: want an error")
	}
}

func TestRowTimes(t *testing.T) {
	cases := []struct {
		name              string
		r                 rowTimes
		wantLat, wantLate int64
	}{
		{"on time", rowTimes{due: 100, sent: 100, ack: 350}, 250, 0},
		// A stalled sender: the row waited 400 ns before it was even sent,
		// and latency charges that wait (coordinated omission).
		{"sent late", rowTimes{due: 100, sent: 500, ack: 600}, 500, 400},
		{"sent early", rowTimes{due: 100, sent: 90, ack: 200}, 100, 0},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			if got := c.r.ackLatency(); got != c.wantLat {
				t.Errorf("ackLatency = %d, want %d", got, c.wantLat)
			}
			if got := c.r.lateness(); got != c.wantLate {
				t.Errorf("lateness = %d, want %d", got, c.wantLate)
			}
		})
	}
}

func TestSelfTime(t *testing.T) {
	cases := []struct {
		name     string
		parent   interval
		children []interval
		want     int64
	}{
		{"no children", interval{0, 100}, nil, 100},
		{"disjoint children", interval{0, 100}, []interval{{10, 20}, {30, 50}}, 70},
		{"overlapping children count once", interval{0, 100}, []interval{{10, 40}, {30, 60}, {35, 45}}, 50},
		{"identical children", interval{0, 100}, []interval{{10, 20}, {10, 20}}, 90},
		{"children clipped to the parent", interval{50, 100}, []interval{{0, 60}, {90, 200}}, 30},
		{"child outside the parent", interval{0, 10}, []interval{{20, 30}}, 10},
		{"children cover the parent", interval{0, 10}, []interval{{0, 6}, {5, 10}}, 0},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			if got := selfTime(c.parent, c.children); got != c.want {
				t.Fatalf("selfTime = %d, want %d", got, c.want)
			}
		})
	}
}

func TestUnionLength(t *testing.T) {
	cases := []struct {
		iv   []interval
		want int64
	}{
		{nil, 0},
		{[]interval{{0, 10}}, 10},
		{[]interval{{20, 30}, {0, 10}}, 20},
		{[]interval{{0, 10}, {10, 20}}, 20},
		{[]interval{{0, 30}, {5, 10}, {25, 40}}, 40},
	}
	for _, c := range cases {
		if got := unionLength(c.iv); got != c.want {
			t.Errorf("unionLength(%v) = %d, want %d", c.iv, got, c.want)
		}
	}
}

func TestResidualAndPerRow(t *testing.T) {
	lines := []ledgerLine{{Layer: "a", NsPerRow: 30}, {Layer: "b", NsPerRow: 45.5}}
	cases := []struct {
		e2e, overhead, wantSum, wantRest float64
	}{
		{100, 0, 75.5, 24.5},
		{100, 4.5, 75.5, 20}, // the spans' own cost is not charged to the residual
		{75.5, 0, 75.5, 0},
		{50, 0, 75.5, -25.5}, // replays costlier than the served path: negative residual
	}
	for _, c := range cases {
		sum, rest := residual(c.e2e, c.overhead, lines)
		if sum != c.wantSum || rest != c.wantRest || sum+c.overhead+rest != c.e2e {
			t.Errorf("residual(%v, %v) = %v, %v; want %v, %v", c.e2e, c.overhead, sum, rest, c.wantSum, c.wantRest)
		}
	}
	if got := perRow(1000, 8); got != 125 {
		t.Errorf("perRow(1000, 8) = %v", got)
	}
	if got := perRow(1000, 0); !math.IsNaN(got) {
		t.Errorf("perRow over no rows = %v, want NaN", got)
	}
}

func TestWindowRates(t *testing.T) {
	s := []tickSample{
		{at: 0, cpu: 0, acked: 0},
		{at: 5e8, cpu: 1e6, acked: 100},  // 200 rows/s, 10 µs CPU per row
		{at: 1e9, cpu: 1e6, acked: 100},  // no acks: skipped
		{at: 2e9, cpu: 5e6, acked: 1100}, // 1000 rows/s, 4 µs per row
	}
	rates, cpu := windowRates(s)
	if len(rates) != 2 || rates[0] != 200 || rates[1] != 1000 {
		t.Fatalf("rates = %v", rates)
	}
	if cpu[0] != 1e4 || cpu[1] != 4e3 {
		t.Fatalf("cpu per row = %v", cpu)
	}
}

func TestMedian(t *testing.T) {
	if got := median([]float64{3, 1, 2}); got != 2 {
		t.Errorf("odd median = %v", got)
	}
	if got := median([]float64{4, 1, 3, 2}); got != 2.5 {
		t.Errorf("even median = %v", got)
	}
	if !math.IsNaN(median(nil)) {
		t.Error("empty median should be NaN")
	}
}

func TestGeneratorIsPureAndShaped(t *testing.T) {
	w, err := lookupWorkload("impute")
	if err != nil {
		t.Fatal(err)
	}
	a, b, other := w.newGen(7), w.newGen(7), w.newGen(8)
	ra, rb, ro := make([]float64, w.streams), make([]float64, w.streams), make([]float64, w.streams)
	missing, cells, differ := 0, 0, 0
	for seq := uint64(1); seq <= 40000; seq++ {
		a.row(1, seq, ra)
		b.row(1, seq, rb)
		other.row(1, seq, ro)
		for j := range ra {
			if math.Float64bits(ra[j]) != math.Float64bits(rb[j]) {
				t.Fatalf("seq %d stream %d: same seed, different value", seq, j)
			}
			if seq <= uint64(w.warm) && math.IsNaN(ra[j]) {
				t.Fatalf("warm-up row %d has a missing cell", seq)
			}
			if seq > uint64(w.warm) {
				cells++
				if math.IsNaN(ra[j]) {
					missing++
				}
			}
			if ra[j] != ro[j] {
				differ++
			}
		}
	}
	if share := float64(missing) / float64(cells); math.Abs(share-w.missing) > 0.01 {
		t.Errorf("missing share %.4f, want about %.2f", share, w.missing)
	}
	if differ == 0 {
		t.Error("another seed drew the same realization")
	}
}

func TestSplitLines(t *testing.T) {
	got := splitLines("5,6]]}\n{\"a\":1}\n\n{\"b\":[2]}\n{\"c\":")
	if len(got) != 2 || string(got[0]) != `{"a":1}` || string(got[1]) != `{"b":[2]}` {
		t.Fatalf("splitLines = %q", got)
	}
}

func TestTenantIDsAlternateShards(t *testing.T) {
	for i := 0; i < 8; i++ {
		id := tenantID(i)
		if tenantIndex(id) != i {
			t.Fatalf("tenantIndex(%q) = %d, want %d", id, tenantIndex(id), i)
		}
	}
	if tenantIndex("zz-other") != -1 {
		t.Fatal("foreign id should not parse")
	}
}
