//go:build amd64

// The pinned hashes hold on amd64 only: arm64 fuses multiply-adds, which
// changes the profile arithmetic's rounding.

package core

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"hash/fnv"
	"math"
	"math/rand/v2"
	"testing"
)

// goldenShape is one seeded feed of TestEngineGoldenFeed and the hashes it
// must produce under each way of driving the engine.
type goldenShape struct {
	name     string
	seed     uint64
	width    int
	cfg      Config
	ticks    int
	missFrom int     // first tick that may drop values
	missing  float64 // long-run share of dropped cells from missFrom on
	run      int     // mean missing-run length
	// want holds the hashes for the goldenModes, in order.
	want [5]string
}

// goldenModes are the ways TestEngineGoldenFeed drives each feed: row by row,
// as TickColumns batches of mixed sizes, with a two-worker pool, with the
// streams declared in a shuffled order and a two-worker pool (rows fed and
// outputs hashed in the feed's order), and through an engine restored from a
// snapshot taken mid-feed.
var goldenModes = [5]string{"tick", "columns", "workers2", "permuted", "restored"}

// goldenFeed generates the shape's rows: per-stream seasonal sines plus noise,
// rounded to two decimals, with bursty missing runs (NaN) from missFrom on.
func (g goldenShape) goldenFeed(seed uint64) [][]float64 {
	state := seed
	next := func() uint64 { // splitmix64
		state += 0x9e3779b97f4a7c15
		z := state
		z = (z ^ z>>30) * 0xbf58476d1ce4e5b9
		z = (z ^ z>>27) * 0x94d049bb133111eb
		return z ^ z>>31
	}
	unit := func() float64 { return float64(next()>>11) / (1 << 53) }
	phase := make([]float64, g.width)
	for j := range phase {
		phase[j] = 2 * math.Pi * unit()
	}
	runLeft := make([]int, g.width)
	rows := make([][]float64, g.ticks)
	for t := range rows {
		row := make([]float64, g.width)
		for j := range row {
			v := 10 + 3*math.Sin(2*math.Pi*float64(t)/288+phase[j]) +
				math.Sin(2*math.Pi*float64(t)/2016+2*phase[j]) + 0.4*(unit()-0.5)
			row[j] = math.Round(100*v) / 100
			if t < g.missFrom {
				continue
			}
			if runLeft[j] == 0 && unit() < g.missing/float64(g.run) {
				runLeft[j] = 1 + int(next()%uint64(2*g.run-1))
			}
			if runLeft[j] > 0 {
				runLeft[j]--
				row[j] = math.NaN()
			}
		}
		rows[t] = row
	}
	return rows
}

// goldenHasher folds completed rows, every Result field and the final Stats
// into one FNV-1a hash.
type goldenHasher struct {
	buf []byte
	sum interface {
		Write([]byte) (int, error)
		Sum64() uint64
	}
}

func (h *goldenHasher) word(v uint64) { h.buf = binary.LittleEndian.AppendUint64(h.buf, v) }

func (h *goldenHasher) float(v float64) { h.word(math.Float64bits(v)) }

func (h *goldenHasher) tick(out []float64, res []*Result) {
	h.buf = h.buf[:0]
	for _, v := range out {
		h.float(v)
	}
	for _, r := range res {
		if r == nil {
			h.word(0)
			continue
		}
		h.word(uint64(len(r.Anchors)) + 1)
		for x, a := range r.Anchors {
			h.word(uint64(a))
			h.float(r.AnchorValues[x])
			h.float(r.Dissimilarities[x])
		}
		h.float(r.Value)
		h.float(r.SumDissimilarity)
		h.float(r.Epsilon)
	}
	h.sum.Write(h.buf)
}

func (h *goldenHasher) finish(s EngineStats) string {
	h.buf = h.buf[:0]
	for _, c := range []int{s.Ticks, s.Imputations, s.ColdStartFills, s.ReferenceErrors, s.InsufficientHist} {
		h.word(uint64(c))
	}
	h.sum.Write(h.buf)
	return fmt.Sprintf("%016x", h.sum.Sum64())
}

// runGolden drives one engine over rows in the given mode and returns its
// hash and final Stats. A capacity above 0 sizes the engine's window backing
// in place of NewEngine's default.
func runGolden(t *testing.T, g goldenShape, rows [][]float64, mode string, capacity int) (string, EngineStats) {
	t.Helper()
	cfg := g.cfg
	// The engine declares stream perm[j] at position j.
	perm := make([]int, g.width)
	for j := range perm {
		perm[j] = j
	}
	switch mode {
	case "workers2":
		cfg.Workers = 2
	case "permuted":
		cfg.Workers = 2
		perm = rand.New(rand.NewPCG(g.seed, 26)).Perm(g.width)
	}
	names := make([]string, g.width)
	for j := range names {
		names[j] = fmt.Sprintf("s%d", perm[j])
	}
	var eng *Engine
	var err error
	if capacity > 0 {
		eng, err = newEngine(cfg, names, nil, capacity)
	} else {
		eng, err = NewEngine(cfg, names, nil)
	}
	if err != nil {
		t.Fatal(err)
	}
	defer func() { eng.Close() }()
	h := &goldenHasher{sum: fnv.New64a()}
	if mode == "columns" {
		sizes := []int{1, 7, 64, 3, 200, 2, 31}
		cols := make(Columns, g.width)
		for t0, b := 0, 0; t0 < len(rows); b++ {
			t1 := min(t0+sizes[b%len(sizes)], len(rows))
			for j := range cols {
				cols[j] = cols[j][:0]
				for _, row := range rows[t0:t1] {
					cols[j] = append(cols[j], row[j])
				}
			}
			out, res, err := eng.TickColumns(cols)
			if err != nil {
				t.Fatal(err)
			}
			row := make([]float64, g.width)
			for x := range res {
				for j := range row {
					row[j] = out[j][x]
				}
				h.tick(row, res[x])
			}
			t0 = t1
		}
		return h.finish(eng.Stats), eng.Stats
	}
	restoreAt := -1
	if mode == "restored" {
		restoreAt = g.cfg.WindowLength + (len(rows)-g.cfg.WindowLength)/3
	}
	in := make([]float64, g.width)
	done := make([]float64, g.width)
	doneRes := make([]*Result, g.width)
	for x, row := range rows {
		if x == restoreAt {
			var img bytes.Buffer
			if err := eng.Snapshot(&img); err != nil {
				t.Fatal(err)
			}
			eng.Close()
			if eng, err = RestoreEngine(&img); err != nil {
				t.Fatal(err)
			}
		}
		for j, s := range perm {
			in[j] = row[s]
		}
		out, res, err := eng.Tick(in)
		if err != nil {
			t.Fatal(err)
		}
		for j, s := range perm {
			done[s], doneRes[s] = out[j], res[j]
		}
		h.tick(done, doneRes)
	}
	return h.finish(eng.Stats), eng.Stats
}

// goldenShapes are the seeded feeds of TestEngineGoldenFeed: the serving
// benchmark's impute and ingest shapes, a small one with gaps from the second
// tick under the default and the naive profiler, and the small one at 35%
// missing ("heavy"), where a stream often lacks d present candidates and is
// cold-filled while other streams of its tick are imputed.
var goldenShapes = []goldenShape{
	{
		name: "impute", seed: 1, width: 16, ticks: 2*4032 + 600, missFrom: 4032, missing: 0.05, run: 8,
		cfg:  Config{K: 5, PatternLength: 72, D: 3, WindowLength: 4032},
		want: [5]string{"b1e4febe7a62f82a", "b1e4febe7a62f82a", "b1e4febe7a62f82a", "b1e4febe7a62f82a", "84d7ba6971120ab9"},
	},
	{
		name: "ingest", seed: 2, width: 64, ticks: 2*1024 + 300, missFrom: 1024, missing: 0.002, run: 1,
		cfg:  Config{K: 5, PatternLength: 72, D: 3, WindowLength: 1024},
		want: [5]string{"054309d897e6ebb3", "054309d897e6ebb3", "054309d897e6ebb3", "054309d897e6ebb3", "524553afd1c07b9a"},
	},
	{
		name: "small", seed: 3, width: 6, ticks: 3 * 512, missFrom: 1, missing: 0.04, run: 4,
		cfg:  Config{K: 5, PatternLength: 24, D: 3, WindowLength: 512},
		want: [5]string{"b56c6230b668a668", "b56c6230b668a668", "b56c6230b668a668", "b56c6230b668a668", "b56c6230b668a668"},
	},
	{
		name: "small-naive", seed: 4, width: 6, ticks: 3 * 512, missFrom: 1, missing: 0.04, run: 4,
		cfg:  Config{K: 5, PatternLength: 24, D: 3, WindowLength: 512, Profiler: ProfilerNaive},
		want: [5]string{"0c1a3deaf66b0a83", "0c1a3deaf66b0a83", "0c1a3deaf66b0a83", "0c1a3deaf66b0a83", "0c1a3deaf66b0a83"},
	},
	{
		name: "heavy", seed: 3, width: 6, ticks: 3 * 512, missFrom: 1, missing: 0.35, run: 4,
		cfg:  Config{K: 5, PatternLength: 24, D: 3, WindowLength: 512},
		want: [5]string{"188add44ab41f644", "188add44ab41f644", "188add44ab41f644", "188add44ab41f644", "8f25c7986b601143"},
	},
}

// TestEngineGoldenFeed pins the engine's output bits on the goldenShapes,
// each driven five ways. The output depends on the rows alone, so the tick,
// columns, workers2 and permuted hashes are equal on every shape. A refactor
// of the engine's storage or kernels must leave every hash unchanged; a
// change that alters rounding on purpose records new hashes.
func TestEngineGoldenFeed(t *testing.T) {
	for _, g := range goldenShapes {
		t.Run(g.name, func(t *testing.T) {
			rows := g.goldenFeed(g.seed)
			for x, mode := range goldenModes {
				got, st := runGolden(t, g, rows, mode, 0)
				t.Logf("%s/%s: %s (%d imputations, %d cold fills, %d reference errors, %d insufficient history)",
					g.name, mode, got, st.Imputations, st.ColdStartFills, st.ReferenceErrors, st.InsufficientHist)
				if got != g.want[x] {
					t.Errorf("%s/%s: hash %s, want %s", g.name, mode, got, g.want[x])
				}
			}
		})
	}
}

// TestGoldenFeedIndependentOfCapacity: the incremental profiler's
// replay-or-rebuild rule reads the window's geometry, never where the window
// backing compacts, and a replay reads at most the l slid-out values every
// backing keeps, so the output bits do not depend on the backing's capacity.
// The impute feed and the small feed, here run for 5L ticks so that it
// crosses many compactions, must hash to their pinned tick hashes under the
// tightest backing (L + l + 1, which compacts on every slide), the served one
// (L + l + L/4), 2L and 3L.
func TestGoldenFeedIndependentOfCapacity(t *testing.T) {
	small := goldenShapes[2]
	small.name, small.ticks, small.want[0] = "small-5L", 5*small.cfg.WindowLength, "21cb34f4893811c5"
	for _, g := range []goldenShape{goldenShapes[0], small} {
		t.Run(g.name, func(t *testing.T) {
			rows := g.goldenFeed(g.seed)
			L, l := g.cfg.WindowLength, g.cfg.PatternLength
			for _, capacity := range []int{L + l + 1, L + l + max(1, L/4), 2 * L, 3 * L} {
				got, _ := runGolden(t, g, rows, "tick", capacity)
				t.Logf("%s at capacity %d: %s", g.name, capacity, got)
				if got != g.want[0] {
					t.Errorf("%s at capacity %d: hash %s, want the pinned tick hash %s", g.name, capacity, got, g.want[0])
				}
			}
		})
	}
}
