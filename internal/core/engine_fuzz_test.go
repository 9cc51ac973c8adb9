package core

import (
	"encoding/binary"
	"math"
	"testing"
)

// FuzzEngineTick hardens the engine against hostile rows at the service
// boundary: arbitrary widths (wrong-width rows must be rejected without
// state changes), ±Inf (rejected), NaN (missing marker, imputed or
// cold-filled), and arbitrary bit patterns. The engine must never panic, a
// rejected row must leave the tick counter untouched, and an accepted row
// must come back fully finite.
func FuzzEngineTick(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte{4, 0, 0, 0, 0, 0, 0, 0, 0x3f, 1, 2, 3})
	// One Inf, one NaN, one negative zero among plain values.
	seed := make([]byte, 0, 2+5*8)
	seed = append(seed, 4)
	for _, v := range []float64{math.Inf(1), math.NaN(), math.Copysign(0, -1), 3.5} {
		seed = binary.LittleEndian.AppendUint64(seed, math.Float64bits(v))
	}
	f.Add(seed)

	f.Fuzz(func(t *testing.T, data []byte) {
		const width = 4
		cfg := Config{K: 2, PatternLength: 3, D: 2, WindowLength: 16}
		eng, err := NewEngine(cfg, []string{"a", "b", "c", "d"}, nil)
		if err != nil {
			t.Fatal(err)
		}
		// Warm the window with clean rows so imputation paths actually run.
		for tk := 0; tk < 20; tk++ {
			row := make([]float64, width)
			for i := range row {
				row[i] = math.Sin(float64(tk)/3 + float64(i))
			}
			if _, _, err := eng.Tick(row); err != nil {
				t.Fatalf("warmup tick %d: %v", tk, err)
			}
		}

		for len(data) > 0 {
			// First byte picks the row width (0..8); the rest supplies value
			// bits, zero-padded when the input runs dry.
			n := int(data[0] % 9)
			data = data[1:]
			row := make([]float64, n)
			for i := range row {
				var bits uint64
				if len(data) >= 8 {
					bits = binary.LittleEndian.Uint64(data)
					data = data[8:]
				} else {
					for j, b := range data {
						bits |= uint64(b) << (8 * j)
					}
					data = nil
				}
				row[i] = math.Float64frombits(bits)
			}

			before := eng.Stats.Ticks
			wantErr := n != width
			for _, v := range row {
				if math.IsInf(v, 0) {
					wantErr = true
				}
			}
			out, _, err := eng.Tick(row)
			if wantErr {
				if err == nil {
					t.Fatalf("row %v (len %d) accepted, want rejection", row, n)
				}
				if eng.Stats.Ticks != before {
					t.Fatalf("rejected row advanced the tick counter %d -> %d", before, eng.Stats.Ticks)
				}
				continue
			}
			if err != nil {
				t.Fatalf("valid row %v rejected: %v", row, err)
			}
			if eng.Stats.Ticks != before+1 {
				t.Fatalf("accepted row moved tick counter %d -> %d", before, eng.Stats.Ticks)
			}
			for i, v := range out {
				if math.IsNaN(v) || math.IsInf(v, 0) {
					t.Fatalf("completed row[%d] = %v not finite (in %v)", i, v, row)
				}
			}
		}
	})
}

// FuzzEngineTickColumns is the columnar twin of FuzzEngineTick: for an
// arbitrary fuzz-chosen missing pattern — including ticks where every stream
// is missing at once — TickColumns must produce bit-identical outputs,
// Results (nil where no TKCM imputation ran) and statistics to feeding the
// same rows through sequential Tick calls, and so must a two-worker engine
// and an engine whose streams are declared in reverse order: the output
// depends on the rows alone.
func FuzzEngineTickColumns(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte{0x0f, 0xff, 0x00, 0x3c, 0xa5})
	f.Add([]byte{0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff})

	f.Fuzz(func(t *testing.T, data []byte) {
		const width = 4
		cfg := Config{K: 2, PatternLength: 3, D: 2, WindowLength: 16}
		refs := map[string]ReferenceSet{
			"a": {Stream: "a", Candidates: []string{"c", "d"}},
			"b": {Stream: "b", Candidates: []string{"c", "d"}},
		}
		names := []string{"a", "b", "c", "d"}
		// The sequential engines, each fed whole rows: serial, pooled, and
		// declared as d, c, b, a.
		type seqEngine struct {
			label string
			eng   *Engine
			perm  []int // the engine declares stream perm[j] at position j
		}
		newSeq := func(label string, c Config, perm []int) seqEngine {
			declared := make([]string, width)
			for j, s := range perm {
				declared[j] = names[s]
			}
			eng, err := NewEngine(c, declared, map[string]ReferenceSet{"a": refs["a"], "b": refs["b"]})
			if err != nil {
				t.Fatal(err)
			}
			t.Cleanup(eng.Close)
			return seqEngine{label, eng, perm}
		}
		pooled := cfg
		pooled.Workers = 2
		seqs := []seqEngine{
			newSeq("sequential", cfg, []int{0, 1, 2, 3}),
			newSeq("pooled", pooled, []int{0, 1, 2, 3}),
			newSeq("reverse-declared", cfg, []int{3, 2, 1, 0}),
		}
		// tickAll feeds row to every sequential engine and returns their
		// completed rows and Results in the feed's stream order.
		tickAll := func(row []float64) ([][]float64, [][]*Result) {
			in := make([]float64, width)
			outs := make([][]float64, len(seqs))
			ress := make([][]*Result, len(seqs))
			for x, se := range seqs {
				for j, s := range se.perm {
					in[j] = row[s]
				}
				out, res, err := se.eng.Tick(in)
				if err != nil {
					t.Fatalf("%s: %v", se.label, err)
				}
				outs[x] = make([]float64, width)
				ress[x] = make([]*Result, width)
				for j, s := range se.perm {
					outs[x][s], ress[x][s] = out[j], res[j]
				}
			}
			return outs, ress
		}
		colEng, err := NewEngine(cfg, names, refs)
		if err != nil {
			t.Fatal(err)
		}
		// Warm every engine identically, then build one batch whose missing
		// pattern comes from the fuzz input: each input byte masks one tick
		// (bit i set = stream i missing; 0b1111 = entirely missing tick).
		row := make([]float64, width)
		for tk := 0; tk < 20; tk++ {
			for i := range row {
				row[i] = math.Sin(float64(tk)/3 + float64(i))
			}
			if _, _, err := colEng.Tick(row); err != nil {
				t.Fatal(err)
			}
			tickAll(row)
		}
		n := len(data)
		if n > 64 {
			n = 64
		}
		cols := make(Columns, width)
		for i := range cols {
			cols[i] = make([]float64, n)
		}
		for tk := 0; tk < n; tk++ {
			for i := 0; i < width; i++ {
				cols[i][tk] = math.Sin(float64(20+tk)/3+float64(i)) + float64(data[tk]>>4)/31
				if data[tk]&(1<<i) != 0 {
					cols[i][tk] = math.NaN()
				}
			}
		}
		out, res, err := colEng.TickColumns(cols)
		if err != nil {
			t.Fatalf("TickColumns: %v", err)
		}
		for tk := 0; tk < n; tk++ {
			for i := 0; i < width; i++ {
				row[i] = cols[i][tk]
			}
			outs, ress := tickAll(row)
			for x, se := range seqs {
				for i := 0; i < width; i++ {
					if math.Float64bits(out[i][tk]) != math.Float64bits(outs[x][i]) {
						t.Fatalf("tick %d stream %s: columnar %v != %s %v (mask %#x)",
							tk, names[i], out[i][tk], se.label, outs[x][i], data[tk])
					}
					if !sameResult(res[tk][i], ress[x][i]) {
						t.Fatalf("tick %d stream %s: columnar result %+v != %s %+v (mask %#x)",
							tk, names[i], res[tk][i], se.label, ress[x][i], data[tk])
					}
				}
			}
		}
		for _, se := range seqs {
			if colEng.Stats != se.eng.Stats {
				t.Fatalf("stats diverged: columnar %+v, %s %+v", colEng.Stats, se.label, se.eng.Stats)
			}
		}
	})
}
