package client

import (
	"encoding/json"
	"fmt"
	"math"
	"math/rand/v2"
	"testing"

	"tkcm/internal/wire"
)

// TestEncodeMatchesJSON pins the client's input lines to encoding/json's
// bytes for the same line (null for NaN), and checks that the server's
// parser reads every value back bit for bit on its fast path.
func TestEncodeMatchesJSON(t *testing.T) {
	rows := []pendingRow{
		{values: []float64{23.47, math.NaN(), -273.15, 0, 1e6, 1e-5, 1e-7}},
		{values: []float64{1e21, 1e20, math.Copysign(0, -1), 123456789.123456, math.Pi, 5e-324, -1e-6}},
	}
	nulls := func(vals []float64) []*float64 {
		out := make([]*float64, len(vals))
		for i := range vals {
			if !math.IsNaN(vals[i]) {
				out[i] = &vals[i]
			}
		}
		return out
	}
	type rowLine struct {
		Seq    uint64     `json:"seq,omitempty"`
		Values []*float64 `json:"values"`
	}
	type batchLine struct {
		Seq  uint64       `json:"seq,omitempty"`
		Rows [][]*float64 `json:"rows"`
	}
	check := func(got []byte, line any, want [][]float64) {
		t.Helper()
		js, err := json.Marshal(line)
		if err != nil {
			t.Fatal(err)
		}
		if string(got) != string(js)+"\n" {
			t.Fatalf("encoded\n %s\nencoding/json\n %s", got, js)
		}
		var in wire.TickIn
		if !wire.ParseTickIn(got[:len(got)-1], &in) {
			t.Fatalf("ParseTickIn refused %s", got)
		}
		read := in.Rows
		if in.HasValues {
			read = [][]float64{in.Values}
		}
		for j := range want {
			for i, v := range want[j] {
				if math.Float64bits(read[j][i]) != math.Float64bits(v) && !(math.IsNaN(v) && math.IsNaN(read[j][i])) {
					t.Fatalf("row %d value %d read back as %v, sent %v", j, i, read[j][i], v)
				}
			}
		}
	}
	for _, seq := range []uint64{0, 42} {
		for _, r := range rows {
			check(encodeRow(nil, seq, r.values), rowLine{seq, nulls(r.values)}, [][]float64{r.values})
		}
		batch := batchLine{Seq: seq}
		var want [][]float64
		for _, r := range rows {
			batch.Rows = append(batch.Rows, nulls(r.values))
			want = append(want, r.values)
		}
		check(encodeBatch(nil, seq, rows), batch, want)
	}
}

// BenchmarkEncodeRows times the client's row encoder on batch lines of 64
// rows at the impute (16 streams) and ingest (64 streams) widths. Readings
// are quantized to 0.01, as perfbench's feeds and the paper's sensor
// streams are, and one in 50 is missing.
func BenchmarkEncodeRows(b *testing.B) {
	for _, width := range []int{16, 64} {
		rng := rand.New(rand.NewPCG(24, uint64(width)))
		rows := make([]pendingRow, 64)
		for j := range rows {
			vals := make([]float64, width)
			for i := range vals {
				vals[i] = math.Round(100*(20+5*math.Sin(float64(j+i))+rng.NormFloat64())) / 100
				if rng.IntN(50) == 0 {
					vals[i] = math.NaN()
				}
			}
			rows[j] = pendingRow{seq: uint64(1000 + j), values: vals}
		}
		b.Run(fmt.Sprintf("64x%d", width), func(b *testing.B) {
			var buf []byte
			allocs := testing.AllocsPerRun(10, func() { buf = encodeBatch(buf[:0], rows[0].seq, rows) })
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				buf = encodeBatch(buf[:0], rows[0].seq, rows)
			}
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*len(rows)), "ns/row")
			b.ReportMetric(allocs/float64(len(rows)), "allocs/row")
		})
	}
}
