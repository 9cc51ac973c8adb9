package wire

import (
	"encoding/json"
	"math"
	"math/rand/v2"
	"strconv"
	"testing"
)

// jsonTickIn mirrors the server's tickIn decode target.
type jsonTickIn struct {
	Seq    uint64       `json:"seq"`
	Values []*float64   `json:"values"`
	Rows   [][]*float64 `json:"rows"`
}

// jsonAck mirrors the client's serverLine decode target.
type jsonAck struct {
	Tick      int       `json:"tick"`
	Seq       uint64    `json:"seq"`
	Values    []float64 `json:"values"`
	Imputed   []int     `json:"imputed"`
	Duplicate bool      `json:"duplicate"`
	Error     string    `json:"error"`
	Retry     bool      `json:"retry"`
}

// checkTickInAgainstJSON enforces the fast path's contract on one line: it
// may reject anything (the caller falls back), but when it accepts, the line
// must also be valid for encoding/json and both decodes must agree.
func checkTickInAgainstJSON(t *testing.T, line string, in *TickIn) {
	t.Helper()
	fastOK := ParseTickIn([]byte(line), in)
	var ref jsonTickIn
	jsonErr := json.Unmarshal([]byte(line), &ref)
	if !fastOK {
		return
	}
	if jsonErr != nil {
		t.Fatalf("fast path accepted %q which encoding/json rejects: %v", line, jsonErr)
	}
	if in.Seq != ref.Seq {
		t.Fatalf("%q: seq %d, json %d", line, in.Seq, ref.Seq)
	}
	if in.HasValues != (ref.Values != nil) {
		t.Fatalf("%q: HasValues %v, json values nil=%v", line, in.HasValues, ref.Values == nil)
	}
	if in.HasRows != (ref.Rows != nil) {
		t.Fatalf("%q: HasRows %v, json rows nil=%v", line, in.HasRows, ref.Rows == nil)
	}
	if in.HasValues {
		if len(in.Values) != len(ref.Values) {
			t.Fatalf("%q: %d values, json %d", line, len(in.Values), len(ref.Values))
		}
		for i, v := range in.Values {
			checkSameValue(t, line, v, ref.Values[i])
		}
	}
	if in.HasRows {
		if len(in.Rows) != len(ref.Rows) {
			t.Fatalf("%q: %d rows, json %d", line, len(in.Rows), len(ref.Rows))
		}
		for j, row := range in.Rows {
			if len(row) != len(ref.Rows[j]) {
				t.Fatalf("%q row %d: %d values, json %d", line, j, len(row), len(ref.Rows[j]))
			}
			for i, v := range row {
				checkSameValue(t, line, v, ref.Rows[j][i])
			}
		}
	}
}

func checkSameValue(t *testing.T, line string, fast float64, ref *float64) {
	t.Helper()
	if ref == nil {
		if !math.IsNaN(fast) {
			t.Fatalf("%q: fast %v for json null", line, fast)
		}
		return
	}
	if math.Float64bits(fast) != math.Float64bits(*ref) {
		t.Fatalf("%q: fast %v, json %v", line, fast, *ref)
	}
}

// numberEdges are the number scanner's fast-path edges: signed zeros, the
// 15/16-digit and 16/17-byte bounds, 22/23 fraction digits, exponent forms
// next to their plain spelling, and fractions with leading zeros.
var numberEdges = []string{
	"-0", "-0.0", "0", "0.000", "-0.00000000000000000000000",
	"0.000001", "0.0000001", "-0.000001",
	"1234567890.12345", "1234567890.123456", "-12345678.123456", "-123456789.123456",
	"-123456789012345", "-1234567890123456",
	"123456789012345", "1234567890123456", "9007199254740993", "9007199254740992",
	"99999999.9999999", "999999999999999", "1000000000000000",
	"0.000123456789012345", "0.0001234567890123456",
	"0.1234567890123456789012", "0.0000000000000000000001", "0.00000000000000000000001",
	"0.0000000123456789012345", "0.00000001234567890123456",
	"1E2", "100", "1e2", "100.0", "1.000000000000000",
	"0.05", "0.0047", "-0.001", "0.1", "0.3", "20.470000", "23.47", "-273.15",
	"5e-324", "1.7976931348623157e308", "2.2250738585072014e-308",
}

// TestNumberMatchesParseFloat pins the scanner's value to ParseFloat's bits
// on every fast-path edge, and that it consumes the whole token.
func TestNumberMatchesParseFloat(t *testing.T) {
	for _, tok := range numberEdges {
		want, err := strconv.ParseFloat(tok, 64)
		if err != nil {
			t.Fatalf("%q: %v", tok, err)
		}
		p := parser{b: []byte(tok)}
		got, ok := p.float()
		if !ok || p.i != len(tok) {
			t.Fatalf("%q: ok=%v, consumed %d of %d bytes", tok, ok, p.i, len(tok))
		}
		if math.Float64bits(got) != math.Float64bits(want) {
			t.Fatalf("%q: scanned %v (%#x), ParseFloat %v (%#x)",
				tok, got, math.Float64bits(got), want, math.Float64bits(want))
		}
	}
}

// tickInCorpus exercises both accepted shapes and every rejection trigger.
var tickInCorpus = []string{
	`{"seq":1,"values":[20.5,null,19.25]}`,
	`{"values":[1,2,3],"seq":42}`,
	`{"seq":18446744073709551615,"values":[0]}`,
	`{"seq":7,"values":[]}`,
	`{"seq":7,"values":null}`,
	`{"values":[-0.5,1e3,2.5e-4,0.0,1E+2]}`,
	`{"seq":3,"rows":[[1,2],[null,4],[5,null]]}`,
	`{"rows":[]}`,
	`{"rows":[[]]}`,
	`{"rows":null}`,
	`{"seq":1,"values":[1],"rows":[[2]]}`, // both set: fast may accept, shapes agree
	`{}`,
	`  { "seq" : 2 , "values" : [ 1 , null ] }  `,
	// The number scanner's fast-path edges (numberEdges):
	`{"values":[-0,-0.0,0.000001,0.0000001,-0.000001]}`,
	`{"values":[123456789012345,1234567890123456,9007199254740993,99999999.9999999]}`,
	`{"values":[0.000123456789012345,0.0001234567890123456]}`,
	`{"values":[0.0000000000000000000001,0.00000000000000000000001]}`,
	`{"values":[0.0000000123456789012345,0.00000001234567890123456]}`,
	`{"rows":[[1E2,100,1e2,100.0],[0.05,0.0047,-0.001,20.470000]]}`,
	// Rejections (fall back to encoding/json):
	`{"seq":1,"values":[1],"extra":true}`,
	`{"seq":-1,"values":[1]}`,
	`{"seq":1.5,"values":[1]}`,
	`{"seq":1e2,"values":[1]}`,
	`{"seq":01,"values":[1]}`,
	`{"values":[+1]}`,
	`{"values":[.5]}`,
	`{"values":[1.]}`,
	`{"values":[0x1p3]}`,
	`{"values":[1_0]}`,
	`{"values":[Infinity]}`,
	`{"values":[NaN]}`,
	`{"values":[1e999]}`,
	`{"values":[1,]}`,
	`{"values":[01]}`,
	`{"values":["1"]}`,
	`{"se\u0071":1}`,
	`{"seq":1}trailing`,
	`[1,2,3]`,
	`null`,
	``,
	`{`,
	`{"values":[1}`,
	`{"rows":[[1],]}`,
	`{"rows":[1]}`,
}

func TestParseTickInMatchesJSON(t *testing.T) {
	var in TickIn
	for _, line := range tickInCorpus {
		checkTickInAgainstJSON(t, line, &in)
	}
}

// TestParseTickInAcceptsHotShapes pins that the two lines the client
// actually emits take the fast path — a silent fall-through to
// encoding/json would be a performance regression with no functional
// symptom.
func TestParseTickInAcceptsHotShapes(t *testing.T) {
	var in TickIn
	if !ParseTickIn([]byte(`{"seq":9,"values":[20.5,null,19.25]}`), &in) {
		t.Fatal("single-row line missed the fast path")
	}
	if in.Seq != 9 || !in.HasValues || len(in.Values) != 3 || !math.IsNaN(in.Values[1]) {
		t.Fatalf("bad decode: %+v", in)
	}
	if !ParseTickIn([]byte(`{"seq":10,"rows":[[1,2],[null,3.5]]}`), &in) {
		t.Fatal("batch line missed the fast path")
	}
	if in.Seq != 10 || !in.HasRows || len(in.Rows) != 2 || !math.IsNaN(in.Rows[1][0]) {
		t.Fatalf("bad batch decode: %+v", in)
	}
}

// TestParseTickInReusesScratch pins the zero-alloc property of the hot loop.
func TestParseTickInReusesScratch(t *testing.T) {
	var in TickIn
	line := []byte(`{"seq":10,"rows":[[1,2],[null,3.5],[4,5]]}`)
	if !ParseTickIn(line, &in) {
		t.Fatal("batch line missed the fast path")
	}
	allocs := testing.AllocsPerRun(100, func() {
		if !ParseTickIn(line, &in) {
			t.Fatal("fast path lost")
		}
	})
	if allocs != 0 {
		t.Fatalf("warm ParseTickIn allocates %v per line; want 0", allocs)
	}
}

var ackCorpus = []string{
	`{"tick":4032,"seq":12,"values":[20.5,19.25],"imputed":[0]}`,
	`{"tick":1,"seq":2,"values":[],"imputed":[],"duplicate":true}`,
	`{"tick":0,"seq":0,"values":[1e-7,123456789.123],"imputed":[0,1]}`,
	`{"seq":2,"tick":1,"imputed":[3],"values":[1],"duplicate":false}`,
	`{"tick":1,"seq":2,"values":[-0,-0.0,0.000001,0.0000001],"imputed":[0,1,2,3]}`,
	`{"tick":1,"seq":2,"values":[123456789012345,1234567890123456,9007199254740993],"imputed":[0,1,2]}`,
	`{"tick":1,"seq":2,"values":[0.0000000000000000000001,0.00000000000000000000001],"imputed":[0,1]}`,
	`{"tick":1,"seq":2,"values":[1E2,100,0.05,0.0047,-0.001],"imputed":[0,1,2,3,4]}`,
	// Rejections:
	`{"error":"boom","retry":true}`,
	`{"tick":1,"seq":2,"values":[null],"imputed":[]}`,
	`{"tick":1,"seq":2,"values":[1]}`,
	`{"tick":1,"seq":2}`,
	`{}`,
	`{"tick":-1,"seq":2,"values":[],"imputed":[]}`,
	`{"tick":1,"seq":2,"values":[],"imputed":[-1]}`,
	`{"tick":1,"seq":2,"values":[],"imputed":[],"duplicate":1}`,
	`{"tick":1,"seq":2,"values":[],"imputed":[],"x":1}`,
}

func TestParseAckMatchesJSON(t *testing.T) {
	var a Ack
	for _, line := range ackCorpus {
		fastOK := ParseAck([]byte(line), &a)
		var ref jsonAck
		jsonErr := json.Unmarshal([]byte(line), &ref)
		if !fastOK {
			continue
		}
		if jsonErr != nil {
			t.Fatalf("fast path accepted %q which encoding/json rejects: %v", line, jsonErr)
		}
		if ref.Error != "" {
			t.Fatalf("fast path accepted error line %q", line)
		}
		if a.Tick != ref.Tick || a.Seq != ref.Seq || a.Duplicate != ref.Duplicate {
			t.Fatalf("%q: got (%d,%d,%v), json (%d,%d,%v)",
				line, a.Tick, a.Seq, a.Duplicate, ref.Tick, ref.Seq, ref.Duplicate)
		}
		if len(a.Values) != len(ref.Values) {
			t.Fatalf("%q: %d values, json %d", line, len(a.Values), len(ref.Values))
		}
		for i := range a.Values {
			if math.Float64bits(a.Values[i]) != math.Float64bits(ref.Values[i]) {
				t.Fatalf("%q: value %d = %v, json %v", line, i, a.Values[i], ref.Values[i])
			}
		}
		if len(a.Imputed) != len(ref.Imputed) {
			t.Fatalf("%q: %d imputed, json %d", line, len(a.Imputed), len(ref.Imputed))
		}
		for i := range a.Imputed {
			if a.Imputed[i] != ref.Imputed[i] {
				t.Fatalf("%q: imputed %d = %v, json %v", line, i, a.Imputed[i], ref.Imputed[i])
			}
		}
	}
}

// TestAppendAckMatchesJSONEncoder pins byte equality with a json.Encoder
// over the server's tickOut shape, including float formatting.
func TestAppendAckMatchesJSONEncoder(t *testing.T) {
	type tickOut struct {
		Tick      int       `json:"tick"`
		Seq       uint64    `json:"seq"`
		Values    []float64 `json:"values"`
		Imputed   []int     `json:"imputed"`
		Duplicate bool      `json:"duplicate,omitempty"`
	}
	cases := []tickOut{
		{Tick: 4032, Seq: 12, Values: []float64{20.5, 19.25, -3}, Imputed: []int{0, 2}},
		{Tick: 1, Seq: 2, Values: []float64{}, Imputed: []int{}, Duplicate: true},
		{Tick: 0, Seq: 0, Values: []float64{0, -0.0000001, 1e21, 123456789.123456, math.Pi}, Imputed: []int{}},
		{Tick: 7, Seq: 9, Values: []float64{5e-324, math.MaxFloat64, 1e-6, 1e-7, 0.1}, Imputed: []int{1}},
		{Tick: 7, Seq: 9, Values: []float64{-1e-9, 3e20, 1e20, 2e21, 1.5e-8}, Imputed: []int{}},
		// AppendFloat's fast-path range, 1e-6 ≤ |v| < 1e9, and its edges.
		{Tick: 8, Seq: 10, Values: []float64{1e-6, -1e-6, math.Nextafter(1e-6, 0), math.Nextafter(1e-6, 1),
			999999999.999999, math.Nextafter(1e9, 0), 1e9, -1e9}, Imputed: []int{}},
		{Tick: 8, Seq: 10, Values: []float64{123.456789, 123.4567891, 0.000001, 0.0000015, 23.47, -273.15,
			0x1p-20, math.Nextafter(0x1p-20, 0), math.Nextafter(0x1p-20, 1), 0x1p-19}, Imputed: []int{}},
	}
	var buf []byte
	for _, c := range cases {
		want, err := json.Marshal(c)
		if err != nil {
			t.Fatal(err)
		}
		want = append(want, '\n') // json.Encoder.Encode appends a newline
		got, ok := AppendAck(buf[:0], c.Tick, c.Seq, c.Values, c.Imputed, c.Duplicate)
		if !ok {
			t.Fatalf("AppendAck refused %+v", c)
		}
		if string(got) != string(want) {
			t.Fatalf("AppendAck %+v:\n got %q\nwant %q", c, got, want)
		}
		buf = got
	}
	if _, ok := AppendAck(buf[:0], 1, 2, []float64{math.NaN()}, nil, false); ok {
		t.Fatal("AppendAck accepted NaN")
	}
	if _, ok := AppendAck(buf[:0], 1, 2, []float64{math.Inf(1)}, nil, false); ok {
		t.Fatal("AppendAck accepted +Inf")
	}
}

// TestAckRoundTrip feeds AppendAck's output back through ParseAck.
func TestAckRoundTrip(t *testing.T) {
	values := []float64{20.5, 19.25, 0.125}
	imputed := []int{1}
	line, ok := AppendAck(nil, 4032, 77, values, imputed, false)
	if !ok {
		t.Fatal("AppendAck refused finite values")
	}
	var a Ack
	if !ParseAck(line[:len(line)-1], &a) {
		t.Fatalf("ParseAck rejected AppendAck output %q", line)
	}
	if a.Tick != 4032 || a.Seq != 77 || a.Duplicate {
		t.Fatalf("round trip lost header: %+v", a)
	}
	for i, v := range values {
		if a.Values[i] != v {
			t.Fatalf("value %d: %v != %v", i, a.Values[i], v)
		}
	}
	if len(a.Imputed) != 1 || a.Imputed[0] != 1 {
		t.Fatalf("round trip lost imputed: %v", a.Imputed)
	}
}

// FuzzParseTickIn fuzzes the contract: the fast parser never accepts a line
// encoding/json rejects, and agrees with encoding/json whenever it accepts.
func FuzzParseTickIn(f *testing.F) {
	for _, line := range tickInCorpus {
		f.Add([]byte(line))
	}
	var in TickIn
	f.Fuzz(func(t *testing.T, line []byte) {
		checkTickInAgainstJSON(t, string(line), &in)
	})
}

// FuzzParseAck fuzzes the same contract for ack lines.
func FuzzParseAck(f *testing.F) {
	for _, line := range ackCorpus {
		f.Add([]byte(line))
	}
	var a Ack
	f.Fuzz(func(t *testing.T, line []byte) {
		fastOK := ParseAck(line, &a)
		if !fastOK {
			return
		}
		var ref jsonAck
		if err := json.Unmarshal(line, &ref); err != nil {
			t.Fatalf("fast path accepted %q which encoding/json rejects: %v", line, err)
		}
		if ref.Error != "" || ref.Retry {
			t.Fatalf("fast path accepted error line %q", line)
		}
		if a.Tick != ref.Tick || a.Seq != ref.Seq || a.Duplicate != ref.Duplicate {
			t.Fatalf("%q: got (%d,%d,%v), json (%d,%d,%v)",
				line, a.Tick, a.Seq, a.Duplicate, ref.Tick, ref.Seq, ref.Duplicate)
		}
		if len(a.Values) != len(ref.Values) || len(a.Imputed) != len(ref.Imputed) {
			t.Fatalf("%q: lengths (%d,%d), json (%d,%d)",
				line, len(a.Values), len(a.Imputed), len(ref.Values), len(ref.Imputed))
		}
		for i := range a.Values {
			if math.Float64bits(a.Values[i]) != math.Float64bits(ref.Values[i]) {
				t.Fatalf("%q: value %d = %v, json %v", line, i, a.Values[i], ref.Values[i])
			}
		}
		for i := range a.Imputed {
			if a.Imputed[i] != ref.Imputed[i] {
				t.Fatalf("%q: imputed %d = %v, json %v", line, i, a.Imputed[i], ref.Imputed[i])
			}
		}
	})
}

// checkAppendFloat checks the formatter's contract on one finite value:
// AppendFloat writes json.Marshal's bytes, and ParseTickIn reads them back
// bit for bit.
func checkAppendFloat(t *testing.T, v float64, in *TickIn) {
	t.Helper()
	got := AppendFloat(nil, v)
	want, err := json.Marshal(v)
	if err != nil {
		t.Fatal(err)
	}
	if string(got) != string(want) {
		t.Fatalf("AppendFloat(%#x) = %s, json.Marshal %s", math.Float64bits(v), got, want)
	}
	line := append(append([]byte(`{"values":[`), got...), "]}"...)
	if !ParseTickIn(line, in) || len(in.Values) != 1 {
		t.Fatalf("ParseTickIn refused %s", line)
	}
	if math.Float64bits(in.Values[0]) != math.Float64bits(v) {
		t.Fatalf("%s read back as %#x, want %#x", got, math.Float64bits(in.Values[0]), math.Float64bits(v))
	}
}

// TestAppendFloatSweep runs the formatter's contract over short decimals of
// every fraction length across the fast path's range and past its ends,
// powers of two and their neighbours, random bit patterns, and
// full-precision values across the plain-notation range.
func TestAppendFloatSweep(t *testing.T) {
	var in TickIn
	rng := rand.New(rand.NewPCG(24, 1))
	for e := -9; e <= 11; e++ {
		for frac := 0; frac <= 8; frac++ {
			for range 200 {
				mag := math.Pow(10, float64(e)) * (1 + 9*rng.Float64())
				v := math.Round(mag*pow10[frac]) / pow10[frac]
				if rng.IntN(2) == 0 {
					v = -v
				}
				checkAppendFloat(t, v, &in)
			}
		}
	}
	for e := -40; e <= 40; e++ {
		p := math.Ldexp(1, e)
		checkAppendFloat(t, p, &in)
		checkAppendFloat(t, math.Nextafter(p, 0), &in)
		checkAppendFloat(t, math.Nextafter(p, math.Inf(1)), &in)
	}
	for range 20000 {
		if v := math.Float64frombits(rng.Uint64()); !math.IsNaN(v) && !math.IsInf(v, 0) {
			checkAppendFloat(t, v, &in)
		}
		// Full precision in plain notation: 16-17 digits, where reading the
		// mantissa into a float64 before dividing would round twice.
		checkAppendFloat(t, math.Pow(10, -6+27*rng.Float64()), &in)
	}
}

// FuzzAppendFloat fuzzes the formatter's contract for any finite float64
// bit pattern, and for a short decimal made from the same input (mantissa
// bits>>4 over 10^(bits&15)), which random bit patterns rarely are.
func FuzzAppendFloat(f *testing.F) {
	for _, v := range []float64{0, math.Copysign(0, -1), 23.47, -273.15, 1e-6, 1e-7,
		999999999.999999, 1e9, 1e21, 5e-324, math.MaxFloat64, 0x1p-20, 123.4567891, math.Pi} {
		f.Add(math.Float64bits(v))
	}
	var in TickIn
	f.Fuzz(func(t *testing.T, bits uint64) {
		if v := math.Float64frombits(bits); !math.IsNaN(v) && !math.IsInf(v, 0) {
			checkAppendFloat(t, v, &in)
		}
		checkAppendFloat(t, float64(int64(bits)>>4)/pow10[bits&15], &in)
	})
}

// BenchmarkWireFloats times both halves of the number codec: formatting
// short decimals (the x.xx readings clients send) and full-precision values
// (the imputations acks carry), per value, and parsing lines of 16 and 64
// short decimals (the impute and ingest row widths) and of 64 full-precision
// values, per line.
func BenchmarkWireFloats(b *testing.B) {
	rng := rand.New(rand.NewPCG(24, 2))
	short := make([]float64, 1024)
	full := make([]float64, len(short))
	for i := range short {
		full[i] = 20 + 10*rng.NormFloat64()
		short[i] = math.Round(100*full[i]) / 100
	}
	for _, c := range []struct {
		name string
		vals []float64
	}{{"format/short", short}, {"format/full", full}} {
		b.Run(c.name, func(b *testing.B) {
			var dst []byte
			for i := 0; b.Loop(); i++ {
				dst = AppendFloat(dst[:0], c.vals[i%len(c.vals)])
			}
		})
	}
	for _, c := range []struct {
		name string
		vals []float64
	}{{"parse/16", short[:16]}, {"parse/64", short[:64]}, {"parse/64-full", full[:64]}} {
		line := []byte(`{"seq":123456,"values":[`)
		for i, v := range c.vals {
			if i > 0 {
				line = append(line, ',')
			}
			line = strconv.AppendFloat(line, v, 'g', -1, 64)
		}
		line = append(line, "]}"...)
		b.Run(c.name, func(b *testing.B) {
			var in TickIn
			for b.Loop() {
				if !ParseTickIn(line, &in) {
					b.Fatal("line missed the fast path")
				}
			}
		})
	}
}
