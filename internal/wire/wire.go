// Package wire hand-codes the NDJSON tick-stream hot path shared by the
// server and the client: input tick lines ({"seq":…,"values":[…]} and the
// batch form {"seq":…,"rows":[[…],…]}) and output ack lines. encoding/json
// spends most of a streaming CPU core in reflection, validity re-scanning
// and interface plumbing; these parsers do one strict pass over the line and
// report !ok for ANYTHING outside the plain shapes — unknown keys, string
// escapes, numbers outside JSON's grammar — so callers fall back to
// encoding/json and observable behavior (including error text) is identical
// to a pure encoding/json implementation. The fast path is deliberately
// conservative: it never accepts a line encoding/json would reject.
//
// Every float on the tick stream goes through one formatter, AppendFloat
// (the client's rows and the server's acks), and one number scanner
// (ParseTickIn and ParseAck). Each has an exact fast path for short
// decimals such as 23.47, the spelling sensor readings travel in, and hands
// every other number to strconv, so a value's bits and bytes are
// strconv.ParseFloat's and encoding/json's either way.
package wire

import (
	"math"
	"strconv"
	"unsafe"
)

// TickIn is one decoded input line. Values and Rows (and Rows' row slices)
// are caller-owned scratch reused across lines; null values arrive as NaN.
// Has* distinguish an absent key from a present-but-empty array, matching
// encoding/json's nil-vs-empty slice semantics.
type TickIn struct {
	// Seq is the row's (or batch's first row's) sequence number; 0 = absent.
	Seq uint64
	// Values holds the single-row form's values (NaN = null).
	Values []float64
	// HasValues reports the "values" key was present and non-null.
	HasValues bool
	// Rows holds the batch form's rows (NaN = null).
	Rows [][]float64
	// HasRows reports the "rows" key was present and non-null.
	HasRows bool
}

// parser is a single-pass cursor over one line.
type parser struct {
	b []byte
	i int
}

func (p *parser) ws() {
	for p.i < len(p.b) {
		switch p.b[p.i] {
		case ' ', '\t', '\r', '\n':
			p.i++
		default:
			return
		}
	}
}

// eat consumes c (after whitespace) or reports false.
func (p *parser) eat(c byte) bool {
	p.ws()
	if p.i < len(p.b) && p.b[p.i] == c {
		p.i++
		return true
	}
	return false
}

// lit consumes the exact literal s (no leading whitespace skip).
func (p *parser) lit(s string) bool {
	if len(p.b)-p.i < len(s) || string(p.b[p.i:p.i+len(s)]) != s {
		return false
	}
	p.i += len(s)
	return true
}

// key parses a plain "name" object key (no escapes) and its ':'.
func (p *parser) key() ([]byte, bool) {
	if !p.eat('"') {
		return nil, false
	}
	start := p.i
	for p.i < len(p.b) {
		switch p.b[p.i] {
		case '"':
			k := p.b[start:p.i]
			p.i++
			if !p.eat(':') {
				return nil, false
			}
			return k, true
		case '\\':
			return nil, false // escapes: fall back to encoding/json
		}
		p.i++
	}
	return nil, false
}

func isDigit(c byte) bool { return c >= '0' && c <= '9' }

// pow10 holds the powers of ten exactDecimal can need, all exact in a
// float64.
var pow10 = [...]float64{1e0, 1e1, 1e2, 1e3, 1e4, 1e5, 1e6, 1e7, 1e8, 1e9, 1e10,
	1e11, 1e12, 1e13, 1e14, 1e15}

// numberToken scans one JSON number token and validates it against JSON's
// number grammar (strconv alone is laxer: it would take "+1", hex floats and
// underscores, which encoding/json rejects). It also returns the token's
// number of fraction digits, or -1 when it has an exponent.
func (p *parser) numberToken() (tok []byte, frac int, ok bool) {
	start := p.i
	i := p.i
	if i < len(p.b) && p.b[i] == '-' {
		i++
	}
	switch {
	case i < len(p.b) && p.b[i] == '0':
		i++
	case i < len(p.b) && p.b[i] >= '1' && p.b[i] <= '9':
		for i < len(p.b) && isDigit(p.b[i]) {
			i++
		}
	default:
		return nil, 0, false
	}
	if i < len(p.b) && p.b[i] == '.' {
		i++
		first := i
		for i < len(p.b) && isDigit(p.b[i]) {
			i++
		}
		if frac = i - first; frac == 0 {
			return nil, 0, false
		}
	}
	if i < len(p.b) && (p.b[i] == 'e' || p.b[i] == 'E') {
		i++
		if i < len(p.b) && (p.b[i] == '+' || p.b[i] == '-') {
			i++
		}
		if i >= len(p.b) || !isDigit(p.b[i]) {
			return nil, 0, false
		}
		for i < len(p.b) && isDigit(p.b[i]) {
			i++
		}
		frac = -1
	}
	p.i = i
	return p.b[start:i], frac, true
}

// exactDecimal returns the value of a scanned number token with frac
// fraction digits when Clinger's fast path holds: no exponent and at most 15
// digits. Its digits, read as an integer m, are then below 10¹⁵ < 2⁵³, and
// f = frac ≤ 15, so m and 10^f are exact and the one division
// float64(m)/1e{f} rounds correctly; '-' negates it, so "-0" stays −0. This
// is the exact path strconv.ParseFloat itself tries first (atof64exact), so
// the bits cannot differ.
func exactDecimal(tok []byte, frac int) (float64, bool) {
	neg := tok[0] == '-'
	if neg {
		tok = tok[1:]
	}
	digits := len(tok)
	if frac > 0 {
		digits-- // the point
	}
	if frac < 0 || digits > 15 {
		return 0, false
	}
	var m uint64
	for _, c := range tok {
		if c != '.' {
			m = m*10 + uint64(c-'0')
		}
	}
	v := float64(m) / pow10[frac]
	if neg {
		v = -v
	}
	return v, true
}

// float parses a number or null; null yields NaN. Its value is always
// strconv.ParseFloat's, bit for bit.
func (p *parser) float() (float64, bool) {
	p.ws()
	if p.i < len(p.b) && p.b[p.i] == 'n' {
		if p.lit("null") {
			return math.NaN(), true
		}
		return 0, false
	}
	tok, frac, ok := p.numberToken()
	if !ok {
		return 0, false
	}
	// A token past 16 bytes has 15 digits at most when it has both a sign
	// and a point; leaving those to ParseFloat lets full-precision values
	// (17 bytes and up) skip the exact check with one compare. Building the
	// mantissa inside numberToken instead doubled its code and slowed
	// full-precision lines.
	if len(tok) <= 16 {
		if v, ok := exactDecimal(tok, frac); ok {
			return v, true
		}
	}
	// The token is read-only for ParseFloat's duration, so the unsafe
	// string view saves a per-value copy.
	v, err := strconv.ParseFloat(unsafe.String(unsafe.SliceData(tok), len(tok)), 64)
	if err != nil {
		return 0, false // e.g. out of range — encoding/json errors too
	}
	return v, true
}

// uintVal parses a plain digits-only number. encoding/json rejects "1e2",
// "-1" or "1.0" for a uint64 field, so any other shape reports false.
func (p *parser) uintVal() (uint64, bool) {
	p.ws()
	start := p.i
	for p.i < len(p.b) && isDigit(p.b[p.i]) {
		p.i++
	}
	tok := p.b[start:p.i]
	if len(tok) == 0 || (len(tok) > 1 && tok[0] == '0') {
		return 0, false
	}
	v, err := strconv.ParseUint(unsafe.String(unsafe.SliceData(tok), len(tok)), 10, 64)
	if err != nil {
		return 0, false
	}
	return v, true
}

// floatArray parses [v, v, …] (null allowed) into dst.
func (p *parser) floatArray(dst []float64) ([]float64, bool) {
	if !p.eat('[') {
		return nil, false
	}
	p.ws()
	if p.i < len(p.b) && p.b[p.i] == ']' {
		p.i++
		return dst, true
	}
	for {
		v, ok := p.float()
		if !ok {
			return nil, false
		}
		dst = append(dst, v)
		p.ws()
		if p.i >= len(p.b) {
			return nil, false
		}
		switch p.b[p.i] {
		case ',':
			p.i++
		case ']':
			p.i++
			return dst, true
		default:
			return nil, false
		}
	}
}

// end verifies only whitespace remains (json.Unmarshal rejects trailing
// bytes after the value).
func (p *parser) end() bool {
	p.ws()
	return p.i == len(p.b)
}

// ParseTickIn decodes one input tick line into in, reusing in's scratch
// slices. It reports false — leaving in unspecified — when the line is
// anything but the plain {"seq":…,"values":[…]} / {"seq":…,"rows":[[…],…]}
// shapes; the caller then falls back to encoding/json for identical
// semantics (unknown-key tolerance, escape handling, exact error text).
func ParseTickIn(line []byte, in *TickIn) bool {
	in.Seq = 0
	in.Values = in.Values[:0]
	in.HasValues = false
	in.Rows = in.Rows[:0]
	in.HasRows = false
	p := parser{b: line}
	if !p.eat('{') {
		return false
	}
	p.ws()
	if p.i < len(p.b) && p.b[p.i] == '}' {
		p.i++
		return p.end()
	}
	for {
		k, ok := p.key()
		if !ok {
			return false
		}
		switch string(k) {
		case "seq":
			v, ok := p.uintVal()
			if !ok {
				return false
			}
			in.Seq = v
		case "values":
			p.ws()
			if p.i < len(p.b) && p.b[p.i] == 'n' {
				if !p.lit("null") {
					return false
				}
				in.HasValues = false // JSON null leaves the field nil
				break
			}
			vals, ok := p.floatArray(in.Values[:0])
			if !ok {
				return false
			}
			in.Values = vals
			in.HasValues = true
		case "rows":
			p.ws()
			if p.i < len(p.b) && p.b[p.i] == 'n' {
				if !p.lit("null") {
					return false
				}
				in.HasRows = false
				break
			}
			if !p.eat('[') {
				return false
			}
			in.Rows = in.Rows[:0]
			in.HasRows = true
			p.ws()
			if p.i < len(p.b) && p.b[p.i] == ']' {
				p.i++
			} else {
				for {
					var row []float64
					if n := len(in.Rows); n < cap(in.Rows) {
						row = in.Rows[:n+1][n][:0]
					}
					row, ok := p.floatArray(row)
					if !ok {
						return false
					}
					in.Rows = append(in.Rows, row)
					p.ws()
					if p.i >= len(p.b) {
						return false
					}
					if p.b[p.i] == ',' {
						p.i++
						continue
					}
					if p.b[p.i] == ']' {
						p.i++
						break
					}
					return false
				}
			}
		default:
			return false // unknown key: let encoding/json's tolerance decide
		}
		p.ws()
		if p.i >= len(p.b) {
			return false
		}
		switch p.b[p.i] {
		case ',':
			p.i++
		case '}':
			p.i++
			return p.end()
		default:
			return false
		}
	}
}

// Ack is one decoded ack line. Values and Imputed are caller-owned scratch.
type Ack struct {
	// Tick is the engine tick index after the row.
	Tick int
	// Seq is the row's sequence number.
	Seq uint64
	// Values holds the imputed cells' completed values, Values[x] being
	// that of stream Imputed[x]; the client completes the row it sent.
	Values []float64
	// Imputed lists the indices that were missing.
	Imputed []int
	// Duplicate marks a replayed, already-applied row.
	Duplicate bool
}

// ParseAck decodes one server ack line into a, reusing a's scratch slices.
// It reports false for anything but the exact ack shape the server emits —
// tick, seq, values and imputed all present, duplicate optional — so in
// particular the in-stream {"error":…} form and any foreign server's
// variations fall back to encoding/json.
func ParseAck(line []byte, a *Ack) bool {
	a.Tick = 0
	a.Seq = 0
	a.Values = a.Values[:0]
	a.Imputed = a.Imputed[:0]
	a.Duplicate = false
	var sawTick, sawSeq, sawValues, sawImputed bool
	p := parser{b: line}
	if !p.eat('{') {
		return false
	}
	p.ws()
	if p.i < len(p.b) && p.b[p.i] == '}' {
		return false // empty object: not an ack
	}
	for {
		k, ok := p.key()
		if !ok {
			return false
		}
		switch string(k) {
		case "tick":
			v, ok := p.uintVal()
			if !ok || v > math.MaxInt64 {
				return false
			}
			a.Tick = int(v)
			sawTick = true
		case "seq":
			v, ok := p.uintVal()
			if !ok {
				return false
			}
			a.Seq = v
			sawSeq = true
		case "values":
			vals, ok := p.floatArray(a.Values[:0])
			if !ok {
				return false
			}
			for _, v := range vals {
				if math.IsNaN(v) { // null element: not a fast-path shape
					return false
				}
			}
			a.Values = vals
			sawValues = true
		case "imputed":
			sawImputed = true
			if !p.eat('[') {
				return false
			}
			p.ws()
			if p.i < len(p.b) && p.b[p.i] == ']' {
				p.i++
				break
			}
			for {
				v, ok := p.uintVal()
				if !ok || v > math.MaxInt64 {
					return false
				}
				a.Imputed = append(a.Imputed, int(v))
				p.ws()
				if p.i >= len(p.b) {
					return false
				}
				if p.b[p.i] == ',' {
					p.i++
					continue
				}
				if p.b[p.i] == ']' {
					p.i++
					break
				}
				return false
			}
		case "duplicate":
			p.ws()
			switch {
			case p.lit("true"):
				a.Duplicate = true
			case p.lit("false"):
				a.Duplicate = false
			default:
				return false
			}
		default:
			return false
		}
		p.ws()
		if p.i >= len(p.b) {
			return false
		}
		switch p.b[p.i] {
		case ',':
			p.i++
		case '}':
			p.i++
			return sawTick && sawSeq && sawValues && sawImputed && p.end()
		default:
			return false
		}
	}
}

// AppendAck appends one ack line (with trailing newline) to dst. It reports
// false — leaving dst's extension unspecified — when values contains a
// non-finite number, which JSON cannot carry; the caller falls back to
// encoding/json for the identical error.
func AppendAck(dst []byte, tick int, seq uint64, values []float64, imputed []int, duplicate bool) ([]byte, bool) {
	dst = append(dst, `{"tick":`...)
	dst = strconv.AppendInt(dst, int64(tick), 10)
	dst = append(dst, `,"seq":`...)
	dst = strconv.AppendUint(dst, seq, 10)
	dst = append(dst, `,"values":[`...)
	for i, v := range values {
		if math.IsNaN(v) || math.IsInf(v, 0) {
			return dst, false
		}
		if i > 0 {
			dst = append(dst, ',')
		}
		dst = AppendFloat(dst, v)
	}
	dst = append(dst, `],"imputed":[`...)
	for i, v := range imputed {
		if i > 0 {
			dst = append(dst, ',')
		}
		dst = strconv.AppendInt(dst, int64(v), 10)
	}
	dst = append(dst, ']')
	if duplicate {
		dst = append(dst, `,"duplicate":true`...)
	}
	dst = append(dst, '}', '\n')
	return dst, true
}

// AppendFloat appends finite v as encoding/json writes a float64, byte for
// byte: the shortest decimal that reads back as v, in plain notation for
// 1e-6 ≤ |v| < 1e21 and in exponent form (1e-7, 1e+21) outside it. JSON
// cannot carry NaN or ±Inf; callers keep them out.
//
// Short decimals take an exact fast path. For 1e-6 ≤ |v| < 1e9, let
// n = round(|v|·10⁶). If float64(n)/1e6 == |v|, the bytes are the sign,
// n div 10⁶ and, when n mod 10⁶ ≠ 0, a '.' and the 6 fraction digits with
// trailing zeros trimmed; otherwise v takes strconv's path.
//   - The decimal reads back as v: ParseFloat of it and the float64 division
//     are both the correctly rounded value of n/10⁶, because n < 2⁵⁰ and 10⁶
//     are exact.
//   - It is the shortest form: |v|·10⁶ < 2⁵⁰, so the rounding interval of v,
//     scaled by 10⁶, is narrower than 1. It therefore holds no other decimal
//     with ≤ 6 fraction digits. Those are the digits strconv's 'f', -1
//     picks, which is what encoding/json writes in that range.
func AppendFloat(dst []byte, v float64) []byte {
	abs := math.Abs(v)
	if abs >= 1e-6 && abs < 1e9 {
		// n is a candidate, kept only if it reads back as abs. When some
		// decimal with ≤ 6 fraction digits does, abs·10⁶ lies within ¼ of
		// its n, so adding ½ and truncating lands on that n.
		if n := int64(abs*1e6 + 0.5); float64(n)/1e6 == abs {
			if v < 0 {
				dst = append(dst, '-')
			}
			dst = strconv.AppendUint(dst, uint64(n)/1e6, 10)
			frac := uint64(n) % 1e6
			if frac == 0 {
				return dst
			}
			digits := 6
			for frac%10 == 0 {
				frac /= 10
				digits--
			}
			dst = append(dst, ".000000"[:digits+1]...)
			for i := len(dst) - 1; frac != 0; i-- {
				dst[i] = byte('0' + frac%10)
				frac /= 10
			}
			return dst
		}
		return strconv.AppendFloat(dst, v, 'f', -1, 64) // plain in this range
	}
	format := byte('f')
	if abs != 0 && (abs < 1e-6 || abs >= 1e21) {
		format = 'e'
	}
	start := len(dst)
	dst = strconv.AppendFloat(dst, v, format, -1, 64)
	if format == 'e' {
		// Clean up e-09 → e-9, matching encoding/json.
		n := len(dst)
		if n-start >= 4 && dst[n-4] == 'e' && dst[n-3] == '-' && dst[n-2] == '0' {
			dst[n-2] = dst[n-1]
			dst = dst[:n-1]
		}
	}
	return dst
}
