package obs

import (
	"fmt"
	"math"
	"sort"
	"strconv"
	"strings"
)

// Sample is one parsed Prometheus text-exposition line: a metric name, its
// sorted rendered label set (`a="1",b="2"`, empty for none), and the value.
type Sample struct {
	// Name is the full sample name, suffixes included (e.g.
	// "tkcm_ack_seconds_bucket").
	Name string
	// Labels is the canonical label rendering, sorted by key.
	Labels string
	// LabelMap holds the individual label pairs.
	LabelMap map[string]string
	// Value is the sample value.
	Value float64
}

// Scrape is a parsed exposition: every sample in input order plus the HELP
// and TYPE declarations by family name.
type Scrape struct {
	// Samples holds every value line in input order.
	Samples []Sample
	// Help maps family name to its HELP text.
	Help map[string]string
	// Type maps family name to its TYPE ("counter", "gauge", "histogram", ...).
	Type map[string]string
}

// ParseProm parses a Prometheus text-format exposition (the subset the
// hand-rolled writers emit: no escaped label values beyond \" \\ \n, no
// timestamps). It exists so the conformance test, the SLO sweeps and
// perfbench read the real wire format instead of private state.
func ParseProm(text string) (*Scrape, error) {
	s := &Scrape{Help: make(map[string]string), Type: make(map[string]string)}
	for ln, line := range strings.Split(text, "\n") {
		line = strings.TrimSpace(line)
		if line == "" {
			continue
		}
		if strings.HasPrefix(line, "# HELP ") {
			rest := strings.TrimPrefix(line, "# HELP ")
			name, help, _ := strings.Cut(rest, " ")
			s.Help[name] = help
			continue
		}
		if strings.HasPrefix(line, "# TYPE ") {
			rest := strings.TrimPrefix(line, "# TYPE ")
			name, typ, ok := strings.Cut(rest, " ")
			if !ok {
				return nil, fmt.Errorf("line %d: TYPE without a type: %q", ln+1, line)
			}
			s.Type[name] = typ
			continue
		}
		if strings.HasPrefix(line, "#") {
			continue // other comment
		}
		sm, err := parseSample(line)
		if err != nil {
			return nil, fmt.Errorf("line %d: %w", ln+1, err)
		}
		s.Samples = append(s.Samples, sm)
	}
	return s, nil
}

// parseSample parses one `name{labels} value` line.
func parseSample(line string) (Sample, error) {
	var sm Sample
	rest := line
	if i := strings.IndexAny(rest, "{ "); i < 0 {
		return sm, fmt.Errorf("no value: %q", line)
	} else {
		sm.Name = rest[:i]
		rest = rest[i:]
	}
	if strings.HasPrefix(rest, "{") {
		end := strings.Index(rest, "}")
		if end < 0 {
			return sm, fmt.Errorf("unterminated label set: %q", line)
		}
		lm, err := parseLabels(rest[1:end])
		if err != nil {
			return sm, fmt.Errorf("%w in %q", err, line)
		}
		sm.LabelMap = lm
		sm.Labels = renderLabels(lm)
		rest = rest[end+1:]
	}
	v, err := strconv.ParseFloat(strings.TrimSpace(rest), 64)
	if err != nil {
		return sm, fmt.Errorf("bad value in %q: %w", line, err)
	}
	sm.Value = v
	return sm, nil
}

// parseLabels parses `k="v",k2="v2"` (values may contain \" \\ \n escapes).
func parseLabels(body string) (map[string]string, error) {
	out := make(map[string]string)
	for body != "" {
		eq := strings.Index(body, "=")
		if eq < 0 || len(body) < eq+2 || body[eq+1] != '"' {
			return nil, fmt.Errorf("malformed label pair near %q", body)
		}
		key := strings.TrimPrefix(strings.TrimSpace(body[:eq]), ",")
		key = strings.TrimSpace(key)
		rest := body[eq+2:]
		var b strings.Builder
		i := 0
		for ; i < len(rest); i++ {
			c := rest[i]
			if c == '\\' && i+1 < len(rest) {
				i++
				switch rest[i] {
				case 'n':
					b.WriteByte('\n')
				default:
					b.WriteByte(rest[i])
				}
				continue
			}
			if c == '"' {
				break
			}
			b.WriteByte(c)
		}
		if i >= len(rest) {
			return nil, fmt.Errorf("unterminated label value for %q", key)
		}
		out[key] = b.String()
		body = rest[i+1:]
	}
	return out, nil
}

// renderLabels renders a label map canonically: sorted keys, `k="v"` pairs
// joined by commas, escapes reapplied.
func renderLabels(lm map[string]string) string {
	if len(lm) == 0 {
		return ""
	}
	keys := make([]string, 0, len(lm))
	for k := range lm {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	var b strings.Builder
	for i, k := range keys {
		if i > 0 {
			b.WriteByte(',')
		}
		v := strings.NewReplacer(`\`, `\\`, "\n", `\n`, `"`, `\"`).Replace(lm[k])
		fmt.Fprintf(&b, "%s=%q", k, v)
	}
	return b.String()
}

// FamilyOf strips a histogram sample suffix (_bucket, _sum, _count) from a
// sample name, returning the family it belongs to and whether a suffix was
// stripped.
func FamilyOf(sampleName string) (family string, histogramPart bool) {
	for _, suf := range []string{"_bucket", "_sum", "_count"} {
		if strings.HasSuffix(sampleName, suf) {
			return strings.TrimSuffix(sampleName, suf), true
		}
	}
	return sampleName, false
}

// StageQuantile computes the q-quantile in seconds of one histogram family
// from a scrape, aggregating every series of the family that matches the
// given label filter (nil = all). It returns NaN when the family is absent
// or empty.
func (s *Scrape) StageQuantile(family string, q float64, match map[string]string) float64 {
	type bucket struct {
		le  float64
		cum uint64
	}
	byLE := make(map[float64]uint64)
	for _, sm := range s.Samples {
		if sm.Name != family+"_bucket" {
			continue
		}
		ok := true
		for k, v := range match {
			if sm.LabelMap[k] != v {
				ok = false
				break
			}
		}
		if !ok {
			continue
		}
		le, err := parseLE(sm.LabelMap["le"])
		if err != nil {
			continue
		}
		byLE[le] += uint64(sm.Value)
	}
	if len(byLE) == 0 {
		return math.NaN()
	}
	bs := make([]bucket, 0, len(byLE))
	for le, cum := range byLE {
		bs = append(bs, bucket{le, cum})
	}
	sort.Slice(bs, func(i, j int) bool { return bs[i].le < bs[j].le })
	les := make([]float64, len(bs))
	cums := make([]uint64, len(bs))
	for i, b := range bs {
		les[i], cums[i] = b.le, b.cum
	}
	return Quantile(q, les, cums)
}

// parseLE parses an le label value ("+Inf" included).
func parseLE(s string) (float64, error) {
	if s == "+Inf" {
		return math.Inf(1), nil
	}
	return strconv.ParseFloat(s, 64)
}
