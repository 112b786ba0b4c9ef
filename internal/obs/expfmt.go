package obs

import (
	"bufio"
	"fmt"
	"io"
	"math"
	"sort"
	"strconv"
	"strings"
)

// This file is the consuming half of the exposition format: a strict
// parser plus a conventions linter. The serving tests, the router's
// fleet test and the CI obs-smoke job read /metrics through it instead
// of grepping substrings, so a malformed HELP line, a non-cumulative
// bucket or a counter that silently becomes a gauge fails loudly.

// PromFamily is one parsed metric family. For histograms the Samples
// hold the expanded _bucket/_sum/_count series.
type PromFamily struct {
	Name    string
	Help    string
	Type    string
	Samples []PromSample
}

// PromSample is one sample line.
type PromSample struct {
	Name   string // full sample name (may carry _bucket/_sum/_count)
	Labels map[string]string
	Value  float64
}

// ParseProm parses Prometheus text exposition format 0.0.4 strictly:
// every family must declare HELP and TYPE before its samples, sample
// names must belong to a declared family, duplicate series are
// errors, and histogram bucket series must have strictly ascending,
// non-NaN bounds and be cumulative, +Inf-terminated and consistent
// with _count. It returns families
// keyed by name.
func ParseProm(r io.Reader) (map[string]*PromFamily, error) {
	fams := make(map[string]*PromFamily)
	seen := make(map[string]bool) // name+rendered labels, duplicate detection
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 0, 64*1024), 1<<20)
	lineno := 0
	for sc.Scan() {
		lineno++
		line := sc.Text()
		if strings.TrimSpace(line) == "" {
			continue
		}
		if strings.HasPrefix(line, "#") {
			if err := parseMeta(line, fams); err != nil {
				return nil, fmt.Errorf("line %d: %w", lineno, err)
			}
			continue
		}
		s, err := parseSample(line)
		if err != nil {
			return nil, fmt.Errorf("line %d: %w", lineno, err)
		}
		fam := familyFor(fams, s.Name)
		if fam == nil {
			return nil, fmt.Errorf("line %d: sample %s has no declared family", lineno, s.Name)
		}
		if fam.Type == "" || fam.Help == "" {
			return nil, fmt.Errorf("line %d: family %s missing HELP or TYPE before samples", lineno, fam.Name)
		}
		key := s.Name + renderSampleLabels(s.Labels)
		if seen[key] {
			return nil, fmt.Errorf("line %d: duplicate series %s", lineno, key)
		}
		seen[key] = true
		fam.Samples = append(fam.Samples, s)
	}
	if err := sc.Err(); err != nil {
		return nil, err
	}
	for _, fam := range fams {
		if fam.Type == "histogram" {
			if err := checkHistogram(fam); err != nil {
				return nil, err
			}
		}
	}
	return fams, nil
}

func parseMeta(line string, fams map[string]*PromFamily) error {
	fields := strings.SplitN(line, " ", 4)
	if len(fields) < 3 || (fields[1] != "HELP" && fields[1] != "TYPE") {
		return nil // free-form comment
	}
	name := fields[2]
	fam := fams[name]
	if fam == nil {
		fam = &PromFamily{Name: name}
		fams[name] = fam
	}
	switch fields[1] {
	case "HELP":
		if fam.Help != "" {
			return fmt.Errorf("repeated HELP for %s", name)
		}
		if len(fields) < 4 || fields[3] == "" {
			return fmt.Errorf("empty HELP for %s", name)
		}
		fam.Help = fields[3]
	case "TYPE":
		if fam.Type != "" {
			return fmt.Errorf("repeated TYPE for %s", name)
		}
		if len(fam.Samples) > 0 {
			return fmt.Errorf("TYPE for %s after samples", name)
		}
		typ := ""
		if len(fields) == 4 {
			typ = fields[3]
		}
		switch typ {
		case "counter", "gauge", "histogram", "summary", "untyped":
		default:
			return fmt.Errorf("unknown TYPE %q for %s", typ, name)
		}
		fam.Type = typ
	}
	return nil
}

// familyFor maps a sample name to its declared family, resolving
// histogram suffixes (x_bucket/x_sum/x_count belong to family x).
func familyFor(fams map[string]*PromFamily, sample string) *PromFamily {
	if f, ok := fams[sample]; ok && f.Type != "histogram" {
		return f
	}
	for _, suf := range []string{"_bucket", "_sum", "_count"} {
		if base, ok := strings.CutSuffix(sample, suf); ok {
			if f, ok := fams[base]; ok && f.Type == "histogram" {
				return f
			}
		}
	}
	if f, ok := fams[sample]; ok {
		return f
	}
	return nil
}

func parseSample(line string) (PromSample, error) {
	s := PromSample{Labels: map[string]string{}}
	i := strings.IndexAny(line, "{ ")
	if i < 0 {
		return s, fmt.Errorf("malformed sample %q", line)
	}
	s.Name = line[:i]
	if !validMetricName(s.Name) {
		return s, fmt.Errorf("invalid metric name %q", s.Name)
	}
	rest := line[i:]
	if rest[0] == '{' {
		end, labels, err := parseLabelSet(rest)
		if err != nil {
			return s, fmt.Errorf("%s: %w", s.Name, err)
		}
		s.Labels = labels
		rest = rest[end:]
	}
	rest = strings.TrimSpace(rest)
	// A timestamp after the value is legal in the format; this
	// registry never writes one, so reject it as unexpected.
	if strings.ContainsAny(rest, " \t") {
		return s, fmt.Errorf("%s: unexpected trailing fields in %q", s.Name, rest)
	}
	v, err := parseValue(rest)
	if err != nil {
		return s, fmt.Errorf("%s: bad value %q", s.Name, rest)
	}
	s.Value = v
	return s, nil
}

// parseLabelSet parses a {k="v",...} block starting at text[0] == '{'
// and returns the index just past the closing brace.
func parseLabelSet(text string) (int, map[string]string, error) {
	labels := map[string]string{}
	i := 1
	for {
		for i < len(text) && (text[i] == ',' || text[i] == ' ') {
			i++
		}
		if i < len(text) && text[i] == '}' {
			return i + 1, labels, nil
		}
		j := i
		for j < len(text) && text[j] != '=' {
			j++
		}
		if j >= len(text) {
			return 0, nil, fmt.Errorf("unterminated label set")
		}
		name := text[i:j]
		if !validLabelName(name) {
			return 0, nil, fmt.Errorf("invalid label name %q", name)
		}
		if _, dup := labels[name]; dup {
			return 0, nil, fmt.Errorf("duplicate label %q", name)
		}
		if j+1 >= len(text) || text[j+1] != '"' {
			return 0, nil, fmt.Errorf("label %s: value not quoted", name)
		}
		val, n, err := parseQuoted(text[j+1:])
		if err != nil {
			return 0, nil, fmt.Errorf("label %s: %w", name, err)
		}
		labels[name] = val
		i = j + 1 + n
	}
}

// parseQuoted consumes a "..." string with \\, \" and \n escapes,
// returning the decoded value and bytes consumed.
func parseQuoted(text string) (string, int, error) {
	var b strings.Builder
	for i := 1; i < len(text); i++ {
		switch text[i] {
		case '"':
			return b.String(), i + 1, nil
		case '\\':
			i++
			if i >= len(text) {
				return "", 0, fmt.Errorf("dangling escape")
			}
			switch text[i] {
			case '\\':
				b.WriteByte('\\')
			case '"':
				b.WriteByte('"')
			case 'n':
				b.WriteByte('\n')
			default:
				return "", 0, fmt.Errorf("bad escape \\%c", text[i])
			}
		default:
			b.WriteByte(text[i])
		}
	}
	return "", 0, fmt.Errorf("unterminated quoted string")
}

func parseValue(raw string) (float64, error) {
	switch raw {
	case "+Inf":
		return math.Inf(1), nil
	case "-Inf":
		return math.Inf(-1), nil
	case "NaN":
		return math.NaN(), nil
	}
	return strconv.ParseFloat(raw, 64)
}

// checkHistogram validates one histogram family: per label set, the
// bounds must be strictly ascending and never NaN (so one bound
// spelled twice, le="1" and le="1.0", is a duplicate), the bucket
// counts must be cumulative and non-decreasing, the last bucket must
// be le="+Inf", and its count must equal _count.
func checkHistogram(fam *PromFamily) error {
	type hist struct {
		bounds []float64 // parsed le values, in sample order
		counts []float64
		sum    float64
		count  float64
		hasSum bool
		hasCnt bool
	}
	series := map[string]*hist{}
	get := func(labels map[string]string) *hist {
		key := renderSampleLabels(labels)
		h := series[key]
		if h == nil {
			h = &hist{}
			series[key] = h
		}
		return h
	}
	for _, s := range fam.Samples {
		switch {
		case s.Name == fam.Name+"_bucket":
			le, ok := s.Labels["le"]
			if !ok {
				return fmt.Errorf("%s: bucket without le label", fam.Name)
			}
			bound, err := parseValue(le)
			if err != nil {
				return fmt.Errorf("%s: bad le %q", fam.Name, le)
			}
			rest := map[string]string{}
			for k, v := range s.Labels {
				if k != "le" {
					rest[k] = v
				}
			}
			h := get(rest)
			h.bounds = append(h.bounds, bound)
			h.counts = append(h.counts, s.Value)
		case s.Name == fam.Name+"_sum":
			h := get(s.Labels)
			h.sum, h.hasSum = s.Value, true
		case s.Name == fam.Name+"_count":
			h := get(s.Labels)
			h.count, h.hasCnt = s.Value, true
		default:
			return fmt.Errorf("%s: stray sample %s in histogram family", fam.Name, s.Name)
		}
	}
	for key, h := range series {
		if len(h.bounds) == 0 || !h.hasSum || !h.hasCnt {
			return fmt.Errorf("%s%s: incomplete histogram", fam.Name, key)
		}
		for i, b := range h.bounds {
			if math.IsNaN(b) {
				return fmt.Errorf("%s%s: NaN bucket bound", fam.Name, key)
			}
			if i > 0 && b <= h.bounds[i-1] {
				return fmt.Errorf("%s%s: bucket bounds not strictly ascending", fam.Name, key)
			}
		}
		if !math.IsInf(h.bounds[len(h.bounds)-1], 1) {
			return fmt.Errorf("%s%s: missing le=\"+Inf\" bucket", fam.Name, key)
		}
		for i := 1; i < len(h.counts); i++ {
			if h.counts[i] < h.counts[i-1] {
				return fmt.Errorf("%s%s: bucket counts not cumulative", fam.Name, key)
			}
		}
		if h.counts[len(h.counts)-1] != h.count {
			return fmt.Errorf("%s%s: +Inf bucket %v != count %v", fam.Name, key, h.counts[len(h.counts)-1], h.count)
		}
	}
	return nil
}

func renderSampleLabels(labels map[string]string) string {
	if len(labels) == 0 {
		return ""
	}
	keys := make([]string, 0, len(labels))
	for k := range labels {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	var b strings.Builder
	b.WriteByte('{')
	for i, k := range keys {
		if i > 0 {
			b.WriteByte(',')
		}
		fmt.Fprintf(&b, "%s=%q", k, labels[k])
	}
	b.WriteByte('}')
	return b.String()
}

// Sample returns the sample of family fam whose labels exactly match
// want (nil matches the unlabeled series), or false.
func (fam *PromFamily) Sample(name string, want map[string]string) (PromSample, bool) {
	for _, s := range fam.Samples {
		if s.Name != name {
			continue
		}
		if len(s.Labels) != len(want) {
			continue
		}
		match := true
		for k, v := range want {
			if s.Labels[k] != v {
				match = false
				break
			}
		}
		if match {
			return s, true
		}
	}
	return PromSample{}, false
}

// Value returns the value of the family's sample matching name and
// labels, or an error naming what is missing.
func (fam *PromFamily) Value(name string, labels map[string]string) (float64, error) {
	s, ok := fam.Sample(name, labels)
	if !ok {
		return 0, fmt.Errorf("%s: no sample %s%s", fam.Name, name, renderSampleLabels(labels))
	}
	return s.Value, nil
}

// HistCount returns the _count of the histogram family's series with
// the given labels (nil = unlabeled).
func (fam *PromFamily) HistCount(labels map[string]string) (float64, error) {
	return fam.Value(fam.Name+"_count", labels)
}
