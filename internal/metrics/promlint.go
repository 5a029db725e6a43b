package metrics

import (
	"fmt"
	"sort"
	"strconv"
	"strings"
)

// LintResult is the outcome of validating a Prometheus text exposition.
type LintResult struct {
	// Families maps each family name to its declared TYPE ("counter",
	// "gauge", "histogram", "summary", "untyped").
	Families map[string]string
	// Samples is the number of sample lines parsed.
	Samples int
	// Problems lists every format violation found (empty = valid).
	Problems []string

	labelValues map[string][]string
	samples     []sample
}

// sample is one parsed sample line.
type sample struct {
	name   string
	labels map[string]string
	value  float64
}

// Valid reports whether the exposition parsed without problems.
func (r LintResult) Valid() bool { return len(r.Problems) == 0 }

// LabelValues returns the distinct values seen for a label name across all
// samples, sorted.  Used by the CI scrape check to assert per-die/per-region
// labels are really populated.
func (r LintResult) LabelValues(label string) []string { return r.labelValues[label] }

// Sum adds up the values of every sample called name (histogram series carry
// their _bucket/_sum/_count suffix) whose labels include all the given
// label, value pairs.  With a full label set it reads one series; with fewer
// it aggregates, e.g. per-die samples into the device total.
func (r LintResult) Sum(name string, labelValuePairs ...string) float64 {
	var total float64
samples:
	for _, s := range r.samples {
		if s.name != name {
			continue
		}
		for i := 0; i+1 < len(labelValuePairs); i += 2 {
			if s.labels[labelValuePairs[i]] != labelValuePairs[i+1] {
				continue samples
			}
		}
		total += s.value
	}
	return total
}

// LintExposition validates Prometheus text exposition format (version 0.0.4)
// without any external tooling: HELP/TYPE comment syntax, metric and label
// name charsets, label value quoting/escaping, float sample values, sample
// lines appearing under a matching TYPE, histogram completeness (_bucket with
// le including +Inf, _sum, _count, cumulative non-decreasing buckets) and
// duplicate series detection.
func LintExposition(data []byte) LintResult {
	res := LintResult{
		Families:    make(map[string]string),
		labelValues: make(map[string][]string),
	}
	labelSeen := make(map[string]map[string]bool) // label name -> set of values
	seenSeries := make(map[string]bool)           // name+labels -> dup check
	helpSeen := make(map[string]bool)
	type histState struct {
		hasInf        bool
		hasSum        bool
		hasCount      bool
		lastLe        float64
		lastCum       float64
		series        string // label set (minus le) being accumulated
		infCount      float64
		countVal      float64
		countValSet   bool
		monotonicFail bool
	}
	hist := make(map[string]*histState) // family+labelset -> state

	problemf := func(line int, format string, args ...any) {
		res.Problems = append(res.Problems,
			fmt.Sprintf("line %d: %s", line, fmt.Sprintf(format, args...)))
	}

	if len(data) > 0 && data[len(data)-1] != '\n' {
		res.Problems = append(res.Problems, "exposition must end with a newline")
	}

	lines := strings.Split(string(data), "\n")
	for i, line := range lines {
		ln := i + 1
		if line == "" {
			continue
		}
		if strings.HasPrefix(line, "#") {
			rest := strings.TrimPrefix(line, "#")
			if !strings.HasPrefix(rest, " ") {
				problemf(ln, "comment must be '# HELP', '# TYPE' or a plain comment with a space: %q", line)
				continue
			}
			fields := strings.SplitN(strings.TrimPrefix(rest, " "), " ", 3)
			switch fields[0] {
			case "HELP":
				if len(fields) < 2 || !validMetricName(fields[1]) {
					problemf(ln, "malformed HELP line: %q", line)
					continue
				}
				if helpSeen[fields[1]] {
					problemf(ln, "duplicate HELP for %s", fields[1])
				}
				helpSeen[fields[1]] = true
			case "TYPE":
				if len(fields) != 3 || !validMetricName(fields[1]) {
					problemf(ln, "malformed TYPE line: %q", line)
					continue
				}
				switch fields[2] {
				case "counter", "gauge", "histogram", "summary", "untyped":
				default:
					problemf(ln, "unknown metric type %q", fields[2])
					continue
				}
				if _, dup := res.Families[fields[1]]; dup {
					problemf(ln, "duplicate TYPE for %s", fields[1])
				}
				res.Families[fields[1]] = fields[2]
			}
			continue
		}

		name, labels, value, err := parseSampleLine(line)
		if err != nil {
			problemf(ln, "%v", err)
			continue
		}
		res.Samples++
		byName := make(map[string]string, len(labels))
		res.samples = append(res.samples, sample{name, byName, value})
		for _, lp := range labels {
			byName[lp.name] = lp.value
			set := labelSeen[lp.name]
			if set == nil {
				set = make(map[string]bool)
				labelSeen[lp.name] = set
			}
			set[lp.value] = true
		}

		// Resolve the family: histogram samples use suffixed names.
		family, isBucket, isSum, isCount := name, false, false, false
		if typ := res.Families[strings.TrimSuffix(name, "_bucket")]; typ == "histogram" && strings.HasSuffix(name, "_bucket") {
			family, isBucket = strings.TrimSuffix(name, "_bucket"), true
		} else if typ := res.Families[strings.TrimSuffix(name, "_sum")]; typ == "histogram" && strings.HasSuffix(name, "_sum") {
			family, isSum = strings.TrimSuffix(name, "_sum"), true
		} else if typ := res.Families[strings.TrimSuffix(name, "_count")]; typ == "histogram" && strings.HasSuffix(name, "_count") {
			family, isCount = strings.TrimSuffix(name, "_count"), true
		}
		typ, typed := res.Families[family]
		if !typed {
			problemf(ln, "sample %s has no preceding TYPE line", name)
		} else if typ == "histogram" && !isBucket && !isSum && !isCount {
			problemf(ln, "histogram %s sample must be _bucket, _sum or _count", family)
		}

		// Duplicate-series detection (le participates in bucket identity).
		sort.Slice(labels, func(a, b int) bool { return labels[a].name < labels[b].name })
		var sk strings.Builder
		sk.WriteString(name)
		var le string
		for _, lp := range labels {
			sk.WriteString("\x1f")
			sk.WriteString(lp.name)
			sk.WriteString("=")
			sk.WriteString(lp.value)
			if lp.name == "le" {
				le = lp.value
			}
		}
		if seenSeries[sk.String()] {
			problemf(ln, "duplicate sample for series %s", sk.String())
		}
		seenSeries[sk.String()] = true

		if typ == "histogram" {
			// Histogram-shape accounting per family+labelset (minus le).
			var hk strings.Builder
			hk.WriteString(family)
			for _, lp := range labels {
				if lp.name == "le" {
					continue
				}
				hk.WriteString("\x1f")
				hk.WriteString(lp.name)
				hk.WriteString("=")
				hk.WriteString(lp.value)
			}
			hs := hist[hk.String()]
			if hs == nil {
				hs = &histState{lastLe: -1, series: hk.String()}
				hist[hk.String()] = hs
			}
			switch {
			case isBucket:
				if le == "" {
					problemf(ln, "histogram bucket without le label: %s", line)
					break
				}
				if le == "+Inf" {
					hs.hasInf = true
					hs.infCount = value
					break
				}
				lef, err := strconv.ParseFloat(le, 64)
				if err != nil {
					problemf(ln, "unparseable le %q", le)
					break
				}
				if lef < hs.lastLe {
					problemf(ln, "histogram %s buckets out of order (le %g after %g)", family, lef, hs.lastLe)
				}
				if value < hs.lastCum {
					hs.monotonicFail = true
					problemf(ln, "histogram %s bucket counts not cumulative at le=%g", family, lef)
				}
				hs.lastLe, hs.lastCum = lef, value
			case isSum:
				hs.hasSum = true
			case isCount:
				hs.hasCount = true
				hs.countVal, hs.countValSet = value, true
			}
		}
	}

	// Post-pass: every histogram labelset must be complete and consistent.
	hkeys := make([]string, 0, len(hist))
	for k := range hist {
		hkeys = append(hkeys, k)
	}
	sort.Strings(hkeys)
	for _, k := range hkeys {
		hs := hist[k]
		pretty := strings.ReplaceAll(k, "\x1f", " ")
		if !hs.hasInf {
			res.Problems = append(res.Problems,
				fmt.Sprintf("histogram %s missing le=\"+Inf\" bucket", pretty))
		}
		if !hs.hasSum {
			res.Problems = append(res.Problems,
				fmt.Sprintf("histogram %s missing _sum", pretty))
		}
		if !hs.hasCount {
			res.Problems = append(res.Problems,
				fmt.Sprintf("histogram %s missing _count", pretty))
		}
		if hs.hasInf && hs.countValSet && hs.infCount != hs.countVal {
			res.Problems = append(res.Problems,
				fmt.Sprintf("histogram %s: +Inf bucket %g != _count %g", pretty, hs.infCount, hs.countVal))
		}
	}

	for name, set := range labelSeen {
		vals := make([]string, 0, len(set))
		for v := range set {
			vals = append(vals, v)
		}
		sort.Strings(vals)
		res.labelValues[name] = vals
	}
	return res
}

type labelPair struct{ name, value string }

// parseSampleLine parses `name{k="v",...} value [timestamp]`.
func parseSampleLine(line string) (string, []labelPair, float64, error) {
	rest := line
	nameEnd := strings.IndexAny(rest, "{ ")
	if nameEnd < 0 {
		return "", nil, 0, fmt.Errorf("malformed sample line %q", line)
	}
	name := rest[:nameEnd]
	if !validMetricName(name) {
		return "", nil, 0, fmt.Errorf("invalid metric name %q", name)
	}
	rest = rest[nameEnd:]

	var labels []labelPair
	if rest[0] == '{' {
		rest = rest[1:]
		for {
			rest = strings.TrimLeft(rest, " ")
			if rest == "" {
				return "", nil, 0, fmt.Errorf("unterminated label set in %q", line)
			}
			if rest[0] == '}' {
				rest = rest[1:]
				break
			}
			eq := strings.Index(rest, "=")
			if eq < 0 {
				return "", nil, 0, fmt.Errorf("malformed label in %q", line)
			}
			lname := strings.TrimSpace(rest[:eq])
			if !validLabelName(lname) {
				return "", nil, 0, fmt.Errorf("invalid label name %q", lname)
			}
			rest = rest[eq+1:]
			if rest == "" || rest[0] != '"' {
				return "", nil, 0, fmt.Errorf("label value must be quoted in %q", line)
			}
			rest = rest[1:]
			var val strings.Builder
			closed := false
			for len(rest) > 0 {
				c := rest[0]
				if c == '\\' {
					if len(rest) < 2 {
						return "", nil, 0, fmt.Errorf("dangling escape in %q", line)
					}
					switch rest[1] {
					case '\\':
						val.WriteByte('\\')
					case '"':
						val.WriteByte('"')
					case 'n':
						val.WriteByte('\n')
					default:
						return "", nil, 0, fmt.Errorf("invalid escape \\%c in %q", rest[1], line)
					}
					rest = rest[2:]
					continue
				}
				if c == '"' {
					rest = rest[1:]
					closed = true
					break
				}
				val.WriteByte(c)
				rest = rest[1:]
			}
			if !closed {
				return "", nil, 0, fmt.Errorf("unterminated label value in %q", line)
			}
			labels = append(labels, labelPair{lname, val.String()})
			if len(rest) > 0 && rest[0] == ',' {
				rest = rest[1:]
			}
		}
	}

	rest = strings.TrimLeft(rest, " ")
	fields := strings.Fields(rest)
	if len(fields) < 1 || len(fields) > 2 {
		return "", nil, 0, fmt.Errorf("expected value (and optional timestamp) in %q", line)
	}
	v, err := parsePromFloat(fields[0])
	if err != nil {
		return "", nil, 0, fmt.Errorf("unparseable value %q", fields[0])
	}
	if len(fields) == 2 {
		if _, err := strconv.ParseInt(fields[1], 10, 64); err != nil {
			return "", nil, 0, fmt.Errorf("unparseable timestamp %q", fields[1])
		}
	}
	return name, labels, v, nil
}

// parsePromFloat accepts Go float syntax plus the exposition spellings of
// special values (+Inf, -Inf, NaN).
func parsePromFloat(s string) (float64, error) {
	switch s {
	case "+Inf", "Inf":
		return strconv.ParseFloat("+Inf", 64)
	case "-Inf":
		return strconv.ParseFloat("-Inf", 64)
	case "NaN", "nan":
		return strconv.ParseFloat("NaN", 64)
	}
	return strconv.ParseFloat(s, 64)
}
