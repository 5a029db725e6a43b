package metrics

import (
	"fmt"
	"maps"
	"slices"
	"strconv"
	"strings"
)

// This file is the labeled half of the metrics package: families of
// counters/gauges/histograms keyed by label values (die, region, object),
// written into a Text per scrape and rendered as Prometheus text exposition
// format by a pure-Go encoder (Text.String, no client library dependency).

// Kind is the Prometheus type of a metric family.
type Kind uint8

// Family kinds.
const (
	KindCounter Kind = iota
	KindGauge
	KindHistogram
)

func (k Kind) String() string {
	switch k {
	case KindCounter:
		return "counter"
	case KindGauge:
		return "gauge"
	case KindHistogram:
		return "histogram"
	default:
		return "untyped"
	}
}

// validMetricName reports whether s matches [a-zA-Z_:][a-zA-Z0-9_:]*.
func validMetricName(s string) bool {
	if s == "" {
		return false
	}
	for i, r := range s {
		alpha := r == '_' || r == ':' || (r >= 'a' && r <= 'z') || (r >= 'A' && r <= 'Z')
		if !alpha && (i == 0 || r < '0' || r > '9') {
			return false
		}
	}
	return true
}

// validLabelName reports whether s matches [a-zA-Z_][a-zA-Z0-9_]* and is not
// reserved (double-underscore prefix).
func validLabelName(s string) bool {
	if s == "" || strings.HasPrefix(s, "__") {
		return false
	}
	for i, r := range s {
		alpha := r == '_' || (r >= 'a' && r <= 'z') || (r >= 'A' && r <= 'Z')
		if !alpha && (i == 0 || r < '0' || r > '9') {
			return false
		}
	}
	return true
}

// escapeLabelValue escapes a label value for the text exposition format.
func escapeLabelValue(s string) string {
	if !strings.ContainsAny(s, "\\\"\n") {
		return s
	}
	var b strings.Builder
	for _, r := range s {
		switch r {
		case '\\':
			b.WriteString(`\\`)
		case '"':
			b.WriteString(`\"`)
		case '\n':
			b.WriteString(`\n`)
		default:
			b.WriteRune(r)
		}
	}
	return b.String()
}

// escapeHelp escapes a HELP string (backslash and newline only, per format).
func escapeHelp(s string) string {
	s = strings.ReplaceAll(s, `\`, `\\`)
	return strings.ReplaceAll(s, "\n", `\n`)
}

// Text is one scrape's exposition: the families each layer writes its counts
// into, rendered by String.  The zero value is empty and ready to use.
type Text struct {
	families map[string]*Family
}

// Family is a named set of samples sharing a label schema.
type Family struct {
	name, help string
	kind       Kind
	labels     []string
	samples    map[string]*point // by label values joined with \x1f
}

// point is one labeled member of a family: a value, or a histogram.
type point struct {
	values []string
	v      int64
	hist   Histogram
}

// Counter returns the counter family name, adding it on first use.
func (t *Text) Counter(name, help string, labels ...string) *Family {
	return t.family(name, help, KindCounter, labels)
}

// Gauge returns the gauge family name, adding it on first use.
func (t *Text) Gauge(name, help string, labels ...string) *Family {
	return t.family(name, help, KindGauge, labels)
}

// Histogram returns the histogram family name, adding it on first use.
func (t *Text) Histogram(name, help string, labels ...string) *Family {
	return t.family(name, help, KindHistogram, labels)
}

func (t *Text) family(name, help string, kind Kind, labels []string) *Family {
	if f, ok := t.families[name]; ok {
		return f
	}
	if t.families == nil {
		t.families = make(map[string]*Family)
	}
	f := &Family{name: name, help: help, kind: kind, labels: labels, samples: make(map[string]*point)}
	t.families[name] = f
	return f
}

// get returns the point of the given label values, adding it on first use.
func (f *Family) get(values []string) *point {
	key := strings.Join(values, "\x1f")
	s, ok := f.samples[key]
	if !ok {
		s = &point{values: values}
		f.samples[key] = s
	}
	return s
}

// Add adds v to the sample of the given label values: a counter's count or a
// gauge's value.
func (f *Family) Add(v int64, values ...string) { f.get(values).v += v }

// Histogram adds h's observations to the sample of the given label values.
func (f *Family) Histogram(h *Histogram, values ...string) { f.get(values).hist.Merge(h) }

// labelPairs renders {k="v",...} for sample lines; extra appends one more
// pair (the histogram le label).  Empty schema and no extra renders nothing.
func labelPairs(names, values []string, extraName, extraValue string) string {
	if len(names) == 0 && extraName == "" {
		return ""
	}
	var b strings.Builder
	b.WriteByte('{')
	for i, n := range names {
		if i > 0 {
			b.WriteByte(',')
		}
		b.WriteString(n)
		b.WriteString(`="`)
		b.WriteString(escapeLabelValue(values[i]))
		b.WriteString(`"`)
	}
	if extraName != "" {
		if len(names) > 0 {
			b.WriteByte(',')
		}
		b.WriteString(extraName)
		b.WriteString(`="`)
		b.WriteString(extraValue)
		b.WriteString(`"`)
	}
	b.WriteByte('}')
	return b.String()
}

// formatSeconds renders a nanosecond quantity as seconds, the Prometheus base
// unit for time.
func formatSeconds(ns int64) string {
	return strconv.FormatFloat(float64(ns)/1e9, 'g', -1, 64)
}

// String renders every family as Prometheus text exposition format
// (version 0.0.4): families sorted by name, each with HELP and TYPE lines,
// samples sorted by their label values joined with \x1f; a family with no
// samples is left out.  Histograms are rendered in seconds with cumulative le
// buckets (sparse: only buckets that gained observations are emitted, plus the
// mandatory +Inf), _sum and _count.
func (t *Text) String() string {
	var b strings.Builder
	for _, name := range slices.Sorted(maps.Keys(t.families)) {
		f := t.families[name]
		if len(f.samples) == 0 {
			continue
		}
		if f.help != "" {
			fmt.Fprintf(&b, "# HELP %s %s\n", f.name, escapeHelp(f.help))
		}
		fmt.Fprintf(&b, "# TYPE %s %s\n", f.name, f.kind)
		for _, key := range slices.Sorted(maps.Keys(f.samples)) {
			s := f.samples[key]
			if f.kind != KindHistogram {
				fmt.Fprintf(&b, "%s%s %d\n", f.name, labelPairs(f.labels, s.values, "", ""), s.v)
				continue
			}
			buckets, count, sum := s.hist.exportBuckets()
			var cum int64
			for i, n := range buckets {
				if n == 0 {
					continue
				}
				cum += n
				fmt.Fprintf(&b, "%s_bucket%s %d\n", f.name,
					labelPairs(f.labels, s.values, "le", formatSeconds(bucketUpper(i))), cum)
			}
			fmt.Fprintf(&b, "%s_bucket%s %d\n", f.name,
				labelPairs(f.labels, s.values, "le", "+Inf"), count)
			fmt.Fprintf(&b, "%s_sum%s %s\n", f.name,
				labelPairs(f.labels, s.values, "", ""), formatSeconds(sum))
			fmt.Fprintf(&b, "%s_count%s %d\n", f.name,
				labelPairs(f.labels, s.values, "", ""), count)
		}
	}
	return b.String()
}
