package metrics

import (
	"fmt"
	"sort"
	"strconv"
	"strings"
	"sync"
)

// This file is the labeled half of the metrics package: families of
// counters/gauges/histograms keyed by label values (die, region, priority),
// collected in a Registry and rendered as Prometheus text exposition format
// by a pure-Go encoder (Registry.Text, no client library dependency).

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

// child is one labeled member of a family.
type child struct {
	values  []string
	counter *Counter
	gauge   *Gauge
	hist    *Histogram
}

// Family is a named set of metrics sharing a label schema.  Children are
// created on first use via the typed wrappers' With methods and live until
// they are deleted (the label space here — dies, regions, priorities, database
// objects — is small and bounded; only a dropped object's children go).
type Family struct {
	name   string
	help   string
	kind   Kind
	labels []string

	mu       sync.Mutex
	children map[string]*child
}

// childKey joins label values with an unprintable separator.
func childKey(values []string) string {
	return strings.Join(values, "\x1f")
}

func (f *Family) get(values []string) *child {
	if len(values) != len(f.labels) {
		panic(fmt.Sprintf("metrics: family %s wants %d label values, got %d",
			f.name, len(f.labels), len(values)))
	}
	key := childKey(values)
	f.mu.Lock()
	defer f.mu.Unlock()
	c, ok := f.children[key]
	if !ok {
		c = &child{values: append([]string(nil), values...)}
		switch f.kind {
		case KindCounter:
			c.counter = &Counter{}
		case KindGauge:
			c.gauge = &Gauge{}
		case KindHistogram:
			c.hist = NewHistogram()
		}
		f.children[key] = c
	}
	return c
}

// CounterFamily is a family of labeled counters.
type CounterFamily struct{ f *Family }

// With returns the counter for the given label values, creating it if needed.
func (cf CounterFamily) With(values ...string) *Counter { return cf.f.get(values).counter }

// Delete removes the counter for the given label values from the family; a
// holder of the child can still read it, but it is no longer exposed.
func (cf CounterFamily) Delete(values ...string) {
	cf.f.mu.Lock()
	delete(cf.f.children, childKey(values))
	cf.f.mu.Unlock()
}

// GaugeFamily is a family of labeled gauges.
type GaugeFamily struct{ f *Family }

// With returns the gauge for the given label values, creating it if needed.
func (gf GaugeFamily) With(values ...string) *Gauge { return gf.f.get(values).gauge }

// HistogramFamily is a family of labeled histograms.
type HistogramFamily struct{ f *Family }

// With returns the histogram for the given label values, creating it if
// needed.
func (hf HistogramFamily) With(values ...string) *Histogram { return hf.f.get(values).hist }

// Registry is a collection of metric families rendered together.  Family
// registration is idempotent: asking again for the same (name, kind, labels)
// returns the existing family, so independent subsystems can share families
// without coordination.  A name re-registered with a different kind or label
// schema panics — that is a programming error, not a runtime condition.
type Registry struct {
	mu       sync.Mutex
	families map[string]*Family
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{families: make(map[string]*Family)}
}

func (r *Registry) family(name, help string, kind Kind, labels []string) *Family {
	if !validMetricName(name) {
		panic(fmt.Sprintf("metrics: invalid metric name %q", name))
	}
	for _, l := range labels {
		if !validLabelName(l) {
			panic(fmt.Sprintf("metrics: invalid label name %q on %s", l, name))
		}
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	f, ok := r.families[name]
	if ok {
		if f.kind != kind || !equalStrings(f.labels, labels) {
			panic(fmt.Sprintf("metrics: family %s re-registered as %s%v, was %s%v",
				name, kind, labels, f.kind, f.labels))
		}
		return f
	}
	f = &Family{
		name:     name,
		help:     help,
		kind:     kind,
		labels:   append([]string(nil), labels...),
		children: make(map[string]*child),
	}
	r.families[name] = f
	return f
}

func equalStrings(a, b []string) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// Counter registers (or finds) a counter family.
func (r *Registry) Counter(name, help string, labels ...string) CounterFamily {
	return CounterFamily{r.family(name, help, KindCounter, labels)}
}

// Gauge registers (or finds) a gauge family.
func (r *Registry) Gauge(name, help string, labels ...string) GaugeFamily {
	return GaugeFamily{r.family(name, help, KindGauge, labels)}
}

// Histogram registers (or finds) a histogram family.
func (r *Registry) Histogram(name, help string, labels ...string) HistogramFamily {
	return HistogramFamily{r.family(name, help, KindHistogram, labels)}
}

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

// Text renders every family as Prometheus text exposition format
// (version 0.0.4): families sorted by name, each with HELP and TYPE lines,
// children sorted by label values.  Histograms are rendered in seconds with
// cumulative le buckets (sparse: only buckets that gained observations are
// emitted, plus the mandatory +Inf), _sum and _count.
func (r *Registry) Text() string {
	r.mu.Lock()
	names := make([]string, 0, len(r.families))
	for name := range r.families {
		names = append(names, name)
	}
	sort.Strings(names)
	families := make([]*Family, len(names))
	for i, name := range names {
		families[i] = r.families[name]
	}
	r.mu.Unlock()

	var b strings.Builder
	for _, f := range families {
		f.mu.Lock()
		keys := make([]string, 0, len(f.children))
		for k := range f.children {
			keys = append(keys, k)
		}
		sort.Strings(keys)
		children := make([]*child, len(keys))
		for i, k := range keys {
			children[i] = f.children[k]
		}
		f.mu.Unlock()
		if len(children) == 0 {
			continue // a family with no children yet has nothing to expose
		}

		if f.help != "" {
			fmt.Fprintf(&b, "# HELP %s %s\n", f.name, escapeHelp(f.help))
		}
		fmt.Fprintf(&b, "# TYPE %s %s\n", f.name, f.kind)
		for _, c := range children {
			switch f.kind {
			case KindCounter:
				fmt.Fprintf(&b, "%s%s %d\n", f.name,
					labelPairs(f.labels, c.values, "", ""), c.counter.Value())
			case KindGauge:
				fmt.Fprintf(&b, "%s%s %d\n", f.name,
					labelPairs(f.labels, c.values, "", ""), c.gauge.Value())
			case KindHistogram:
				buckets, count, sum := c.hist.exportBuckets()
				var cum int64
				for i, n := range buckets {
					if n == 0 {
						continue
					}
					cum += n
					fmt.Fprintf(&b, "%s_bucket%s %d\n", f.name,
						labelPairs(f.labels, c.values, "le", formatSeconds(bucketUpper(i))), cum)
				}
				fmt.Fprintf(&b, "%s_bucket%s %d\n", f.name,
					labelPairs(f.labels, c.values, "le", "+Inf"), count)
				fmt.Fprintf(&b, "%s_sum%s %s\n", f.name,
					labelPairs(f.labels, c.values, "", ""), formatSeconds(sum))
				fmt.Fprintf(&b, "%s_count%s %d\n", f.name,
					labelPairs(f.labels, c.values, "", ""), count)
			}
		}
	}
	return b.String()
}
