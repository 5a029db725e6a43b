package metrics

import (
	"strings"
	"testing"
	"time"
)

// TestRegistryFamiliesAndText: the writer renders families by name and
// samples by their label values joined with \x1f (so die "10" sorts before
// "2"), sums what is added twice under the same labels, and leaves out a
// family nothing was written to.
func TestRegistryFamiliesAndText(t *testing.T) {
	var mt Text
	reqs := mt.Counter("noftl_requests_total", "Flash requests.", "die", "priority")
	reqs.Add(5, "2", "host_read")
	reqs.Add(1, "10", "gc")
	reqs.Add(2, "2", "host_read")
	mt.Gauge("noftl_queue_depth", "Scheduler queue depth.").Add(7)
	mt.Counter("noftl_empty_total", "Nothing written.", "die")
	var h1, h2 Histogram
	h1.Observe(100 * time.Microsecond)
	h2.Observe(3 * time.Millisecond)
	lat := mt.Histogram("noftl_latency_seconds", "Latency.", "priority")
	lat.Histogram(h1.Snapshot(), "host_write")
	lat.Histogram(h2.Snapshot(), "host_write")

	want := `# HELP noftl_latency_seconds Latency.
# TYPE noftl_latency_seconds histogram
noftl_latency_seconds_bucket{priority="host_write",le="0.000131071"} 1
noftl_latency_seconds_bucket{priority="host_write",le="0.004194303"} 2
noftl_latency_seconds_bucket{priority="host_write",le="+Inf"} 2
noftl_latency_seconds_sum{priority="host_write"} 0.0031
noftl_latency_seconds_count{priority="host_write"} 2
# HELP noftl_queue_depth Scheduler queue depth.
# TYPE noftl_queue_depth gauge
noftl_queue_depth 7
# HELP noftl_requests_total Flash requests.
# TYPE noftl_requests_total counter
noftl_requests_total{die="10",priority="gc"} 1
noftl_requests_total{die="2",priority="host_read"} 7
`
	if got := mt.String(); got != want {
		t.Fatalf("exposition:\n%s\nwant:\n%s", got, want)
	}
}

func TestRegistryLabelEscaping(t *testing.T) {
	var mt Text
	mt.Counter("esc_total", "", "name").Add(1, `a"b\c`+"\n")
	text := mt.String()
	want := `esc_total{name="a\"b\\c\n"} 1`
	if !strings.Contains(text, want) {
		t.Fatalf("escaping broken, want %s in:\n%s", want, text)
	}
	res := LintExposition([]byte(text))
	if !res.Valid() {
		t.Fatalf("escaped exposition should lint clean: %v", res.Problems)
	}
	if got := res.LabelValues("name"); len(got) != 1 || got[0] != "a\"b\\c\n" {
		t.Fatalf("lint round-tripped label value %q", got)
	}
}

func TestLintExpositionAcceptsRegistryOutput(t *testing.T) {
	var mt Text
	mt.Counter("a_total", "help with \\ and \n inside", "die").Add(2, "0")
	mt.Gauge("b", "").Add(-3)
	var hot, cold Histogram
	hot.Observe(time.Millisecond)
	cold.Observe(time.Second)
	h := mt.Histogram("c_seconds", "lat", "region")
	h.Histogram(hot.Snapshot(), "hot")
	h.Histogram(cold.Snapshot(), "cold")
	res := LintExposition([]byte(mt.String()))
	if !res.Valid() {
		t.Fatalf("writer output should lint clean: %v", res.Problems)
	}
	if res.Families["c_seconds"] != "histogram" || res.Families["a_total"] != "counter" {
		t.Fatalf("families = %v", res.Families)
	}
	if res.Samples == 0 {
		t.Fatal("no samples parsed")
	}
	if got := res.LabelValues("region"); len(got) != 2 {
		t.Fatalf("region values = %v", got)
	}
}

func TestLintExpositionCatchesViolations(t *testing.T) {
	cases := []struct {
		name string
		text string
		want string
	}{
		{"no trailing newline", "# TYPE a counter\na 1", "end with a newline"},
		{"missing TYPE", "a 1\n", "no preceding TYPE"},
		{"bad type", "# TYPE a widget\n", "unknown metric type"},
		{"dup series", "# TYPE a counter\na 1\na 2\n", "duplicate sample"},
		{"bad value", "# TYPE a counter\na pony\n", "unparseable value"},
		{"bad name", "# TYPE a counter\n0a 1\n", "invalid metric name"},
		{"unquoted label", "# TYPE a counter\na{die=0} 1\n", "quoted"},
		{"bare histogram sample", "# TYPE h histogram\nh 1\n", "must be _bucket"},
		{
			"histogram missing +Inf",
			"# TYPE h histogram\nh_bucket{le=\"0.1\"} 1\nh_sum 0.1\nh_count 1\n",
			`missing le="+Inf"`,
		},
		{
			"histogram not cumulative",
			"# TYPE h histogram\nh_bucket{le=\"0.1\"} 5\nh_bucket{le=\"0.2\"} 3\nh_bucket{le=\"+Inf\"} 5\nh_sum 1\nh_count 5\n",
			"not cumulative",
		},
		{
			"histogram count mismatch",
			"# TYPE h histogram\nh_bucket{le=\"+Inf\"} 4\nh_sum 1\nh_count 5\n",
			"!= _count",
		},
	}
	for _, tc := range cases {
		res := LintExposition([]byte(tc.text))
		found := false
		for _, p := range res.Problems {
			if strings.Contains(p, tc.want) {
				found = true
				break
			}
		}
		if !found {
			t.Errorf("%s: want a problem containing %q, got %v", tc.name, tc.want, res.Problems)
		}
	}
}

func TestLintAcceptsSpecialValues(t *testing.T) {
	text := "# TYPE g gauge\ng{k=\"v\"} +Inf\ng{k=\"w\"} NaN\ng{k=\"x\"} -Inf\ng{k=\"y\"} 1.5e-3 1700000000\n"
	res := LintExposition([]byte(text))
	if !res.Valid() {
		t.Fatalf("special values should parse: %v", res.Problems)
	}
	if res.Samples != 4 {
		t.Fatalf("samples = %d", res.Samples)
	}
}
