package metrics

import (
	"fmt"
	"strings"
	"sync"
	"testing"
	"time"
)

func TestRegistryFamiliesAndText(t *testing.T) {
	r := NewRegistry()
	reqs := r.Counter("noftl_requests_total", "Flash requests.", "die", "priority")
	reqs.With("0", "host_read").Add(5)
	reqs.With("1", "gc").Inc()
	depth := r.Gauge("noftl_queue_depth", "Scheduler queue depth.")
	depth.With().Set(7)
	lat := r.Histogram("noftl_latency_seconds", "Latency.", "priority")
	lat.With("host_write").Observe(100 * time.Microsecond)
	lat.With("host_write").Observe(3 * time.Millisecond)

	text := r.Text()
	for _, want := range []string{
		"# HELP noftl_requests_total Flash requests.",
		"# TYPE noftl_requests_total counter",
		`noftl_requests_total{die="0",priority="host_read"} 5`,
		`noftl_requests_total{die="1",priority="gc"} 1`,
		"# TYPE noftl_queue_depth gauge",
		"noftl_queue_depth 7",
		"# TYPE noftl_latency_seconds histogram",
		`noftl_latency_seconds_bucket{priority="host_write",le="+Inf"} 2`,
		`noftl_latency_seconds_count{priority="host_write"} 2`,
		`noftl_latency_seconds_sum{priority="host_write"} 0.0031`,
	} {
		if !strings.Contains(text, want) {
			t.Fatalf("exposition missing %q:\n%s", want, text)
		}
	}
	if got := strings.Count(text, "# TYPE "); got != 3 {
		t.Fatalf("exposition has %d families, want 3:\n%s", got, text)
	}
}

func TestRegistryIdempotentRegistration(t *testing.T) {
	r := NewRegistry()
	a := r.Counter("x_total", "", "die")
	b := r.Counter("x_total", "", "die")
	a.With("3").Inc()
	if b.With("3").Value() != 1 {
		t.Fatal("re-registration should return the same family")
	}
	defer func() {
		if recover() == nil {
			t.Fatal("kind mismatch should panic")
		}
	}()
	r.Gauge("x_total", "")
}

// TestCounterFamilyDelete: a deleted child leaves the exposition, its holder
// keeps a working counter, and the same labels start a new child from zero.
func TestCounterFamilyDelete(t *testing.T) {
	r := NewRegistry()
	f := r.Counter("obj_total", "", "object", "op")
	old := f.With("T", "read")
	old.Add(5)
	f.With("U", "read").Inc()
	f.Delete("T", "read")
	f.Delete("never", "there")
	if text := r.Text(); strings.Contains(text, `object="T"`) || !strings.Contains(text, `obj_total{object="U",op="read"} 1`) {
		t.Fatalf("after the delete:\n%s", text)
	}
	if old.Inc(); old.Value() != 6 || f.With("T", "read").Value() != 0 {
		t.Fatalf("holder sees %d, the new child %d", old.Value(), f.With("T", "read").Value())
	}
}

func TestRegistryPanicsOnBadNames(t *testing.T) {
	r := NewRegistry()
	for _, bad := range []string{"", "0abc", "has space", "dash-ed"} {
		func() {
			defer func() {
				if recover() == nil {
					t.Fatalf("metric name %q should panic", bad)
				}
			}()
			r.Counter(bad, "")
		}()
	}
	func() {
		defer func() {
			if recover() == nil {
				t.Fatal("reserved label name should panic")
			}
		}()
		r.Counter("ok_total", "", "__reserved")
	}()
}

func TestRegistryLabelEscaping(t *testing.T) {
	r := NewRegistry()
	r.Counter("esc_total", "", "name").With(`a"b\c` + "\n").Inc()
	text := r.Text()
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

// TestConcurrentRegistration exercises family and child get-or-create from
// many goroutines; it is meaningful under -race.
func TestConcurrentRegistration(t *testing.T) {
	r := NewRegistry()
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 200; i++ {
				cf := r.Counter("conc_total", "shared", "die")
				cf.With(fmt.Sprintf("%d", i%4)).Inc()
				hf := r.Histogram("conc_latency_seconds", "shared", "die")
				hf.With(fmt.Sprintf("%d", i%4)).Observe(time.Duration(i) * time.Microsecond)
				if g%2 == 0 {
					_ = r.Text()
				}
			}
		}(g)
	}
	wg.Wait()
	var total int64
	cf := r.Counter("conc_total", "shared", "die")
	for i := 0; i < 4; i++ {
		total += cf.With(fmt.Sprintf("%d", i)).Value()
	}
	if total != 8*200 {
		t.Fatalf("lost increments: %d, want %d", total, 8*200)
	}
	if res := LintExposition([]byte(r.Text())); !res.Valid() {
		t.Fatalf("exposition invalid after concurrent use: %v", res.Problems)
	}
}

func TestLintExpositionAcceptsRegistryOutput(t *testing.T) {
	r := NewRegistry()
	r.Counter("a_total", "help with \\ and \n inside", "die").With("0").Add(2)
	r.Gauge("b", "").With().Set(-3)
	h := r.Histogram("c_seconds", "lat", "region")
	h.With("hot").Observe(time.Millisecond)
	h.With("cold").Observe(time.Second)
	res := LintExposition([]byte(r.Text()))
	if !res.Valid() {
		t.Fatalf("registry output should lint clean: %v", res.Problems)
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
