package main

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"strings"
)

// paperDelta is one row of the paper's headline comparison of Regions against
// traditional placement (Figure 3 and the abstract), as a relative change.
type paperDelta struct {
	label string
	extra string // key in result.Extra
	perK  bool   // normalise by thousands of operations before comparing
	paper float64
}

var paperDeltas = []paperDelta{
	{"throughput (sim ops/s)", "sim_ops_per_s", false, +0.21},
	{"4 KB read latency (sim us)", "sim_read_4k_us", false, -0.40},
	{"4 KB write latency (sim us)", "sim_write_4k_us", false, -0.38},
	{"GC copybacks", "gc_copybacks", false, -0.19},
	{"GC erases", "gc_erases", false, -0.043},
	{"host I/Os served", "host_ios", false, +0.20},
	{"GC copybacks per kop", "gc_copybacks", true, -0.19},
	{"GC erases per kop", "gc_erases", true, -0.043},
}

// fidelityTable compares the two TPC-C runs the way the paper does and puts
// the model's error next to each of the paper's numbers.  It is printed and
// written to --out, never gated: it says how far the reproduction is from the
// paper, not whether a change is acceptable.
func fidelityTable(regions, traditional *result) string {
	var b strings.Builder
	fmt.Fprintf(&b, "\nFidelity: Regions vs traditional placement, TPC-C, same fixed simulated duration (not gated)\n")
	fmt.Fprintf(&b, "  %-28s %14s %14s %9s %9s %9s\n", "", "traditional", "regions", "delta", "paper", "error")
	for _, d := range paperDeltas {
		trad, reg := traditional.Extra[d.extra], regions.Extra[d.extra]
		if d.perK {
			trad = 1e3 * ratio(trad, traditional.Extra["ops"])
			reg = 1e3 * ratio(reg, regions.Extra["ops"])
		}
		delta := ratio(reg-trad, trad)
		fmt.Fprintf(&b, "  %-28s %14.4f %14.4f %+8.1f%% %+8.1f%% %+8.1f pp\n",
			d.label, trad, reg, 100*delta, 100*d.paper, 100*(delta-d.paper))
	}
	return b.String()
}

// loadResults reads every untraced result file of a directory, grouped by
// workload.
func loadResults(dir string) (map[string][]*result, error) {
	files, err := filepath.Glob(filepath.Join(dir, "*.untraced.json"))
	if err != nil {
		return nil, err
	}
	if len(files) == 0 {
		return nil, fmt.Errorf("%s: no *.untraced.json result files", dir)
	}
	out := make(map[string][]*result)
	for _, f := range files {
		data, err := os.ReadFile(f)
		if err != nil {
			return nil, err
		}
		var r result
		if err := json.Unmarshal(data, &r); err != nil {
			return nil, fmt.Errorf("%s: %w", f, err)
		}
		out[r.Workload] = append(out[r.Workload], &r)
	}
	return out, nil
}

// verdict classifies one workload x metric pairing: the relative worsening
// of B's median against A's, judged against the metric's bound and against
// A's own run-to-run spread.
func verdict(def metricDef, a, b []float64) (worse, spreadA float64, label string) {
	ma, mb := median(a), median(b)
	worse = ratio(mb-ma, ma)
	if def.Better == higher {
		worse = -worse
	}
	spreadA = spread(a)
	switch {
	case worse > def.Bound:
		label = "outside bound"
	case spreadA > def.Bound:
		label = "unresolved"
	default:
		label = "ok"
	}
	return worse, spreadA, label
}

// compareDirs prints, per workload and end-to-end metric, how B's median
// differs from A's, and reports whether any pairing is outside its bound.
func compareDirs(w io.Writer, dirA, dirB string) (outside bool, err error) {
	a, err := loadResults(dirA)
	if err != nil {
		return false, err
	}
	b, err := loadResults(dirB)
	if err != nil {
		return false, err
	}
	values := func(rs []*result, metric string) []float64 {
		v := make([]float64, 0, len(rs))
		for _, r := range rs {
			v = append(v, r.Metrics[metric])
		}
		return v
	}
	fmt.Fprintf(w, "%-18s %-16s %14s %14s %9s %8s %8s  %s\n", "workload", "metric", "A median", "B median", "worse by", "bound", "A spread", "verdict")
	for _, wl := range workloads {
		if len(a[wl.Name]) == 0 || len(b[wl.Name]) == 0 {
			missing := dirB
			if len(a[wl.Name]) == 0 {
				missing = dirA
			}
			fmt.Fprintf(w, "%-18s missing from %s\n", wl.Name, missing)
			outside = true
			continue
		}
		for _, d := range endToEnd {
			va, vb := values(a[wl.Name], d.Name), values(b[wl.Name], d.Name)
			worse, sp, label := verdict(d, va, vb)
			if label == "outside bound" {
				outside = true
			}
			fmt.Fprintf(w, "%-18s %-16s %14.6g %14.6g %+8.2f%% %7.0f%% %7.2f%%  %s\n",
				wl.Name, d.Name, median(va), median(vb), 100*worse, 100*d.Bound, 100*sp, label)
		}
	}
	return outside, nil
}
