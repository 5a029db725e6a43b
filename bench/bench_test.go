package main

import (
	"bytes"
	"encoding/json"
	"math"
	"os"
	"regexp"
	"testing"
	"time"
)

var (
	nameRE = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	unitRE = regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)
)

// TestSpec checks the metric and workload definitions against the limits of
// the benchmark contract, and that the committed BENCHMARK.json is exactly
// what the program would print.
func TestSpec(t *testing.T) {
	seen := make(map[string]bool)
	checkName := func(kind, name string) {
		if !nameRE.MatchString(name) {
			t.Errorf("%s name %q uses characters outside letters, digits, '_', '.', '-'", kind, name)
		}
		if seen[name] {
			t.Errorf("%s name %q is used twice", kind, name)
		}
		seen[name] = true
	}
	if n := len(workloads); n < 2 || n > 8 {
		t.Errorf("%d workloads, want 2..8", n)
	}
	for _, w := range workloads {
		checkName("workload", w.Name)
		if len(w.Why) == 0 || len(w.Why) > 200 {
			t.Errorf("workload %s: why has %d characters, want 1..200", w.Name, len(w.Why))
		}
	}
	if n := len(endToEnd); n < 1 || n > 16 {
		t.Errorf("%d end-to-end metrics, want 1..16", n)
	}
	if n := len(perLayer); n < 1 || n > 128 {
		t.Errorf("%d per-layer metrics, want 1..128", n)
	}
	var setupBound, maxBound float64
	for _, m := range endToEnd {
		checkName("metric", m.Name)
		if m.Bound <= 0 || m.Bound > 0.25 {
			t.Errorf("metric %s: bound %v outside (0, 0.25]", m.Name, m.Bound)
		}
		maxBound = math.Max(maxBound, m.Bound)
		if m.Name == "setup_s" {
			setupBound = m.Bound
			if m.Unit != "s" || m.Better != lower {
				t.Errorf("setup_s must be in s and lower-is-better, got %s / %s", m.Unit, m.Better)
			}
		}
	}
	if setupBound == 0 || setupBound < maxBound {
		t.Errorf("setup_s must exist and carry the largest bound (has %v, largest %v)", setupBound, maxBound)
	}
	for _, m := range append(append([]metricDef(nil), endToEnd...), perLayer...) {
		if !unitRE.MatchString(m.Unit) {
			t.Errorf("metric %s: unit %q is not a valid unit", m.Name, m.Unit)
		}
		if m.Better != lower && m.Better != higher {
			t.Errorf("metric %s: better is %q", m.Name, m.Better)
		}
	}
	for _, m := range perLayer {
		checkName("metric", m.Name)
	}

	committed, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatalf("BENCHMARK.json: %v", err)
	}
	if !bytes.Equal(committed, benchmarkJSON()) {
		t.Errorf("BENCHMARK.json differs from `bench --spec`; regenerate it")
	}
	if len(committed) > 64<<10 {
		t.Errorf("BENCHMARK.json is %d bytes, limit 64 KiB", len(committed))
	}
}

// TestSmoke runs every workload at about a hundredth of its size, untraced
// and traced, and checks that each metric BENCHMARK.json names is emitted
// exactly once, finite, with its unit, and that the output checks pass.
func TestSmoke(t *testing.T) {
	for _, w := range workloads {
		for _, traced := range []bool{false, true} {
			res, err := runWorkload(runOptions{workload: w.Name, seed: 7, seconds: 2, trace: traced, sz: smokeSizes})
			if err != nil {
				t.Fatalf("%s traced=%v: %v", w.Name, traced, err)
			}
			if !res.Correct || res.Attempted < 1 || res.Failed != 0 {
				t.Errorf("%s traced=%v: correct=%v attempted=%d failed=%d", w.Name, traced, res.Correct, res.Attempted, res.Failed)
			}
			defs := endToEnd
			if traced {
				defs = perLayer
			}
			line, err := contractLine(res)
			if err != nil {
				t.Fatalf("%s traced=%v: %v", w.Name, traced, err)
			}
			var got struct {
				Correct   *bool  `json:"correct"`
				Attempted *int64 `json:"attempted"`
				Failed    *int64 `json:"failed"`
				Metrics   map[string]struct {
					Value *float64 `json:"value"`
					Unit  string   `json:"unit"`
				} `json:"metrics"`
			}
			dec := json.NewDecoder(bytes.NewReader(line))
			dec.DisallowUnknownFields()
			if err := dec.Decode(&got); err != nil {
				t.Fatalf("%s traced=%v: result line: %v", w.Name, traced, err)
			}
			if got.Correct == nil || got.Attempted == nil || got.Failed == nil {
				t.Errorf("%s traced=%v: result line lacks correct/attempted/failed", w.Name, traced)
			}
			if len(got.Metrics) != len(defs) {
				t.Errorf("%s traced=%v: %d metrics emitted, want %d", w.Name, traced, len(got.Metrics), len(defs))
			}
			for _, d := range defs {
				m, ok := got.Metrics[d.Name]
				switch {
				case !ok || m.Value == nil:
					t.Errorf("%s traced=%v: metric %s missing", w.Name, traced, d.Name)
				case math.IsNaN(*m.Value) || math.IsInf(*m.Value, 0):
					t.Errorf("%s traced=%v: metric %s is not finite", w.Name, traced, d.Name)
				case m.Unit != d.Unit:
					t.Errorf("%s traced=%v: metric %s has unit %q, want %q", w.Name, traced, d.Name, m.Unit, d.Unit)
				case !traced && *m.Value <= 0:
					t.Errorf("%s: end-to-end metric %s is %v, must never be 0", w.Name, d.Name, *m.Value)
				}
			}
			if traced && len(res.CPUProfile) == 0 {
				t.Errorf("%s: traced run kept no CPU profile", w.Name)
			}
		}
	}
}

func TestStatsHelpers(t *testing.T) {
	v := []float64{9, 1, 8, 2, 7, 3, 6, 4, 5, 10}
	if got := median(v); got != 5.5 {
		t.Errorf("median = %v, want 5.5", got)
	}
	if got := median([]float64{3, 1, 2}); got != 2 {
		t.Errorf("median of 3 = %v, want 2", got)
	}
	for _, c := range []struct{ p, want float64 }{{50, 5}, {99, 10}, {90, 9}, {10, 1}, {100, 10}} {
		if got := percentile(v, c.p); got != c.want {
			t.Errorf("percentile(%v) = %v, want %v", c.p, got, c.want)
		}
	}
	// statistics.quantiles(range(1, 11), n=4) == [2.75, 5.5, 8.25]
	if q1, q3 := quartiles(v); q1 != 2.75 || q3 != 8.25 {
		t.Errorf("quartiles = %v, %v, want 2.75, 8.25", q1, q3)
	}
	if got, want := spread(v), (8.25-2.75)/5.5; math.Abs(got-want) > 1e-12 {
		t.Errorf("spread = %v, want %v", got, want)
	}
	if median(nil) != 0 || percentile(nil, 99) != 0 || mean(nil) != 0 || spread(nil) != 0 {
		t.Errorf("empty samples must read 0")
	}
	// One disturbed window out of five must not move the windowed median.
	rates := windowRates([]int64{100, 100, 100, 100, 100}, []float64{1, 1, 10, 1, 1})
	if got := median(rates); got != 100 {
		t.Errorf("windowed median = %v, want 100", got)
	}
}

func TestVerdict(t *testing.T) {
	thr := metricDef{Name: "x", Better: higher, Bound: 0.10}
	lat := metricDef{Name: "y", Better: lower, Bound: 0.10}
	steady := []float64{100, 100, 101, 99, 100}
	for _, c := range []struct {
		def  metricDef
		a, b []float64
		want string
	}{
		{thr, steady, []float64{95}, "ok"},
		{thr, steady, []float64{85}, "outside bound"},
		{thr, steady, []float64{120}, "ok"},
		{lat, steady, []float64{112}, "outside bound"},
		{lat, steady, []float64{80}, "ok"},
		{lat, []float64{60, 100, 140, 80, 120}, []float64{105}, "unresolved"},
	} {
		if _, _, got := verdict(c.def, c.a, c.b); got != c.want {
			t.Errorf("verdict(%s, %v -> %v) = %q, want %q", c.def.Better, c.a, c.b, got, c.want)
		}
	}
}

// burn spins for d so a CPU profile has a frame to find.
func burn(d time.Duration) (x uint64) {
	for t0 := time.Now(); time.Since(t0) < d; {
		for i := 0; i < 1000; i++ {
			x = x*6364136223846793005 + 1442695040888963407
		}
	}
	return x
}

func TestDecodeProfile(t *testing.T) {
	p, err := startCPUProfile()
	if err != nil {
		t.Fatal(err)
	}
	burn(300 * time.Millisecond)
	samples, err := decodeProfile(p.stop())
	if err != nil {
		t.Fatal(err)
	}
	found := false
	for _, s := range samples {
		for _, fn := range s.stack {
			if fn == "noftl/bench.burn" {
				found = true
			}
		}
	}
	if !found {
		t.Errorf("no sample of %d names noftl/bench.burn", len(samples))
	}
	if got := cpuLayerOf([]string{"runtime.memmove", "noftl/internal/btree.(*Tree).Get", "noftl.(*Index).Lookup"}); got != "btree" {
		t.Errorf("innermost engine frame must win, got %q", got)
	}
	if got := cpuLayerOf([]string{"runtime.scanobject", "runtime.gcBgMarkWorker"}); got != "runtime_gc" {
		t.Errorf("GC worker stack charged to %q", got)
	}
}
