package metrics

import (
	"sync"
	"testing"
	"testing/quick"
	"time"
)

func TestHistogramBasics(t *testing.T) {
	h := NewHistogram()
	if h.Mean() != 0 || h.Max() != 0 || h.Quantile(0.5) != 0 {
		t.Fatalf("empty histogram should report zeros")
	}
	h.Observe(100 * time.Microsecond)
	h.Observe(200 * time.Microsecond)
	h.Observe(300 * time.Microsecond)
	if h.Count() != 3 {
		t.Fatalf("count = %d", h.Count())
	}
	if h.Mean() != 200*time.Microsecond {
		t.Fatalf("mean = %v", h.Mean())
	}
	if h.Max() != 300*time.Microsecond {
		t.Fatalf("max = %v", h.Max())
	}
	if p := h.Quantile(0.99); p < 300*time.Microsecond {
		t.Fatalf("p99 = %v below max", p)
	}
	h.Reset()
	if h.Count() != 0 {
		t.Fatalf("count after reset = %d", h.Count())
	}
}

func TestHistogramNegativeClamped(t *testing.T) {
	h := NewHistogram()
	h.Observe(-5 * time.Second)
	if h.Max() != 0 {
		t.Fatalf("negative observation not clamped: %v", h.Max())
	}
}

// Property: quantile estimates never underestimate lower quantiles relative
// to higher ones and never exceed twice the max bucket bound.
func TestHistogramQuantileMonotone(t *testing.T) {
	f := func(samples []uint32) bool {
		h := NewHistogram()
		for _, s := range samples {
			h.Observe(time.Duration(s))
		}
		if len(samples) == 0 {
			return h.Quantile(0.5) == 0
		}
		q50 := h.Quantile(0.50)
		q95 := h.Quantile(0.95)
		q99 := h.Quantile(0.99)
		return q50 <= q95 && q95 <= q99
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

func TestPercentDelta(t *testing.T) {
	if d := PercentDelta(100, 120); d != 20 {
		t.Fatalf("delta = %v", d)
	}
	if d := PercentDelta(0, 120); d != 0 {
		t.Fatalf("delta with zero base = %v", d)
	}
	if d := PercentDelta(200, 100); d != -50 {
		t.Fatalf("delta = %v", d)
	}
}

// TestHistogramQuantileContract pins the documented edge behavior: empty
// histograms report zero for every q, q<=0 is the first observation's
// estimate, q>=1 the exact maximum, and interior estimates never exceed the
// observed maximum.
func TestHistogramQuantileContract(t *testing.T) {
	empty := NewHistogram()
	for _, q := range []float64{-1, 0, 0.5, 1, 2} {
		if got := empty.Quantile(q); got != 0 {
			t.Fatalf("empty Quantile(%v) = %v, want 0", q, got)
		}
	}

	h := NewHistogram()
	h.Observe(130 * time.Microsecond)
	h.Observe(700 * time.Microsecond)
	h.Observe(900 * time.Microsecond)
	if got := h.Quantile(0); got < 130*time.Microsecond || got >= 700*time.Microsecond {
		t.Fatalf("Quantile(0) = %v, want the bucket of the 130µs observation", got)
	}
	if got, want := h.Quantile(-0.5), h.Quantile(0); got != want {
		t.Fatalf("Quantile(-0.5) = %v, want Quantile(0) = %v", got, want)
	}
	if got := h.Quantile(1); got != 900*time.Microsecond {
		t.Fatalf("Quantile(1) = %v, want exact max", got)
	}
	if got := h.Quantile(1.5); got != 900*time.Microsecond {
		t.Fatalf("Quantile(1.5) = %v, want exact max", got)
	}
	// The power-of-two bucket for 900µs tops out well above 900µs; the
	// interior estimate must be clamped to the observed maximum.
	if got := h.Quantile(0.99); got > 900*time.Microsecond {
		t.Fatalf("Quantile(0.99) = %v exceeds observed max", got)
	}
	if got := h.Quantile(0.5); got < 130*time.Microsecond || got > 900*time.Microsecond {
		t.Fatalf("Quantile(0.5) = %v outside observed range", got)
	}

	one := NewHistogram()
	one.Observe(42 * time.Microsecond)
	for _, q := range []float64{0, 0.5, 0.99, 1} {
		if got := one.Quantile(q); got != 42*time.Microsecond {
			t.Fatalf("single-sample Quantile(%v) = %v, want the sample", q, got)
		}
	}
}

func TestHistogramSum(t *testing.T) {
	h := NewHistogram()
	h.Observe(time.Millisecond)
	h.Observe(2 * time.Millisecond)
	if sum := h.Snapshot().sum; sum != int64(3*time.Millisecond) {
		t.Fatalf("snapshot sum = %v", time.Duration(sum))
	}
}

// TestSnapshotIsOneReading: snapshots taken while other goroutines observe
// are each one reading of the histogram, so their buckets sum to their count
// and their sum is that of the observations counted (every one takes 1µs).
func TestSnapshotIsOneReading(t *testing.T) {
	var h Histogram
	var wg sync.WaitGroup
	for range 4 {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for range 20000 {
				h.Observe(time.Microsecond)
			}
		}()
	}
	for range 200 {
		s := h.Snapshot()
		var inBuckets int64
		for _, n := range s.buckets {
			inBuckets += n
		}
		if inBuckets != s.Count || s.sum != s.Count*int64(time.Microsecond) {
			t.Fatalf("a snapshot of %d observations holds %d in its buckets and a sum of %v", s.Count, inBuckets, time.Duration(s.sum))
		}
	}
	wg.Wait()
}

// TestMergedSnapshot: the merge of two histograms summarises exactly what
// one histogram observing both streams would, percentiles included.
func TestMergedSnapshot(t *testing.T) {
	fast, slow, both := NewHistogram(), NewHistogram(), NewHistogram()
	for i := 1; i <= 900; i++ {
		d := time.Duration(i) * time.Microsecond
		fast.Observe(d)
		both.Observe(d)
	}
	for i := 1; i <= 100; i++ {
		d := time.Duration(i) * 7 * time.Millisecond
		slow.Observe(d)
		both.Observe(d)
	}
	got, want := MergedSnapshot(fast.Snapshot(), slow.Snapshot()), both.Snapshot()
	if got != want {
		t.Fatalf("merged %+v, want %+v", got, want)
	}
	if got.P99 <= fast.Snapshot().Max {
		t.Fatalf("merged P99 %v ignores the slow histogram", got.P99)
	}
	if MergedSnapshot() != (Snapshot{}) {
		t.Fatal("merge of nothing is not empty")
	}
}
