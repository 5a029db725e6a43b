package metrics

import (
	"sync"
	"testing"
	"testing/quick"
	"time"
)

func TestHistogramBasics(t *testing.T) {
	h := NewHistogram()
	if h.Snapshot() != (Snapshot{}) {
		t.Fatalf("empty histogram should report zeros: %+v", h.Snapshot())
	}
	h.Observe(100 * time.Microsecond)
	h.Observe(200 * time.Microsecond)
	h.Observe(300 * time.Microsecond)
	s := h.Snapshot()
	if s.Count != 3 {
		t.Fatalf("count = %d", s.Count)
	}
	if s.Mean != 200*time.Microsecond {
		t.Fatalf("mean = %v", s.Mean)
	}
	if s.Max != 300*time.Microsecond {
		t.Fatalf("max = %v", s.Max)
	}
	if s.P99 != s.Max {
		t.Fatalf("p99 = %v, want the maximum %v it is clamped to", s.P99, s.Max)
	}
	h.Reset()
	if h.Snapshot() != (Snapshot{}) {
		t.Fatalf("snapshot after reset = %+v", h.Snapshot())
	}
}

func TestHistogramNegativeClamped(t *testing.T) {
	h := NewHistogram()
	h.Observe(-5 * time.Second)
	if s := h.Snapshot(); s.Count != 1 || s.Max != 0 || s.Mean != 0 {
		t.Fatalf("negative observation not clamped: %+v", s)
	}
}

// Property: the percentiles of a snapshot are ordered and never exceed its
// maximum.
func TestHistogramQuantileMonotone(t *testing.T) {
	f := func(samples []uint32) bool {
		h := NewHistogram()
		for _, s := range samples {
			h.Observe(time.Duration(s))
		}
		s := h.Snapshot()
		if len(samples) == 0 {
			return s == Snapshot{}
		}
		return s.P50 <= s.P95 && s.P95 <= s.P99 && s.P99 <= s.Max
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

// TestHistogramQuantileContract pins the documented edge behavior of a
// snapshot's percentiles: an empty histogram reports zero, a percentile is the
// upper bound of the bucket holding its observation clamped to the observed
// maximum, and one observation is every percentile.
func TestHistogramQuantileContract(t *testing.T) {
	h := NewHistogram()
	h.Observe(130 * time.Microsecond)
	h.Observe(700 * time.Microsecond)
	h.Observe(900 * time.Microsecond)
	s := h.Snapshot()
	// The median is the 700µs observation: the upper bound of its
	// power-of-two bucket, 2^20-1 ns, is above the maximum, so it is clamped.
	if s.P50 != 900*time.Microsecond || s.P95 != 900*time.Microsecond || s.P99 != 900*time.Microsecond {
		t.Fatalf("P50/P95/P99 = %v/%v/%v, want the observed maximum 900µs", s.P50, s.P95, s.P99)
	}
	if s.Max != 900*time.Microsecond || s.Mean != (130+700+900)*time.Microsecond/3 {
		t.Fatalf("max %v, mean %v", s.Max, s.Mean)
	}

	// Below the maximum a percentile is its bucket's upper bound: 100 fast
	// observations put the median in the bucket of 130µs, [2^16, 2^17) ns.
	for range 100 {
		h.Observe(130 * time.Microsecond)
	}
	if got := h.Snapshot().P50; got != (1<<17-1)*time.Nanosecond {
		t.Fatalf("P50 = %v, want the upper bound of the 130µs bucket", got)
	}

	one := NewHistogram()
	one.Observe(42 * time.Microsecond)
	if s := one.Snapshot(); s.P50 != 42*time.Microsecond || s.P95 != s.P50 || s.P99 != s.P50 || s.Max != s.P50 || s.Mean != s.P50 {
		t.Fatalf("single-sample snapshot = %+v, want the sample everywhere", s)
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
