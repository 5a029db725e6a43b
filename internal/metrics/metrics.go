// Package metrics provides the latency histograms used throughout the
// reproduction and the Prometheus text writer (prom.go) the database renders
// its exposition with.
//
// The package keeps no count of its own.  Each layer counts in plain fields of
// its own and writes them into a Text on every scrape, so Stats() and the
// /metrics text read the same fields and cannot disagree.
//
// A Histogram is safe for concurrent use: a TPC-C run observes its
// per-transaction histograms from several terminals.
package metrics

import (
	"sync"
	"time"
)

// Histogram accumulates durations and reports count, mean and selected
// percentiles.  It uses exponentially sized buckets from 1µs to ~17min which
// is plenty for both 4 KB flash I/Os and multi-second transactions.
type Histogram struct {
	mu      sync.Mutex
	buckets [64]int64
	count   int64
	sum     int64 // nanoseconds
	max     int64
}

// NewHistogram returns an empty histogram.
func NewHistogram() *Histogram { return &Histogram{} }

func bucketFor(ns int64) int {
	// bucket i covers [2^i, 2^(i+1)) microseconds-ish: we bucket by bit
	// length of the nanosecond value for simplicity.
	b := 0
	for v := ns; v > 0; v >>= 1 {
		b++
	}
	if b >= 64 {
		b = 63
	}
	return b
}

// bucketUpper returns the inclusive upper bound (ns) of bucket i.
func bucketUpper(i int) int64 {
	if i >= 63 {
		return int64(^uint64(0) >> 1)
	}
	return (int64(1) << uint(i)) - 1
}

// Observe records one duration.
func (h *Histogram) Observe(d time.Duration) {
	ns := int64(d)
	if ns < 0 {
		ns = 0
	}
	h.mu.Lock()
	h.buckets[bucketFor(ns)]++
	h.count++
	h.sum += ns
	if ns > h.max {
		h.max = ns
	}
	h.mu.Unlock()
}

// Count returns the number of observations.
func (h *Histogram) Count() int64 {
	h.mu.Lock()
	defer h.mu.Unlock()
	return h.count
}

// exportBuckets returns a copy of the raw per-bucket counts together with the
// total count and sum (ns).  It is the Prometheus encoder's view of the
// histogram; bucket i's inclusive upper bound is bucketUpper(i).
func (h *Histogram) exportBuckets() (buckets [64]int64, count, sum int64) {
	h.mu.Lock()
	defer h.mu.Unlock()
	return h.buckets, h.count, h.sum
}

// Mean returns the mean observed duration (zero if empty).
func (h *Histogram) Mean() time.Duration {
	h.mu.Lock()
	defer h.mu.Unlock()
	if h.count == 0 {
		return 0
	}
	return time.Duration(h.sum / h.count)
}

// Max returns the largest observed duration (zero if empty).
func (h *Histogram) Max() time.Duration {
	h.mu.Lock()
	defer h.mu.Unlock()
	if h.count == 0 {
		return 0
	}
	return time.Duration(h.max)
}

// Quantile returns an upper-bound estimate of the q-quantile based on the
// bucket boundaries.  The contract at the edges:
//
//   - empty histogram: 0 for every q;
//   - q >= 1: the exact observed maximum;
//   - otherwise: the upper bound of the bucket holding the ceil(q·count)-th
//     observation (the first one for q <= 0), clamped to the observed
//     maximum so the estimate never exceeds a value that was actually
//     observed.
func (h *Histogram) Quantile(q float64) time.Duration {
	h.mu.Lock()
	defer h.mu.Unlock()
	if h.count == 0 {
		return 0
	}
	if q >= 1 {
		return time.Duration(h.max)
	}
	target := int64(q*float64(h.count) + 0.9999999)
	if target < 1 {
		target = 1
	}
	if target > h.count {
		target = h.count
	}
	var seen int64
	for i, c := range h.buckets {
		seen += c
		if seen >= target {
			est := bucketUpper(i)
			if est > h.max {
				est = h.max
			}
			return time.Duration(est)
		}
	}
	return time.Duration(h.max)
}

// Reset clears all observations.
func (h *Histogram) Reset() {
	h.mu.Lock()
	for i := range h.buckets {
		h.buckets[i] = 0
	}
	h.count, h.sum, h.max = 0, 0, 0
	h.mu.Unlock()
}

// Snapshot is a point-in-time copy of a histogram's summary statistics.
type Snapshot struct {
	Count int64
	Mean  time.Duration
	P50   time.Duration
	P95   time.Duration
	P99   time.Duration
	Max   time.Duration
}

// Snapshot returns the current summary.
func (h *Histogram) Snapshot() Snapshot {
	return Snapshot{
		Count: h.Count(),
		Mean:  h.Mean(),
		P50:   h.Quantile(0.50),
		P95:   h.Quantile(0.95),
		P99:   h.Quantile(0.99),
		Max:   h.Max(),
	}
}

// MergedSnapshot returns the summary of one histogram holding every
// observation of hs: its mean is the exact mean and its percentiles come from
// the summed buckets.
func MergedSnapshot(hs ...*Histogram) Snapshot {
	var all Histogram
	for _, h := range hs {
		all.Merge(h)
	}
	return all.Snapshot()
}

// Merge adds every observation of o to h.
func (h *Histogram) Merge(o *Histogram) {
	o.mu.Lock()
	buckets, count, sum, omax := o.buckets, o.count, o.sum, o.max
	o.mu.Unlock()
	h.mu.Lock()
	for i, c := range buckets {
		h.buckets[i] += c
	}
	h.count += count
	h.sum += sum
	h.max = max(h.max, omax)
	h.mu.Unlock()
}

// PercentDelta returns the relative change from base to v as a percentage
// (positive means v is larger).
func PercentDelta(base, v float64) float64 {
	if base == 0 {
		return 0
	}
	return (v - base) / base * 100
}
