// Package metrics provides the latency histograms used throughout the
// reproduction and the Prometheus text writer (prom.go) the database renders
// its exposition with.
//
// The package keeps no count of its own.  Each layer counts in plain fields of
// its own and reads them into its part of the database's Stats(); the root
// package renders one Stats() value into a Text on every scrape, so Stats()
// and the /metrics text cannot disagree, and no layer knows the format.  A
// Snapshot carries the buckets and exact sum the writer needs.
//
// A Histogram is safe for concurrent use: a TPC-C run observes its
// per-transaction histograms from several terminals.
package metrics

import (
	"sync"
	"time"
)

// Histogram accumulates durations; its Snapshot reports count, mean, the
// 50th, 95th and 99th percentiles and the maximum.  It uses exponentially
// sized buckets from 1µs to ~17min which is plenty for both 4 KB flash I/Os
// and multi-second transactions.
type Histogram struct {
	mu  sync.Mutex
	all Snapshot // buckets, count, sum and maximum; the summary is left out
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
	h.all.buckets[bucketFor(ns)]++
	h.all.Count++
	h.all.sum += ns
	h.all.Max = max(h.all.Max, time.Duration(ns))
	h.mu.Unlock()
}

// Reset clears all observations.
func (h *Histogram) Reset() {
	h.mu.Lock()
	h.all = Snapshot{}
	h.mu.Unlock()
}

// Merge adds every observation of o to h.
func (h *Histogram) Merge(o *Histogram) {
	s := o.Snapshot()
	h.mu.Lock()
	h.all.add(s)
	h.mu.Unlock()
}

// Snapshot is a point-in-time copy of a histogram: its summary statistics,
// and the buckets and exact sum the Prometheus writer renders.  It is taken
// under one lock, so its buckets sum to its Count.
type Snapshot struct {
	Count int64
	Mean  time.Duration
	P50   time.Duration
	P95   time.Duration
	P99   time.Duration
	Max   time.Duration

	buckets [64]int64 // bucket i's inclusive upper bound is bucketUpper(i)
	sum     int64     // nanoseconds
}

// Snapshot returns the current summary, read under one lock.
func (h *Histogram) Snapshot() Snapshot {
	h.mu.Lock()
	s := h.all
	h.mu.Unlock()
	return s.summarised()
}

// summarised returns s with its mean and percentiles computed from its
// buckets, count, sum and maximum.
func (s Snapshot) summarised() Snapshot {
	if s.Count > 0 {
		s.Mean = time.Duration(s.sum / s.Count)
	}
	s.P50, s.P95, s.P99 = s.quantile(0.50), s.quantile(0.95), s.quantile(0.99)
	return s
}

// quantile returns an upper-bound estimate of the q-quantile (0 < q < 1):
// the upper bound of the bucket holding the ceil(q·count)-th observation,
// clamped to the observed maximum so the estimate never exceeds a value that
// was actually observed.  An empty snapshot reports 0.
func (s *Snapshot) quantile(q float64) time.Duration {
	if s.Count == 0 {
		return 0
	}
	target := min(int64(q*float64(s.Count)+0.9999999), s.Count)
	var seen int64
	for i, c := range s.buckets {
		seen += c
		if seen >= target {
			return min(time.Duration(bucketUpper(i)), s.Max)
		}
	}
	return s.Max
}

// add adds the observations of o to s's buckets, count, sum and maximum.
func (s *Snapshot) add(o Snapshot) {
	for i, c := range o.buckets {
		s.buckets[i] += c
	}
	s.Count += o.Count
	s.sum += o.sum
	s.Max = max(s.Max, o.Max)
}

// MergedSnapshot returns the summary of one histogram holding every
// observation of snaps: its mean is the exact mean and its percentiles come
// from the summed buckets.
func MergedSnapshot(snaps ...Snapshot) Snapshot {
	var all Snapshot
	for _, s := range snaps {
		all.add(s)
	}
	return all.summarised()
}

// PercentDelta returns the relative change from base to v as a percentage
// (positive means v is larger).
func PercentDelta(base, v float64) float64 {
	if base == 0 {
		return 0
	}
	return (v - base) / base * 100
}
