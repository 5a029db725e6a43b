package main

import (
	"math"
	"sort"
)

// sorted returns an ascending copy of v.
func sorted(v []float64) []float64 {
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	return s
}

// percentile returns the exact p-th percentile (0 < p <= 100) of v by the
// nearest-rank rule: the smallest sample with at least p% of the samples at
// or below it.  An empty sample gives 0.
func percentile(v []float64, p float64) float64 {
	return sortedPercentile(sorted(v), p)
}

// sortedPercentile is percentile over an already ascending sample, for
// callers that want several percentiles of one large sample.
func sortedPercentile(s []float64, p float64) float64 {
	if len(s) == 0 {
		return 0
	}
	rank := int(math.Ceil(p / 100 * float64(len(s))))
	if rank < 1 {
		rank = 1
	}
	return s[rank-1]
}

// median returns the middle sample of v (the mean of the two middle samples
// for an even count).  An empty sample gives 0.
func median(v []float64) float64 {
	if len(v) == 0 {
		return 0
	}
	s := sorted(v)
	mid := len(s) / 2
	if len(s)%2 == 1 {
		return s[mid]
	}
	return (s[mid-1] + s[mid]) / 2
}

// mean returns the arithmetic mean of v, 0 when empty.
func mean(v []float64) float64 {
	if len(v) == 0 {
		return 0
	}
	var sum float64
	for _, x := range v {
		sum += x
	}
	return sum / float64(len(v))
}

// quartiles returns the first and third quartile of v the way Python's
// statistics.quantiles(v, n=4) does (exclusive method), which is what the
// acceptance check of the benchmark contract uses for its spread.
func quartiles(v []float64) (q1, q3 float64) {
	n := len(v)
	if n < 2 {
		m := median(v)
		return m, m
	}
	s := sorted(v)
	at := func(k int) float64 { // k-th of 4 cut points
		pos := float64(k) * float64(n+1) / 4
		j := int(pos)
		if j < 1 {
			j = 1
		}
		if j > n-1 {
			j = n - 1
		}
		frac := pos - float64(j)
		return s[j-1] + frac*(s[j]-s[j-1])
	}
	return at(1), at(3)
}

// spread is the inter-quartile distance of v as a share of its median.
func spread(v []float64) float64 {
	m := median(v)
	if m == 0 {
		return 0
	}
	q1, q3 := quartiles(v)
	return (q3 - q1) / math.Abs(m)
}

// windowRates turns per-window (ops, seconds) pairs into ops-per-second
// rates; the caller reports their median so one disturbed window cannot move
// the result.
func windowRates(ops []int64, secs []float64) []float64 {
	rates := make([]float64, 0, len(ops))
	for i := range ops {
		if secs[i] > 0 {
			rates = append(rates, float64(ops[i])/secs[i])
		}
	}
	return rates
}
