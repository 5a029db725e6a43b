package obs

import (
	"fmt"
	"sort"
	"strings"

	"noftl/internal/metrics"
	"noftl/internal/sim"
)

// LatencyStats summarizes a set of virtual-time latencies.
type LatencyStats struct {
	Count int64
	Mean  sim.Duration
	P50   sim.Duration
	P95   sim.Duration
	P99   sim.Duration
	Max   sim.Duration
}

func latencyStats(h *metrics.Histogram) LatencyStats {
	return LatencyStats{
		Count: h.Count(),
		Mean:  sim.Duration(h.Mean()),
		P50:   h.Quantile(0.50),
		P95:   h.Quantile(0.95),
		P99:   h.Quantile(0.99),
		Max:   h.Max(),
	}
}

// GCInterference is the A6 story extracted from a trace: host writes that
// overlap a GC window on their die versus those that ran clear of GC.
type GCInterference struct {
	// Interfered are host writes whose [Start,End) overlapped a GC step or
	// erase window on the same die.
	Interfered LatencyStats
	// Clean are host writes with no GC overlap.
	Clean LatencyStats
	// SlowdownX is Interfered.Mean / Clean.Mean (0 when either side is empty).
	SlowdownX float64
}

// Summary is the digest of a trace produced by Summarize.
type Summary struct {
	Events int
	// Start and End bound the trace in virtual time.
	Start sim.Time
	End   sim.Time
	// PerClass counts events by class (indexed by Class).
	PerClass [NumClasses]int64
	// PerPrio is the flash-command latency breakdown by scheduler priority.
	PerPrio map[uint8]LatencyStats
	// HostWrite and HostRead are end-to-end host-latency breakdowns.
	HostWrite LatencyStats
	HostRead  LatencyStats
	// GC is the GC-interference analysis over host writes.
	GC GCInterference
}

// window is a half-open virtual-time interval on a die.
type window struct {
	start, end sim.Time
}

// mergeWindows coalesces overlapping/touching intervals, returning them
// sorted by start.
func mergeWindows(ws []window) []window {
	if len(ws) == 0 {
		return nil
	}
	sort.Slice(ws, func(i, j int) bool { return ws[i].start < ws[j].start })
	merged := ws[:1]
	for _, w := range ws[1:] {
		last := &merged[len(merged)-1]
		if w.start <= last.end {
			if w.end > last.end {
				last.end = w.end
			}
			continue
		}
		merged = append(merged, w)
	}
	return merged
}

// overlaps reports whether [start,end) intersects any merged window.
func overlaps(ws []window, start, end sim.Time) bool {
	// First window ending after start.
	i := sort.Search(len(ws), func(i int) bool { return ws[i].end > start })
	return i < len(ws) && ws[i].start < end
}

// Summarize digests a trace: per-class counts, per-priority and host latency
// breakdowns, and the GC-interference split of host writes (the A6
// experiment's story, recovered from the event stream).  A die's busy time is
// the device's to measure (flash.DieStats.BusyTime): a trace window runs from a
// command's arrival to its completion, queue wait and transfer included.
func Summarize(events []Event) Summary {
	s := Summary{Events: len(events), PerPrio: make(map[uint8]LatencyStats)}
	if len(events) == 0 {
		return s
	}
	s.Start = events[0].Start
	s.End = events[0].End
	prioHists := make(map[uint8]*metrics.Histogram)
	hostWrite := metrics.NewHistogram()
	hostRead := metrics.NewHistogram()
	gcWin := make(map[int32][]window) // die -> GC step/erase windows

	for _, e := range events {
		if e.Start < s.Start {
			s.Start = e.Start
		}
		if e.End > s.End {
			s.End = e.End
		}
		if int(e.Class) < len(s.PerClass) {
			s.PerClass[e.Class]++
		}
		switch e.Class {
		case ClassFlash:
			h := prioHists[e.Prio]
			if h == nil {
				h = metrics.NewHistogram()
				prioHists[e.Prio] = h
			}
			h.Observe(e.Latency())
		case ClassHostWrite:
			hostWrite.Observe(e.Latency())
		case ClassHostRead:
			hostRead.Observe(e.Latency())
		case ClassGCStep, ClassGCErase:
			if e.Die >= 0 && e.End > e.Start {
				gcWin[e.Die] = append(gcWin[e.Die], window{e.Start, e.End})
			}
		}
	}

	for d, ws := range gcWin {
		gcWin[d] = mergeWindows(ws)
	}

	// Second pass: split host writes by GC overlap on their die.
	interfered := metrics.NewHistogram()
	clean := metrics.NewHistogram()
	for _, e := range events {
		if e.Class != ClassHostWrite {
			continue
		}
		if e.Die >= 0 && overlaps(gcWin[e.Die], e.Start, e.End) {
			interfered.Observe(e.Latency())
		} else {
			clean.Observe(e.Latency())
		}
	}

	for p, h := range prioHists {
		s.PerPrio[p] = latencyStats(h)
	}
	s.HostWrite = latencyStats(hostWrite)
	s.HostRead = latencyStats(hostRead)
	s.GC.Interfered = latencyStats(interfered)
	s.GC.Clean = latencyStats(clean)
	if s.GC.Clean.Mean > 0 && s.GC.Interfered.Count > 0 {
		s.GC.SlowdownX = float64(s.GC.Interfered.Mean) / float64(s.GC.Clean.Mean)
	}
	return s
}

// String renders the summary as the human-readable report printed by
// `noftl-trace summarize`.
func (s Summary) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "trace: %d events over %v virtual time\n", s.Events, s.End.Sub(s.Start))
	fmt.Fprintf(&b, "\nevents by class:\n")
	for c := Class(0); c < NumClasses; c++ {
		if s.PerClass[c] > 0 {
			fmt.Fprintf(&b, "  %-14s %d\n", c.String(), s.PerClass[c])
		}
	}
	if len(s.PerPrio) > 0 {
		prios := make([]int, 0, len(s.PerPrio))
		for p := range s.PerPrio {
			prios = append(prios, int(p))
		}
		sort.Ints(prios)
		fmt.Fprintf(&b, "\nflash latency by priority:\n")
		for _, p := range prios {
			ls := s.PerPrio[uint8(p)]
			fmt.Fprintf(&b, "  prio %d: n=%d mean=%v p95=%v p99=%v max=%v\n",
				p, ls.Count, ls.Mean, ls.P95, ls.P99, ls.Max)
		}
	}
	if s.HostWrite.Count > 0 {
		fmt.Fprintf(&b, "\nhost writes: n=%d mean=%v p95=%v p99=%v max=%v\n",
			s.HostWrite.Count, s.HostWrite.Mean, s.HostWrite.P95, s.HostWrite.P99, s.HostWrite.Max)
	}
	if s.HostRead.Count > 0 {
		fmt.Fprintf(&b, "host reads:  n=%d mean=%v p95=%v p99=%v max=%v\n",
			s.HostRead.Count, s.HostRead.Mean, s.HostRead.P95, s.HostRead.P99, s.HostRead.Max)
	}
	if s.GC.Interfered.Count > 0 || s.GC.Clean.Count > 0 {
		fmt.Fprintf(&b, "\nGC interference on host writes:\n")
		fmt.Fprintf(&b, "  interfered: n=%d mean=%v p99=%v\n",
			s.GC.Interfered.Count, s.GC.Interfered.Mean, s.GC.Interfered.P99)
		fmt.Fprintf(&b, "  clean:      n=%d mean=%v p99=%v\n",
			s.GC.Clean.Count, s.GC.Clean.Mean, s.GC.Clean.P99)
		if s.GC.SlowdownX > 0 {
			fmt.Fprintf(&b, "  slowdown:   %.2fx mean latency under GC\n", s.GC.SlowdownX)
		}
	}
	return b.String()
}
