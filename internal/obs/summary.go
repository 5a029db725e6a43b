package obs

import (
	"fmt"
	"maps"
	"slices"
	"sort"
	"strings"

	"noftl/internal/metrics"
	"noftl/internal/sim"
)

// GCInterference is the A6 story extracted from a trace: host writes that
// overlap a GC window on their die versus those that ran clear of GC.
type GCInterference struct {
	// Interfered are host writes whose [Start,End) overlapped a GC step or
	// erase window on the same die.
	Interfered metrics.Snapshot
	// Clean are host writes with no GC overlap.
	Clean metrics.Snapshot
	// SlowdownX is Interfered.Mean / Clean.Mean (0 when either side is empty).
	SlowdownX float64
}

// Summary is a trace folded into the names of Stats() by Summarize.
type Summary struct {
	// Events is the number of events folded, those after the last reset;
	// Start and End bound them in virtual time.
	Events     int
	Start, End sim.Time
	// Partial reports that the ring dropped events before the first one
	// folded and kept no reset before it: the fold covers the retained
	// events only, not all that Stats() counted.
	Partial bool
	// Counts holds what the folded events count, each under the path of the
	// Stats() field that counts it (the names noftl.DumpFields prints).  A
	// count of zero has no entry.
	Counts map[string]int64
	// ReadLatency and WriteLatency are the spans of the folded host reads
	// and writes: Stats().ReadLatency and WriteLatency.
	ReadLatency, WriteLatency metrics.Snapshot
	// PerPrio is the folded flash commands' latency by scheduler priority.
	PerPrio map[uint8]metrics.Snapshot
	// GC is the GC-interference analysis over every retained host write,
	// those before the last reset too.
	GC GCInterference
}

// counted names the Stats() field that one event of a class adds one to;
// the classes left out count by Op or by an auxiliary value (Summarize).
var counted = [NumClasses]string{
	ClassHostWrite: "Space.HostWrites", ClassHostRead: "Space.HostReads",
	ClassGCVictim: "Space.GCRuns", ClassGCErase: "Space.GCErases", ClassWear: "Space.WearMoves",
	ClassBufMiss: "Buffer.Misses", ClassBufEvict: "Buffer.Evictions",
	ClassWALAppend: "WAL.Appended", ClassWALSync: "WAL.Flushes",
}

// flashCounted names the field of Stats().Device.PerDie[d] a flash command
// counts in, by Event.Op.
var flashCounted = [...]string{
	FlashRead: "Reads", FlashProgram: "Programs", FlashErase: "Erases", FlashCopyback: "Copybacks",
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

// Summarize folds the events after the last reset into the counts and host
// latencies of Stats() and the flash latency by priority, and splits every
// retained host write by whether it overlapped a GC window on its die (the
// A6 experiment's story, recovered from the event stream).
func Summarize(events []Event) Summary {
	from := 0
	for i, e := range events {
		if e.Class == ClassReset {
			from = i + 1
		}
	}
	folded := events[from:]
	s := Summary{
		Events:  len(folded),
		Partial: from == 0 && len(events) > 0 && events[0].Seq > 0,
		Counts:  make(map[string]int64),
		PerPrio: make(map[uint8]metrics.Snapshot),
	}
	prioHists := make(map[uint8]*metrics.Histogram)
	read, write := metrics.NewHistogram(), metrics.NewHistogram()
	for i, e := range folded {
		if i == 0 || e.Start < s.Start {
			s.Start = e.Start
		}
		s.End = max(s.End, e.End)
		if int(e.Class) < len(counted) && counted[e.Class] != "" {
			s.Counts[counted[e.Class]]++
		}
		switch e.Class {
		case ClassFlash:
			if e.Die >= 0 && int(e.Op) < len(flashCounted) && flashCounted[e.Op] != "" {
				s.Counts[fmt.Sprintf("Device.PerDie[%d].%s", e.Die, flashCounted[e.Op])]++
			}
			if prioHists[e.Prio] == nil {
				prioHists[e.Prio] = metrics.NewHistogram()
			}
			prioHists[e.Prio].Observe(e.Latency())
		case ClassHostRead:
			read.Observe(e.Latency())
		case ClassHostWrite:
			write.Observe(e.Latency())
		case ClassGCStep:
			if e.Op == GCStepForeground {
				s.Counts["Space.GCStalls"]++
			} else {
				s.Counts["Space.BGGCSteps"]++
			}
		case ClassBufWriteBack:
			if e.Op == BufWriteBackGroup {
				s.Counts["Buffer.Writebacks"] += e.A
				s.Counts["Buffer.GroupFlushes"]++
			} else {
				s.Counts["Buffer.Writebacks"]++
			}
		case ClassWALAppend:
			s.Counts["WAL.BytesAppended"] += e.B
		}
	}
	for p, h := range prioHists {
		s.PerPrio[p] = h.Snapshot()
	}
	s.ReadLatency, s.WriteLatency = read.Snapshot(), write.Snapshot()

	gcWin := make(map[int32][]window) // die -> GC step/erase windows
	for _, e := range events {
		if (e.Class == ClassGCStep || e.Class == ClassGCErase) && e.Die >= 0 && e.End > e.Start {
			gcWin[e.Die] = append(gcWin[e.Die], window{e.Start, e.End})
		}
	}
	for d, ws := range gcWin {
		gcWin[d] = mergeWindows(ws)
	}
	interfered, clean := metrics.NewHistogram(), metrics.NewHistogram()
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
	s.GC = GCInterference{Interfered: interfered.Snapshot(), Clean: clean.Snapshot()}
	if s.GC.Clean.Mean > 0 && s.GC.Interfered.Count > 0 {
		s.GC.SlowdownX = float64(s.GC.Interfered.Mean) / float64(s.GC.Clean.Mean)
	}
	return s
}

// String renders the summary as the report `noftl-trace summarize` prints:
// the counts as "path=value" lines sorted by path, as a dump of Stats()
// prints them, then the host latencies in the same form, the flash latency by
// priority and the GC interference.
func (s Summary) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "trace: %d events over %v virtual time\n", s.Events, s.End.Sub(s.Start))
	if s.Partial {
		b.WriteString("partial: the ring dropped older events and kept no reset, so the counts cover only the retained events\n")
	}
	b.WriteString("\n")
	for _, path := range slices.Sorted(maps.Keys(s.Counts)) {
		fmt.Fprintf(&b, "%s=%d\n", path, s.Counts[path])
	}
	for i, l := range []metrics.Snapshot{s.ReadLatency, s.WriteLatency} {
		if l.Count > 0 {
			fmt.Fprintf(&b, "\n%[1]s.Count=%[2]d\n%[1]s.Max=%[3]v\n%[1]s.Mean=%[4]v\n%[1]s.P50=%[5]v\n%[1]s.P95=%[6]v\n%[1]s.P99=%[7]v\n",
				[...]string{"ReadLatency", "WriteLatency"}[i], l.Count, l.Max, l.Mean, l.P50, l.P95, l.P99)
		}
	}
	if len(s.PerPrio) > 0 {
		b.WriteString("\nflash latency by priority:\n")
	}
	for _, p := range slices.Sorted(maps.Keys(s.PerPrio)) {
		ls := s.PerPrio[p]
		fmt.Fprintf(&b, "  prio %d: n=%d mean=%v p95=%v p99=%v max=%v\n", p, ls.Count, ls.Mean, ls.P95, ls.P99, ls.Max)
	}
	if s.GC.Interfered.Count > 0 || s.GC.Clean.Count > 0 {
		fmt.Fprintf(&b, "\nGC interference on host writes:\n  interfered: n=%d mean=%v p99=%v\n  clean:      n=%d mean=%v p99=%v\n",
			s.GC.Interfered.Count, s.GC.Interfered.Mean, s.GC.Interfered.P99, s.GC.Clean.Count, s.GC.Clean.Mean, s.GC.Clean.P99)
		if s.GC.SlowdownX > 0 {
			fmt.Fprintf(&b, "  slowdown:   %.2fx mean latency under GC\n", s.GC.SlowdownX)
		}
	}
	return b.String()
}
