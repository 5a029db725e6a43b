package core

import (
	"fmt"
	"maps"
	"slices"
	"strings"

	"noftl/internal/metrics"
)

// Stats is a snapshot of the whole space manager: per-region statistics plus
// device-wide totals.  All counters are cumulative since the last
// ResetCounters call.
type Stats struct {
	Mode        PlacementMode
	Regions     []RegionStats
	HostReads   int64
	HostWrites  int64
	GCCopybacks int64
	GCErases    int64
	GCRuns      int64
	GCStalls    int64 // foreground (blocking) collections under the low watermark
	BGGCSteps   int64 // bounded background GC steps
	WearMoves   int64
	ValidPages  int64
	// RetainedPages sums the regions' retained checkpoint versions.
	RetainedPages int64
	// Current background-GC state (see the per-region fields for the
	// breakdown).
	BGDebtBlocks   int64 // total free-block shortfall relative to the high watermark
	DiesInBGBand   int   // dies at or below the high watermark
	DiesAtLowWater int   // dies at or below the low watermark (foreground territory)
	BGVictimsOpen  int   // dies with a partially collected background victim
	// Erase counts of every block the regions own.
	MinErase   int64
	MaxErase   int64
	TotalErase int64
}

// WriteAmplification returns the device-wide write amplification factor.
func (s Stats) WriteAmplification() float64 {
	if s.HostWrites == 0 {
		return 0
	}
	return float64(s.HostWrites+s.GCCopybacks) / float64(s.HostWrites)
}

// RegionByName returns the stats of the named region.
func (s Stats) RegionByName(name string) (RegionStats, bool) {
	for _, r := range s.Regions {
		if r.Name == name {
			return r, true
		}
	}
	return RegionStats{}, false
}

// String renders a multi-line report (used by tests).
func (s Stats) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "placement mode: %s\n", s.Mode)
	fmt.Fprintf(&b, "host reads=%d writes=%d  gc copybacks=%d erases=%d runs=%d bg-steps=%d stalls=%d  WA=%.2f\n",
		s.HostReads, s.HostWrites, s.GCCopybacks, s.GCErases, s.GCRuns, s.BGGCSteps, s.GCStalls, s.WriteAmplification())
	for _, r := range s.Regions {
		fmt.Fprintf(&b, "  %s\n", r.String())
	}
	return b.String()
}

// Stats takes a snapshot of every region.
func (m *Manager) Stats() Stats {
	out := Stats{Mode: m.opts.Mode}

	first := true
	for _, id := range slices.Sorted(maps.Keys(m.regionsByID)) {
		r := m.regionsByID[id]
		rs := RegionStats{
			ID:            r.id,
			Name:          r.name,
			Dies:          sortedCopy(r.dies),
			CapacityPages: r.capacityPages,
			ValidPages:    r.validPages,
			RetainedPages: r.retainedPages,
			GC:            r.gc,
			HostReads:     r.hostReads,
			HostWrites:    r.hostWrites,
			GCCopybacks:   r.gcCopybacks,
			GCErases:      r.gcErases,
			GCRuns:        r.gcRuns,
			GCStalls:      r.gcStalls,
			BGGCSteps:     r.bgSteps,
			WearMoves:     r.wlMoves,
			SpilledWrites: r.spills,
			ReadLatency:   r.readLat.Snapshot(),
			WriteLatency:  r.writeLat.Snapshot(),
		}
		channels := make(map[int]bool)
		regionMinE := int64(-1)
		for _, d := range r.dies {
			channels[m.geo.ChannelOfDie(d)] = true
			da := m.dies[d]
			rs.FreeBlocks += da.freeCount()
			if free := da.freeCount(); free <= gcHighWater {
				rs.DiesInBGBand++
				rs.BGDebtBlocks += int64(gcHighWater - free)
				if free <= gcLowWater {
					rs.DiesAtLowWater++
				}
			}
			if da.bgVictim >= 0 {
				rs.BGVictimsOpen++
			}
			for i := range da.blocks {
				ec := da.blocks[i].eraseCount
				rs.TotalErase += ec
				if ec > rs.MaxErase {
					rs.MaxErase = ec
				}
				if regionMinE < 0 || ec < regionMinE {
					regionMinE = ec
				}
			}
		}
		if regionMinE > 0 {
			rs.MinErase = regionMinE
		}
		rs.Channels = len(channels)
		out.Regions = append(out.Regions, rs)

		out.HostReads += rs.HostReads
		out.HostWrites += rs.HostWrites
		out.GCCopybacks += rs.GCCopybacks
		out.GCErases += rs.GCErases
		out.GCRuns += rs.GCRuns
		out.GCStalls += rs.GCStalls
		out.BGGCSteps += rs.BGGCSteps
		out.WearMoves += rs.WearMoves
		out.ValidPages += rs.ValidPages
		out.RetainedPages += rs.RetainedPages
		out.BGDebtBlocks += rs.BGDebtBlocks
		out.DiesInBGBand += rs.DiesInBGBand
		out.DiesAtLowWater += rs.DiesAtLowWater
		out.BGVictimsOpen += rs.BGVictimsOpen
		out.TotalErase += rs.TotalErase
		if rs.MaxErase > out.MaxErase {
			out.MaxErase = rs.MaxErase
		}
		if first || rs.MinErase < out.MinErase {
			out.MinErase = rs.MinErase
		}
		first = false
	}
	return out
}

// HostLatency summarises the host read and write latencies of every region
// as one histogram holding all their observations would.
func (m *Manager) HostLatency() (read, write metrics.Snapshot) {
	var reads, writes []*metrics.Histogram
	for _, r := range m.regions {
		reads = append(reads, &r.readLat)
		writes = append(writes, &r.writeLat)
	}
	return metrics.MergedSnapshot(reads...), metrics.MergedSnapshot(writes...)
}

// ResetCounters clears all I/O and GC counters (per region, per object, in the
// scheduler and on the device) while keeping the mapping, allocation state and wear
// intact.
// Benchmarks call this after the warm-up phase.
func (m *Manager) ResetCounters() {
	for _, r := range m.regions {
		r.resetCounters()
	}
	for _, o := range m.objects {
		o.ops = [numObjectOps]int64{}
	}
	m.dev.ResetCounters()
	m.sched.ResetCounters()
}
