package core

import (
	"fmt"
	"slices"
	"strings"
)

// Stats is a snapshot of the whole space manager: per-region statistics plus
// device-wide totals.  All counters are cumulative since the last
// ResetCounters call.
type Stats struct {
	Mode    PlacementMode
	Regions []RegionStats
	// Counts sums the regions' counts.
	Counts
	ValidPages int64
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
	// DieFreeBlocks is the allocator's free-block count of each die, by die
	// number (an open block that is still empty is not free).
	DieFreeBlocks []int
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
	out := Stats{Mode: m.opts.Mode, DieFreeBlocks: make([]int, len(m.dies))}
	for i, da := range m.dies {
		out.DieFreeBlocks[i] = da.freeCount()
	}

	first := true
	for _, r := range m.regions {
		if r == nil {
			continue
		}
		rs := RegionStats{
			ID:            r.id,
			Name:          r.name,
			Dies:          slices.Clone(r.dies),
			CapacityPages: r.capacityPages,
			ValidPages:    r.validPages,
			RetainedPages: r.retainedPages,
			GC:            r.gc,
			Counts:        r.counts,
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

		out.Counts.add(rs.Counts)
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

// ResetCounters clears all I/O and GC counters (per region, per object, in the
// scheduler and on the device) while keeping the mapping, allocation state and wear
// intact.
// Benchmarks call this after the warm-up phase.
func (m *Manager) ResetCounters() {
	for _, r := range m.regions {
		if r != nil {
			r.counts = Counts{}
			r.readLat.Reset()
			r.writeLat.Reset()
		}
	}
	for _, o := range m.objects {
		o.ops = [numObjectOps]int64{}
	}
	m.dev.ResetCounters()
	m.sched.ResetCounters()
}
