// Background, incremental garbage collection.
//
// The paper's argument (§2) is that once space management lives in the DBMS,
// garbage collection no longer has to fire blindly under the host's feet: it
// can be scheduled around the workload.  This file implements that as a
// watermark pair per die:
//
//   - at or below gcHighWater free blocks, GC proceeds opportunistically
//     in bounded steps (pick victim → relocate ≤k pages → erase) that are
//     submitted through the I/O scheduler at GC priority in the die's idle
//     virtual-time slots, and whose cost is NOT charged to the host write
//     that triggered them;
//   - at or below gcLowWater the foreground backstop (collectDie) still
//     blocks the allocation until the die is healthy again — correctness
//     never depends on background progress.
//
// The step size and victim policy come from the owning region's GCPolicy, so
// a DBA can tune them per data region via CREATE/ALTER REGION.
package core

import (
	"fmt"

	"noftl/internal/obs"
	"noftl/internal/sim"
)

// backgroundGC runs at most one bounded background GC step on the die
// when its free-block count is at or below the high watermark.  Called at the
// end of host write paths; the step's virtual-time cost is absorbed by the
// die's idle slots rather than the caller's latency.
func (m *Manager) backgroundGC(now sim.Time, da *dieAlloc) {
	if m.opts.DisableBackgroundGC {
		return
	}
	if da.freeCount() > gcHighWater {
		return
	}
	if m.sched.DieIdleAt(da.die) > now {
		// The die still has work scheduled beyond this point in virtual
		// time: its next slot is not idle.  Stacking a step now would queue
		// GC in front of future host requests; skip and let a later write
		// (or the low-watermark backstop) drive progress instead.
		return
	}
	if da.bgVictim < 0 && da.freeCount() > gcLowWater {
		// No victim in progress and the die has not reached the level at
		// which a foreground collection would fire.  Starting one now would
		// collect blocks earlier — and therefore with more still-valid
		// pages — than the foreground policy, inflating write amplification.
		// The watermark band above the low mark is for draining in-progress
		// debt (and explicit PumpBackgroundGC calls), not for taking debt
		// on early.
		return
	}
	r, ok := m.regionsByID[m.dieOwner[da.die]]
	if !ok {
		return
	}
	m.backgroundStep(now, r, da)
}

// backgroundStep performs one bounded GC step on the die: resume (or
// pick) a victim, relocate at most the region's StepPages valid pages, and
// erase the victim once it is fully relocated.  The step starts no earlier
// than the die's idle time, so already-dispatched host work is never delayed
// by it.  It returns the step's virtual completion time and whether the step
// made actual progress (pages relocated or a block erased) — a step that
// could do nothing is not counted, so PumpBackgroundGC drain loops
// terminate.
func (m *Manager) backgroundStep(now sim.Time, r *Region, da *dieAlloc) (sim.Time, bool) {
	pol := r.gc
	if da.bgVictim >= 0 && da.blocks[da.bgVictim].state != blkClosed {
		// The victim was finished (or reopened) by a foreground collection
		// in the meantime; start over.
		da.bgVictim = -1
	}
	if da.bgVictim < 0 {
		v := m.pickVictim(da, pol)
		if v >= 0 && float64(da.blocks[v].validCount) > m.bgMaxValid(da.freeCount()) {
			// Even the best victim is too valid to be worth collecting in
			// the background: relocating it now would copy data that is yet
			// to be invalidated, inflating write amplification.  Leave it to
			// accumulate garbage; if the die really runs dry first, the
			// foreground backstop collects it with the same lateness the
			// pre-background design had.
			v = -1
		}
		if v < 0 {
			// Nothing (worth) reclaiming: use the idle slot for wear leveling.
			m.maybeWearLevel(sim.MaxTime(now, m.sched.DieIdleAt(da.die)), r, da)
			return now, false
		}
		da.bgVictim = v
		r.gcRuns++
		if m.tracer.Enabled() {
			m.tracer.Record(obs.Event{
				Class: obs.ClassGCVictim, Op: obs.GCStepBackground,
				Die: int32(da.die), Block: int32(v), Page: -1,
				Region: int32(r.id), Start: now, End: now,
				A: int64(da.blocks[v].validCount),
			})
		}
	}
	start := sim.MaxTime(now, m.sched.DieIdleAt(da.die))
	copybacks, erases := r.gcCopybacks.Value(), r.gcErases.Value()
	end := m.relocateAndErase(start, r, da, da.bgVictim, pol.withDefaults().StepPages, pol)
	switch {
	case da.blocks[da.bgVictim].state == blkFree:
		// Victim fully relocated and erased: the step cycle is complete.
		da.bgVictim = -1
		end = m.maybeWearLevel(end, r, da)
	case da.blocks[da.bgVictim].state == blkRetired:
		// The erase failed; the block left circulation for good.
		da.bgVictim = -1
	}
	if r.gcCopybacks.Value() == copybacks && r.gcErases.Value() == erases {
		// Nothing moved and nothing erased (no destination slots): not a
		// step.  Keep the victim for later, but report no progress so
		// callers draining in a loop do not spin.
		return now, false
	}
	r.bgSteps.Inc()
	if m.tracer.Enabled() {
		m.tracer.Record(obs.Event{
			Class: obs.ClassGCStep, Op: obs.GCStepBackground,
			Die: int32(da.die), Block: -1, Page: -1,
			Region: int32(r.id), Start: start, End: end,
		})
	}
	return end, true
}

// bgMaxValid returns the most valid pages a block may hold and still qualify
// as a background victim, given the die's current free-block count: well
// above the low watermark (explicit PumpBackgroundGC calls during idle
// periods) only nearly-empty blocks — ≤ ¼ valid — are collected, and the bar
// relaxes linearly to "whatever greedy picks" as free blocks run down to the
// low watermark, where the foreground backstop would collect the same block
// anyway.  Collecting lazily when there is slack is what keeps background
// write amplification close to the foreground backstop's, which by
// construction collects as late as possible.
func (m *Manager) bgMaxValid(free int) float64 {
	urgency := min(max(float64(gcHighWater-free)/(gcHighWater-gcLowWater), 0), 1)
	return (0.25 + 0.75*urgency) * float64(m.geo.PagesPerBlock)
}

// PumpBackgroundGC runs at most one background GC step on every die whose
// free-block count is at or below the high watermark and returns the number
// of steps performed.  Callers with knowledge of idle periods (a checkpoint
// just finished, the workload paused) use it to drain GC debt ahead of the
// next burst; tests and experiments use it to drive background GC
// deterministically.
func (m *Manager) PumpBackgroundGC(now sim.Time) int {
	if m.opts.DisableBackgroundGC {
		return 0
	}
	steps := 0
	for _, da := range m.dies {
		if da.freeCount() > gcHighWater {
			continue
		}
		r, ok := m.regionsByID[m.dieOwner[da.die]]
		if !ok {
			continue
		}
		if _, did := m.backgroundStep(now, r, da); did {
			steps++
		}
	}
	return steps
}

// SetGCPolicy replaces the named region's garbage-collection policy.  It
// takes effect immediately: the next step of an in-flight background victim
// already uses the new step bound and hot/cold routing, and the next victim
// selection uses the new policy.
func (m *Manager) SetGCPolicy(name string, p GCPolicy) error {
	r, ok := m.regions[name]
	if !ok {
		return fmt.Errorf("%w: %q", ErrUnknownRegion, name)
	}
	r.gc = p.withDefaults()
	return nil
}

// GCPolicyOf returns the named region's current garbage-collection policy.
func (m *Manager) GCPolicyOf(name string) (GCPolicy, bool) {
	r, ok := m.regions[name]
	if !ok {
		return GCPolicy{}, false
	}
	return r.gc, true
}
