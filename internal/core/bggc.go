// Background, incremental garbage collection.
//
// The paper's argument (§2) is that once space management lives in the DBMS,
// garbage collection no longer has to fire blindly under the host's feet: it
// can be scheduled around the workload.  This file implements that as a
// watermark pair per die:
//
//   - a host write that leaves the die at or below gcLowWater free blocks
//     takes a background victim, and while the die stays at or below
//     gcHighWater later writes collect it in bounded steps (relocate ≤k
//     pages → erase) that are submitted through the I/O scheduler at GC
//     priority in the die's idle virtual-time slots, and whose cost is NOT
//     charged to the host write that triggered them.  The next victim waits
//     for the low watermark again: taking it earlier would relocate pages
//     that are yet to be invalidated;
//   - at or below gcLowWater the foreground backstop (collectDie) still
//     blocks the allocation until the die is healthy again — correctness
//     never depends on background progress.
//
// The step size and victim policy come from the owning region's GCPolicy,
// fixed when the region is created.
package core

import (
	"noftl/internal/obs"
	"noftl/internal/sim"
)

// backgroundGC runs at most one bounded GC step on the die when its
// free-block count is at or below the high watermark: resume the victim in
// progress (or take a new one), relocate at most the region's StepPages valid
// pages, and erase the victim once it is fully relocated.  Called at the end
// of host write paths; the step starts no earlier than the die's idle time,
// so already-dispatched host work is never delayed by it, and its
// virtual-time cost is absorbed by the die's idle slots rather than the
// caller's latency.
func (m *Manager) backgroundGC(now sim.Time, da *dieAlloc) {
	if m.opts.DisableBackgroundGC || da.freeCount() > gcHighWater {
		return
	}
	if m.sched.DieIdleAt(da.die) > now {
		// The die still has work scheduled beyond this point in virtual
		// time: its next slot is not idle.  Stacking a step now would queue
		// GC in front of future host requests; skip and let a later write
		// (or the low-watermark backstop) drive progress instead.
		return
	}
	if da.bgVictim >= 0 && da.blocks[da.bgVictim].state != blkClosed {
		// The victim was finished (or reopened) by a foreground collection
		// in the meantime; start over.
		da.bgVictim = -1
	}
	if da.bgVictim < 0 && da.freeCount() > gcLowWater {
		// No victim in progress and the die has not reached the level at
		// which a foreground collection would fire.  Starting one now would
		// collect blocks earlier — and therefore with more still-valid
		// pages — than the foreground policy, inflating write amplification.
		// The watermark band above the low mark is for draining in-progress
		// debt, not for taking debt on early.
		return
	}
	r, ok := m.regionsByID[m.dieOwner[da.die]]
	if !ok {
		return
	}
	pol := r.gc
	if da.bgVictim < 0 {
		// At or below the low watermark the foreground backstop would
		// collect the same victim: whatever the policy picks is worth it.
		v := m.pickVictim(da, pol)
		if v < 0 {
			// Nothing to reclaim: use the idle slot for wear leveling.
			m.maybeWearLevel(sim.MaxTime(now, m.sched.DieIdleAt(da.die)), r, da)
			return
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
	copybacks, erases := r.gcCopybacks, r.gcErases
	end := m.relocateAndErase(start, r, da, da.bgVictim, pol.StepPages, pol)
	switch {
	case da.blocks[da.bgVictim].state == blkFree:
		// Victim fully relocated and erased: the step cycle is complete.
		da.bgVictim = -1
		end = m.maybeWearLevel(end, r, da)
	case da.blocks[da.bgVictim].state == blkRetired:
		// The erase failed; the block left circulation for good.
		da.bgVictim = -1
	}
	if r.gcCopybacks == copybacks && r.gcErases == erases {
		// Nothing moved and nothing erased (no destination slots): not a
		// step.  Keep the victim for a later write.
		return
	}
	r.bgSteps++
	if m.tracer.Enabled() {
		m.tracer.Record(obs.Event{
			Class: obs.ClassGCStep, Op: obs.GCStepBackground,
			Die: int32(da.die), Block: -1, Page: -1,
			Region: int32(r.id), Start: start, End: end,
		})
	}
}
