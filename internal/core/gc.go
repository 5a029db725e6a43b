package core

import (
	"errors"
	"fmt"
	"math"
	"strings"

	"noftl/internal/flash"
	"noftl/internal/iosched"
	"noftl/internal/obs"
	"noftl/internal/sim"
)

// ErrUnknownPolicy reports an unrecognized victim-policy spelling.
var ErrUnknownPolicy = errors.New("core: unknown GC victim policy")

// VictimPolicy selects how a garbage-collection victim block is chosen
// within a die.
type VictimPolicy uint8

const (
	// VictimGreedy picks the closed block with the fewest valid pages: the
	// cheapest block to clean right now.  Best for uniform workloads.
	VictimGreedy VictimPolicy = iota
	// VictimCostBenefit weighs reclaimable space against relocation cost and
	// block age (classic cost-benefit: age * (1-u) / 2u).  Old, mostly
	// invalid blocks win over recently written ones, which avoids relocating
	// hot pages that are about to be invalidated anyway — better for skewed
	// update workloads.
	VictimCostBenefit
)

// String returns the lower-case name used in stats and metrics.
func (v VictimPolicy) String() string {
	switch v {
	case VictimGreedy:
		return "greedy"
	case VictimCostBenefit:
		return "cost_benefit"
	default:
		return "unknown"
	}
}

// ParseVictimPolicy parses the DDL spelling of a victim policy
// (case-insensitive: GREEDY, COST_BENEFIT or COSTBENEFIT).
func ParseVictimPolicy(s string) (VictimPolicy, error) {
	switch strings.ToUpper(s) {
	case "GREEDY":
		return VictimGreedy, nil
	case "COST_BENEFIT", "COSTBENEFIT", "COST-BENEFIT":
		return VictimCostBenefit, nil
	default:
		return VictimGreedy, fmt.Errorf("%w: %q", ErrUnknownPolicy, s)
	}
}

// GCPolicy is the per-region garbage-collection configuration.  The paper's
// point is exactly that these knobs belong to the DBMS, per data region,
// instead of being hard-wired inside an FTL: a region holding an append-only
// log wants different victim selection than one holding a hot index.
type GCPolicy struct {
	// Victim selects the victim-block policy.
	Victim VictimPolicy
	// StepPages bounds how many valid pages one background GC step relocates
	// (the "≤k pages" increment).  Zero means the default of 8.  Foreground
	// (low-watermark backstop) collections are never bounded.
	StepPages int
	// DisableHotCold turns off hot/cold separation: relocated pages then
	// share the die's host-write active block instead of a dedicated GC
	// block.  Mixing cold survivors with fresh hot writes raises write
	// amplification under skewed workloads, so separation defaults to on.
	DisableHotCold bool
}

// DefaultGCPolicy returns the default policy: greedy victim selection,
// 8-page background steps, hot/cold separation on.
func DefaultGCPolicy() GCPolicy {
	return GCPolicy{Victim: VictimGreedy, StepPages: 8}
}

func (p GCPolicy) withDefaults() GCPolicy {
	if p.StepPages <= 0 {
		p.StepPages = 8
	}
	return p
}

// HotCold reports whether relocated pages go to a dedicated GC active block.
func (p GCPolicy) HotCold() bool { return !p.DisableHotCold }

// String renders the policy for stats output.
func (p GCPolicy) String() string {
	hc := "on"
	if p.DisableHotCold {
		hc = "off"
	}
	return fmt.Sprintf("%s step=%d hot/cold=%s", p.Victim, p.withDefaults().StepPages, hc)
}

// collectDie is the foreground correctness backstop: it runs garbage
// collection on one die until the die's free-block count is above the
// low-water mark or no further space can be reclaimed.  The work (copybacks
// and erases) is issued against the flash device in the caller's virtual
// time, so a host write that trips the low watermark pays the full
// victim-relocation latency inline — exactly the stall that background GC
// (bggc.go) exists to avoid.
func (m *Manager) collectDie(now sim.Time, r *Region, da *dieAlloc) sim.Time {
	r.counts.GCStalls++
	fgStart := now
	for da.freeCount() <= gcLowWater {
		victim := m.pickVictim(da, r.gc)
		if victim < 0 {
			break
		}
		if m.tracer.Enabled() {
			m.tracer.Record(obs.Event{
				Class: obs.ClassGCVictim, Op: obs.GCStepForeground,
				Die: int32(da.die), Block: int32(victim), Page: -1,
				Region: int32(r.id), Start: now, End: now,
				A: int64(da.blocks[victim].validCount),
			})
		}
		r.counts.GCRuns++
		copybacks, erases := r.counts.GCCopybacks, r.counts.GCErases
		now = m.relocateAndErase(now, r, da, victim, m.geo.PagesPerBlock, r.gc)
		if r.counts.GCCopybacks == copybacks && r.counts.GCErases == erases {
			// No destination slots and nothing erased: further iterations
			// would re-pick the same victim without making progress, so let
			// the allocation fail upward instead of spinning.
			break
		}
	}
	now = m.maybeWearLevel(now, r, da)
	if now > fgStart && m.tracer.Enabled() {
		// One foreground-collection window covering every victim this call
		// relocated and erased: the inline stall the host write paid.
		m.tracer.Record(obs.Event{
			Class: obs.ClassGCStep, Op: obs.GCStepForeground,
			Die: int32(da.die), Block: -1, Page: -1,
			Region: int32(r.id), Start: fgStart, End: now,
		})
	}
	return now
}

// pickVictim chooses a victim block on the die under the region's policy, or
// -1 when no block qualifies.
func (m *Manager) pickVictim(da *dieAlloc, pol GCPolicy) int {
	if pol.Victim == VictimCostBenefit {
		return m.pickVictimCostBenefit(da)
	}
	return m.pickVictimGreedy(da)
}

// pickVictimGreedy chooses the closed block with the fewest valid pages.
// Blocks that are completely valid are never picked because collecting them
// reclaims nothing.
func (m *Manager) pickVictimGreedy(da *dieAlloc) int {
	best := -1
	bestValid := m.geo.PagesPerBlock // must be strictly better than "all valid"
	for i := range da.blocks {
		blk := &da.blocks[i]
		if blk.state != blkClosed {
			continue
		}
		if i == da.hostOpen || i == da.gcOpen {
			continue
		}
		if blk.validCount < bestValid {
			bestValid = blk.validCount
			best = i
		}
	}
	return best
}

// pickVictimCostBenefit chooses the closed block maximizing
// age * (1-u) / 2u, where u is the block's valid-page utilization and age is
// the write-sequence distance since the block last changed.
func (m *Manager) pickVictimCostBenefit(da *dieAlloc) int {
	best := -1
	var bestScore float64
	ppb := m.geo.PagesPerBlock
	for i := range da.blocks {
		blk := &da.blocks[i]
		if blk.state != blkClosed {
			continue
		}
		if i == da.hostOpen || i == da.gcOpen {
			continue
		}
		if blk.validCount >= ppb {
			continue // fully valid: reclaims nothing
		}
		u := float64(clampValid(blk.validCount, ppb)) / float64(ppb)
		age := 1.0
		if m.seq > blk.lastWrite {
			age += float64(m.seq - blk.lastWrite)
		}
		score := age * (1 - u) / (2*u + 1e-9)
		if best < 0 || score > bestScore {
			best, bestScore = i, score
		}
	}
	return best
}

// clampValid bounds a valid-page count into [0, pagesPerBlock] so corrupted
// or wrapped counters cannot skew victim scoring.
func clampValid(v, pagesPerBlock int) int {
	if v < 0 {
		return 0
	}
	if v > pagesPerBlock {
		return pagesPerBlock
	}
	return v
}

// gcMove is one page a collection relocates: its page in the victim and the
// slot reserved for it.
type gcMove struct {
	page int
	dst  slotRef
}

// relocateAndErase moves up to maxMoves still-valid pages of the victim to an
// active block chosen by the region's policy using the on-die copyback
// command, then — once the victim holds no valid pages — erases it and
// returns it to the free list.  A bounded maxMoves turns this into one
// incremental GC step: the victim simply stays closed until later steps
// finish it.  The copybacks are submitted to the I/O scheduler as one
// GC-priority batch; note that priorities order requests within a single
// dispatch only — a host request arriving after this batch has been
// dispatched still queues behind it on the die, exactly as on hardware that
// cannot abort an in-flight program.  The manager's scratch (m.gc) holds the
// moves, their copybacks and completions.
func (m *Manager) relocateAndErase(now sim.Time, r *Region, da *dieAlloc, victim, maxMoves int, pol GCPolicy) sim.Time {
	pagesPerBlock := m.geo.PagesPerBlock
	vblk := &da.blocks[victim]

	// Reserve a destination slot for every valid page (up to the step
	// bound), then dispatch the copybacks as one batch.
	moves, reqs := m.gc.moves[:0], m.gc.reqs[:0]
	for page := 0; page < pagesPerBlock && len(moves) < maxMoves; page++ {
		if !vblk.valid[page] {
			continue
		}
		dst, ok := m.relocSlot(da, pol)
		if !ok {
			// No space to relocate into: give up on the remaining pages (the
			// victim stays closed and keeps them).
			break
		}
		moves = append(moves, gcMove{page: page, dst: dst})
		reqs = append(reqs, iosched.Request{
			Op:       iosched.OpCopyback,
			Addr:     ppa{Die: da.die, Block: victim, Page: page},
			Dst:      ppa{Die: da.die, Block: dst.block, Page: dst.page},
			Priority: iosched.PrioGC,
		})
	}
	cs, end := m.sched.SubmitAppend(m.gc.done[:0], now, reqs)
	m.gc.moves, m.gc.reqs, m.gc.done = moves, reqs, cs
	for i, c := range cs {
		mv := moves[i]
		dblk := &da.blocks[mv.dst.block]
		if c.Err != nil {
			// The device refused (worn-out destination, …).  Release the
			// reserved slot; the page remains valid in the victim, which
			// therefore cannot be erased this round.
			dblk.nextPage--
			m.retireIfBad(da, mv.dst.block)
			continue
		}
		lpn := LPN(c.Meta.LPN)
		dblk.lpns[mv.dst.page] = lpn
		dblk.valid[mv.dst.page] = true
		dblk.validCount++
		dblk.lastWrite = m.seq
		if dblk.nextPage >= pagesPerBlock {
			dblk.state = blkClosed
			if da.gcOpen == mv.dst.block {
				da.gcOpen = -1
			}
			if da.hostOpen == mv.dst.block {
				da.hostOpen = -1
			}
		}
		// Redirect whoever named the page to its new physical home: a
		// checkpoint's retained version (the copy keeps its OOB sequence, so
		// recovery finds it all the same) or the logical page's mapping.
		src := ppa{Die: da.die, Block: victim, Page: mv.page}
		dst := ppa{Die: da.die, Block: mv.dst.block, Page: mv.dst.page}
		if epoch, ok := m.retained[src]; ok {
			delete(m.retained, src)
			m.retained[dst] = epoch
		} else {
			e := m.mapping.Slot(lpn)
			*e = newMapEntry(dst, e.log(), e.seq)
		}
		vblk.valid[mv.page] = false
		vblk.validCount--
		r.counts.GCCopybacks++
		m.charge(c.Meta.ObjectID, opCopyback)
	}
	if len(reqs) > 0 {
		now = end
	}
	if vblk.validCount > 0 {
		// Not fully relocated (step bound, slot shortage or copyback error);
		// leave the victim closed for a later step.
		return now
	}
	done, err := m.sched.Erase(now, flash.BlockAddr{Die: da.die, Block: victim}, iosched.PrioGC)
	if err != nil {
		// A worn-out block leaves circulation for good: retired blocks are
		// skipped by every victim scan, so a failed erase cannot leave an
		// empty closed block that greedy would re-pick forever.
		vblk.state = blkRetired
		return now
	}
	vblk.reset(pagesPerBlock)
	if vblk.eraseCount < math.MaxInt64 {
		vblk.eraseCount++ // saturate instead of wrapping negative
	}
	da.freeBlocks = append(da.freeBlocks, victim)
	r.counts.GCErases++
	if m.tracer.Enabled() {
		m.tracer.Record(obs.Event{
			Class: obs.ClassGCErase,
			Die:   int32(da.die), Block: int32(victim), Page: -1,
			Region: int32(r.id), Start: now, End: done,
			A: vblk.eraseCount,
		})
	}
	return done
}

// relocSlot returns the next destination slot for a relocated page.  With
// hot/cold separation (the default) relocated pages fill a dedicated GC
// active block; with separation off they share the die's host active block,
// re-mixing cold survivors with fresh hot writes.
func (m *Manager) relocSlot(da *dieAlloc, pol GCPolicy) (slotRef, bool) {
	if pol.HotCold() {
		return m.gcSlot(da)
	}
	if da.hostOpen < 0 || da.blocks[da.hostOpen].nextPage >= m.geo.PagesPerBlock {
		idx := m.popFreeBlock(da)
		if idx < 0 {
			// Sharing the host block is a placement preference, not a
			// correctness constraint: when the free list is empty but a GC
			// block is still open (e.g. left over from a policy switch),
			// use it rather than wedging the collection.
			if da.gcOpen >= 0 && da.blocks[da.gcOpen].nextPage < m.geo.PagesPerBlock {
				return m.gcSlot(da)
			}
			return slotRef{}, false
		}
		da.blocks[idx].state = blkOpen
		da.hostOpen = idx
	}
	blk := &da.blocks[da.hostOpen]
	slot := slotRef{block: da.hostOpen, page: blk.nextPage}
	blk.nextPage++
	return slot, true
}

// gcSlot returns the next page slot of the die's GC open block, opening a new
// one from the free list when necessary.  GC may dip into the reserve blocks
// that host writes are not allowed to touch.
func (m *Manager) gcSlot(da *dieAlloc) (slotRef, bool) {
	if da.gcOpen < 0 || da.blocks[da.gcOpen].nextPage >= m.geo.PagesPerBlock {
		idx := m.popFreeBlock(da)
		if idx < 0 {
			return slotRef{}, false
		}
		da.blocks[idx].state = blkOpen
		da.gcOpen = idx
	}
	blk := &da.blocks[da.gcOpen]
	slot := slotRef{block: da.gcOpen, page: blk.nextPage}
	blk.nextPage++
	return slot, true
}

// maybeWearLevel performs static wear leveling: when the spread between the
// most- and least-worn block of the die exceeds the configured delta, the
// coldest block (least worn, typically holding static data) is relocated and
// erased so that its low-wear cells re-enter circulation.
//
// All erase-count arithmetic is overflow-safe: counters are clamped to
// non-negative before comparison and the spread/threshold checks are written
// as subtractions of non-negative values, so a saturated counter near
// math.MaxInt64 can never wrap a comparison and trick the leveler into
// moving the wrong block (or moving blocks forever).
func (m *Manager) maybeWearLevel(now sim.Time, r *Region, da *dieAlloc) sim.Time {
	var minE, maxE int64
	minIdx := -1
	first := true
	for i := range da.blocks {
		ec := clampErase(da.blocks[i].eraseCount)
		if first {
			minE, maxE = ec, ec
			first = false
		}
		if ec < minE {
			minE = ec
		}
		if ec > maxE {
			maxE = ec
		}
		if da.blocks[i].state == blkClosed && i != da.hostOpen && i != da.gcOpen {
			if minIdx < 0 || clampErase(da.blocks[i].eraseCount) < clampErase(da.blocks[minIdx].eraseCount) {
				minIdx = i
			}
		}
	}
	// maxE >= minE >= 0, so the uint64 difference cannot overflow even when
	// a counter has saturated at math.MaxInt64.
	if minIdx < 0 || uint64(maxE)-uint64(minE) <= wearLevelDelta {
		return now
	}
	if clampErase(da.blocks[minIdx].eraseCount)-minE > wearLevelDelta/2 {
		// The coldest closed block is not actually among the least worn.
		// (Written as a subtraction: the old minE + delta/2 form overflows
		// int64 when counters approach the saturation cap.)
		return now
	}
	before := r.counts.GCErases
	wlStart := now
	now = m.relocateAndErase(now, r, da, minIdx, m.geo.PagesPerBlock, r.gc)
	if r.counts.GCErases > before {
		r.counts.WearMoves++
		if m.tracer.Enabled() {
			m.tracer.Record(obs.Event{
				Class: obs.ClassWear,
				Die:   int32(da.die), Block: int32(minIdx), Page: -1,
				Region: int32(r.id), Start: wlStart, End: now,
				A: minE, B: maxE,
			})
		}
	}
	return now
}

// clampErase bounds an erase counter to be non-negative so that a wrapped or
// corrupted value cannot skew wear-leveling decisions.
func clampErase(ec int64) int64 {
	if ec < 0 {
		return 0
	}
	return ec
}

// retireIfBad checks whether a block that just refused a program has been
// marked bad by the device (which happens at the final erase of its
// endurance budget, while the block is empty) and, if so, retires it so
// allocation stops handing out its pages.  Without this, a bad block stays
// the die's open block and every subsequent write to it fails forever.
func (m *Manager) retireIfBad(da *dieAlloc, block int) {
	bad, err := m.dev.IsBad(flash.BlockAddr{Die: da.die, Block: block})
	if err != nil || !bad {
		return
	}
	blk := &da.blocks[block]
	if blk.validCount > 0 {
		// Defensive: never drop live data (cannot happen with erase-time
		// badness, since such blocks are empty).
		return
	}
	blk.state = blkRetired
	if da.hostOpen == block {
		da.hostOpen = -1
	}
	if da.gcOpen == block {
		da.gcOpen = -1
	}
}
