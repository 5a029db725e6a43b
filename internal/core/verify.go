package core

import (
	"fmt"
)

// VerifyIntegrity cross-checks the space manager's internal bookkeeping and
// returns the first inconsistency found, or nil.  It is used by tests after
// stress runs; the checks are:
//
//  1. every logical page maps to a physical slot whose block marks that slot
//     valid and records the same LPN;
//  2. every block's valid counter equals the number of valid slots it holds,
//     and a valid slot the mapping does not point at is a retained checkpoint
//     version: the retained map names exactly that address;
//  3. the number of mapped (retained) valid slots across a region's dies
//     equals the region's valid-page (retained-page) counter, the global
//     mapping size equals the sum over all regions and the retained map holds
//     nothing else;
//  4. dies are owned by exactly one region and every region's die list agrees
//     with the ownership table.
func (m *Manager) VerifyIntegrity() error {

	// (1) mapping -> block bookkeeping.
	var mapped int64
	for lpn, e := range m.mapping.All() {
		if !e.mapped() {
			continue
		}
		mapped++
		addr := e.addr()
		if !m.geo.ValidAddr(addr) {
			return fmt.Errorf("core: lpn %d maps to invalid address %v", lpn, addr)
		}
		blk := &m.dies[addr.Die].blocks[addr.Block]
		if !blk.valid[addr.Page] {
			return fmt.Errorf("core: lpn %d maps to %v which is not marked valid", lpn, addr)
		}
		if blk.lpns[addr.Page] != lpn {
			return fmt.Errorf("core: lpn %d maps to %v which records lpn %d", lpn, addr, blk.lpns[addr.Page])
		}
	}

	// (2) per-block valid counters and (3) per-region totals.
	validPerRegion := make(map[RegionID]int64)
	retainedPerRegion := make(map[RegionID]int64)
	for die, da := range m.dies {
		owner := m.dieOwner[die]
		if _, ok := m.regionsByID[owner]; !ok {
			return fmt.Errorf("core: die %d owned by unknown region %d", die, owner)
		}
		for b := range da.blocks {
			blk := &da.blocks[b]
			count := 0
			for p, v := range blk.valid {
				if !v {
					continue
				}
				count++
				lpn, addr := blk.lpns[p], ppa{Die: die, Block: b, Page: p}
				if e, ok := m.lookup(lpn); ok && e.addr() == addr {
					validPerRegion[owner]++
				} else if _, ok := m.retained[addr]; ok {
					retainedPerRegion[owner]++
				} else {
					return fmt.Errorf("core: die %d block %d page %d claims lpn %d but neither the mapping nor a checkpoint names it", die, b, p, lpn)
				}
			}
			if count != blk.validCount {
				return fmt.Errorf("core: die %d block %d valid count %d, found %d valid slots", die, b, blk.validCount, count)
			}
		}
	}
	var total, retained int64
	for id, r := range m.regionsByID {
		if retainedPerRegion[id] != r.retainedPages {
			return fmt.Errorf("core: region %q retains %d pages, found %d retained slots on its dies",
				r.name, r.retainedPages, retainedPerRegion[id])
		}
		retained += r.retainedPages
		// Spilled writes physically live on default-region dies but remain
		// accounted to the default region, so the comparison is per owner.
		if validPerRegion[id] != r.validPages {
			return fmt.Errorf("core: region %q valid pages %d, found %d valid slots on its dies",
				r.name, r.validPages, validPerRegion[id])
		}
		total += r.validPages
	}
	if total != mapped {
		return fmt.Errorf("core: %d mapped pages but regions account for %d", mapped, total)
	}
	if retained != int64(len(m.retained)) {
		return fmt.Errorf("core: %d retained versions but only %d of them are valid pages", len(m.retained), retained)
	}

	// (4) region die lists agree with the ownership table.
	for id, r := range m.regionsByID {
		for _, d := range r.dies {
			if d < 0 || d >= m.geo.Dies() {
				return fmt.Errorf("core: region %q lists die %d which does not exist", r.name, d)
			}
			if m.dieOwner[d] != id {
				return fmt.Errorf("core: region %q lists die %d but it is owned by region %d", r.name, d, m.dieOwner[d])
			}
		}
	}
	return nil
}
