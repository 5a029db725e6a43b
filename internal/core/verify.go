package core

import (
	"fmt"
	"slices"
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
//  4. every die's region is a live region, and every die a region lists
//     points back to it.
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
	validPerRegion := make(map[*Region]int64)
	retainedPerRegion := make(map[*Region]int64)
	for die, da := range m.dies {
		owner := da.region
		if r, _ := m.RegionByID(owner.id); r != owner {
			return fmt.Errorf("core: die %d is owned by region %q (%d), which was dropped", die, owner.name, owner.id)
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
	for _, r := range m.regions {
		if r == nil {
			continue
		}
		if retainedPerRegion[r] != r.retainedPages {
			return fmt.Errorf("core: region %q retains %d pages, found %d retained slots on its dies",
				r.name, r.retainedPages, retainedPerRegion[r])
		}
		retained += r.retainedPages
		// Spilled writes physically live on default-region dies but remain
		// accounted to the default region, so the comparison is per owner.
		if validPerRegion[r] != r.validPages {
			return fmt.Errorf("core: region %q valid pages %d, found %d valid slots on its dies",
				r.name, r.validPages, validPerRegion[r])
		}
		total += r.validPages
		// (4) the dies the region lists, once each, point back to it.
		for i, d := range r.dies {
			if d < 0 || d >= m.geo.Dies() {
				return fmt.Errorf("core: region %q lists die %d which does not exist", r.name, d)
			}
			if slices.Contains(r.dies[:i], d) {
				return fmt.Errorf("core: region %q lists die %d twice", r.name, d)
			}
			if owner := m.dies[d].region; owner != r {
				return fmt.Errorf("core: region %q lists die %d but it is owned by region %q", r.name, d, owner.name)
			}
		}
	}
	if total != mapped {
		return fmt.Errorf("core: %d mapped pages but regions account for %d", mapped, total)
	}
	if retained != int64(len(m.retained)) {
		return fmt.Errorf("core: %d retained versions but only %d of them are valid pages", len(m.retained), retained)
	}
	return nil
}
