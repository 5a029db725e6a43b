package core

import (
	"fmt"

	"noftl/internal/flash"
	"noftl/internal/iosched"
	"noftl/internal/sim"
)

// PageRead is the per-page result of a batched ReadPages call.
type PageRead struct {
	// LPN is the logical page that was requested.
	LPN LPN
	// Data is the page contents (nil on error, or when the device does not
	// store data).
	Data []byte
	// Meta is the page's OOB metadata.
	Meta flash.PageMeta
	// Done is the virtual completion time of this page's read.
	Done sim.Time
	// Err reports a per-page failure (e.g. an unmapped LPN); other pages of
	// the batch are unaffected.
	Err error
}

// ReadPages reads a batch of logical pages through the I/O scheduler.  Pages
// whose current physical copies live on different dies are read concurrently
// in virtual time; same-die pages serialize on the die.  bufs may be nil, or
// provide one destination buffer per LPN (individual entries may be nil).
//
// The returned slice has one entry per requested LPN, in request order;
// unmapped pages carry ErrUnmappedPage in their entry and cost no device
// time.  The second return value is the batch makespan: the virtual time at
// which the last read completed (now when nothing was readable).
func (m *Manager) ReadPages(now sim.Time, lpns []LPN, bufs [][]byte) ([]PageRead, sim.Time) {
	out := make([]PageRead, len(lpns))
	reqs := make([]iosched.Request, 0, len(lpns))
	reqIdx := make([]int, 0, len(lpns))
	reqRegion := make([]*Region, 0, len(lpns))

	m.mu.Lock()
	for i, lpn := range lpns {
		out[i].LPN = lpn
		out[i].Done = now
		e, ok := m.mapping[lpn]
		if !ok {
			out[i].Err = fmt.Errorf("%w: lpn %d", ErrUnmappedPage, lpn)
			continue
		}
		r := m.regionsByID[m.dieOwner[e.addr.Die]]
		var buf []byte
		if bufs != nil && i < len(bufs) {
			buf = bufs[i]
		}
		reqs = append(reqs, iosched.Request{
			Op:       iosched.OpReadPage,
			Addr:     e.addr,
			Buf:      buf,
			Priority: iosched.PrioHostRead,
			Tag:      uint64(lpn),
		})
		reqIdx = append(reqIdx, i)
		reqRegion = append(reqRegion, r)
	}
	m.mu.Unlock()

	cs, end := m.sched.Submit(now, reqs)
	for j, c := range cs {
		i := reqIdx[j]
		out[i].Data = c.Data
		out[i].Meta = c.Meta
		out[i].Done = c.Done
		out[i].Err = c.Err
		if c.Err == nil {
			// The collectors are internally synchronized; the region pointer
			// is stable for the life of the manager.
			reqRegion[j].hostReads.Inc()
			reqRegion[j].readLat.Observe(c.Done.Sub(now))
		}
	}
	return out, end
}

// PageWrite is one element of a batched WritePages call.
type PageWrite struct {
	// LPN is the logical page to write.
	LPN LPN
	// Data is the page payload (PageSize bytes, or nil when the device does
	// not store data).
	Data []byte
	// Hint carries the placement hint, exactly as in WritePage.
	Hint Hint
}

// pendingProgram tracks one allocated slot of a write batch until its
// program completion arrives.
type pendingProgram struct {
	idx  int // index into the writes slice
	r    *Region
	da   *dieAlloc
	slot slotRef
	addr ppa
}

// WritePages writes a batch of logical pages out of place through the I/O
// scheduler.  Slots are allocated round-robin over each target region's dies
// (exactly as WritePage does per page), so a batch naturally stripes across
// dies and its programs overlap in virtual time; any synchronous GC the
// allocations trigger is charged to the batch start, mirroring WritePage.
//
// On success the returned time is the completion of the slowest page.  A
// per-page device failure rolls back that page's slot and is returned as the
// call's error after the remaining pages have been accounted; an allocation
// failure (region full) aborts the batch before any program is issued.
func (m *Manager) WritePages(now sim.Time, writes []PageWrite) (sim.Time, error) {
	if len(writes) == 0 {
		return now, nil
	}
	start := now
	m.mu.Lock()
	defer m.mu.Unlock()

	// Phase 1: admission and slot allocation.  pendingNew counts pages of
	// this batch admitted to each region but not yet reflected in
	// validPages, so a batch cannot overshoot a region's logical capacity.
	pendingNew := make(map[RegionID]int64)
	pends := make([]pendingProgram, 0, len(writes))
	reqs := make([]iosched.Request, 0, len(writes))
	batchStart := now
	for i, w := range writes {
		r := m.resolveRegion(w.Hint)
		prev, remap := m.mapping[w.LPN]
		consumes := !remap || prev.region != r.id
		if consumes && r.validPages+pendingNew[r.id] >= r.capacityPages {
			if m.opts.DisableSpill || r.id == DefaultRegionID {
				return now, fmt.Errorf("%w: %q (%d pages)", ErrRegionFull, r.name, r.capacityPages)
			}
			r.spills++
			r = m.regionsByID[DefaultRegionID]
			consumes = !remap || prev.region != r.id
			if consumes && r.validPages+pendingNew[r.id] >= r.capacityPages {
				return now, fmt.Errorf("%w: %q (%d pages)", ErrRegionFull, r.name, r.capacityPages)
			}
		}
		da, slot, gcDone, err := m.allocateSlot(now, r)
		if err != nil {
			if !m.opts.DisableSpill && r.id != DefaultRegionID {
				r.spills++
				r = m.regionsByID[DefaultRegionID]
				da, slot, gcDone, err = m.allocateSlot(now, r)
			}
			if err != nil {
				// Roll back the slots already reserved for this batch; no
				// program has been issued yet.
				m.rollbackSlots(pends, len(pends))
				return now, err
			}
		}
		if gcDone > batchStart {
			batchStart = gcDone
		}
		if consumes {
			pendingNew[r.id]++
		}
		addr := ppa{Die: da.die, Block: slot.block, Page: slot.page}
		m.seq++
		reqs = append(reqs, iosched.Request{
			Op:   iosched.OpProgram,
			Addr: addr,
			Data: w.Data,
			Meta: flash.PageMeta{
				LPN:      uint64(w.LPN),
				ObjectID: w.Hint.ObjectID,
				RegionID: uint32(r.id),
				Seq:      m.seq,
				Flags:    w.Hint.Flags,
			},
			Priority: iosched.PrioHostWrite,
			Tag:      uint64(w.LPN),
		})
		pends = append(pends, pendingProgram{idx: i, r: r, da: da, slot: slot, addr: addr})
	}

	// Phase 2: dispatch all programs as one batch.  Different dies overlap;
	// programs to one die pipeline on its resource.
	cs, end := m.sched.Submit(batchStart, reqs)

	// Phase 3: bookkeeping.  Device program failures on a block form a
	// suffix (the sequential-programming constraint rejects everything after
	// the first failed page), so decrementing nextPage once per failure
	// re-synchronizes the manager's cursor with the device.
	var firstErr error
	for j, c := range cs {
		p := pends[j]
		w := writes[p.idx]
		blk := &p.da.blocks[p.slot.block]
		if c.Err != nil {
			blk.nextPage--
			m.retireIfBad(p.da, p.slot.block)
			if firstErr == nil {
				firstErr = c.Err
			}
			continue
		}
		blk.lpns[p.slot.page] = w.LPN
		blk.valid[p.slot.page] = true
		blk.validCount++
		blk.lastWrite = m.seq
		if blk.nextPage >= m.geo.PagesPerBlock {
			blk.state = blkClosed
			if p.da.hostOpen == p.slot.block {
				p.da.hostOpen = -1
			}
		}
		old, had := m.mapping[w.LPN]
		m.mapping[w.LPN] = mapEntry{addr: p.addr, region: p.r.id}
		if had {
			m.invalidate(old)
			if old.region != p.r.id {
				if or, ok := m.regionsByID[old.region]; ok && or.validPages > 0 {
					or.validPages--
				}
				p.r.validPages++
			}
		} else {
			p.r.validPages++
		}
		p.r.hostWrites.Inc()
		p.r.writeLat.Observe(c.Done.Sub(start))
	}
	if end < now {
		end = now
	}
	// Opportunistic background GC on each die the batch touched, after the
	// batch makespan has been determined so step costs stay out of it.
	pumped := make(map[int]bool, len(pends))
	for _, p := range pends {
		if pumped[p.da.die] {
			continue
		}
		pumped[p.da.die] = true
		m.backgroundGCLocked(end, p.da)
	}
	return end, firstErr
}

// rollbackSlots releases the first n reserved-but-unprogrammed slots of a
// batch (used when admission fails partway through allocation).  Caller
// holds m.mu.
func (m *Manager) rollbackSlots(pends []pendingProgram, n int) {
	for i := n - 1; i >= 0; i-- {
		p := pends[i]
		p.da.blocks[p.slot.block].nextPage--
	}
}
