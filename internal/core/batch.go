package core

import (
	"errors"
	"fmt"

	"noftl/internal/flash"
	"noftl/internal/iosched"
	"noftl/internal/obs"
	"noftl/internal/sim"
)

// The host I/O path.  ReadPages and WritePages are the one implementation of
// a host read and a host write: translate (or place) every page, dispatch the
// flash commands as one scheduler batch, then account each completion.
// ReadPage and WritePage are their one-element entries.

// PageRead is the per-page result of a batched ReadPages call.
type PageRead struct {
	// LPN is the logical page that was requested.
	LPN LPN
	// Data is the page contents (nil on error, or when the page was written
	// without a payload).
	Data []byte
	// Meta is the page's OOB metadata.
	Meta flash.PageMeta
	// Done is the virtual completion time of this page's read.
	Done sim.Time
	// Err reports a per-page failure (e.g. an unmapped LPN); other pages of
	// the batch are unaffected.
	Err error

	// region and addr carry the translation from the lookup to the
	// completion's accounting; region is nil for an unmapped page.
	region *Region
	addr   ppa
}

// ReadPage reads the current version of the logical page into buf, or returns
// the device's own, read-only buffer of it when buf is nil.  It returns the
// data, the virtual completion time and an error if the page was never written.
func (m *Manager) ReadPage(now sim.Time, lpn LPN, buf []byte) ([]byte, sim.Time, error) {
	lpns, bufs, out := [1]LPN{lpn}, [1][]byte{buf}, [1]PageRead{}
	m.readPages(now, lpns[:], bufs[:], out[:])
	return out[0].Data, out[0].Done, out[0].Err
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
	return out, m.readPages(now, lpns, bufs, out)
}

// readPages fills out (one entry per LPN) and returns the batch makespan.
func (m *Manager) readPages(now sim.Time, lpns []LPN, bufs [][]byte, out []PageRead) sim.Time {
	var one [1]iosched.Request // keeps a lone read off the heap
	reqs := one[:0]
	if len(lpns) > len(one) {
		reqs = make([]iosched.Request, 0, len(lpns))
	}
	tr := m.tracer
	for i, lpn := range lpns {
		out[i] = PageRead{LPN: lpn, Done: now}
		e, ok := m.lookup(lpn)
		if !ok {
			out[i].Err = fmt.Errorf("%w: lpn %d", ErrUnmappedPage, lpn)
			continue
		}
		out[i].region, out[i].addr = m.regionsByID[m.dieOwner[e.die]], e.addr()
		var buf []byte
		if i < len(bufs) {
			buf = bufs[i]
		}
		reqs = append(reqs, iosched.Request{
			Op:       iosched.OpReadPage,
			Addr:     out[i].addr,
			Buf:      buf,
			Priority: iosched.PrioHostRead,
			Tag:      uint64(lpn),
		})
	}

	var done [1]iosched.Completion
	cs, end := m.sched.SubmitAppend(done[:0], now, reqs)
	traced := tr.Enabled()
	j := 0
	for i := range out {
		o := &out[i]
		if o.region == nil {
			continue // unmapped: no command was issued
		}
		c := cs[j]
		j++
		o.Data, o.Meta, o.Done, o.Err = c.Data, c.Meta, c.Done, c.Err
		if c.Err != nil {
			continue
		}
		o.region.hostReads++
		m.charge(c.Meta.ObjectID, opRead)
		o.region.readLat.Observe(c.Done.Sub(now))
		if traced {
			tr.Record(obs.Event{
				Class: obs.ClassHostRead,
				Die:   int32(o.addr.Die), Block: int32(o.addr.Block), Page: int32(o.addr.Page),
				Region: int32(o.region.id), Start: now, End: c.Done, A: int64(o.LPN),
			})
		}
	}
	return end
}

// PageBuf, Hold and Release are the device's (see the package comment).
func (m *Manager) PageBuf() []byte    { return m.dev.PageBuf() }
func (m *Manager) Hold(buf []byte)    { m.dev.Hold(buf) }
func (m *Manager) Release(buf []byte) { m.dev.Release(buf) }

// PageWrite is one element of a batched WritePages call.
type PageWrite struct {
	// LPN is the logical page to write.
	LPN LPN
	// Data is the page payload (PageSize bytes, or nil for a page that
	// carries its metadata only), the device's once handed over.
	Data []byte
	// Hint carries the placement hint.
	Hint Hint
}

// hostWrite tracks one page of a write batch from placement to commit.
type hostWrite struct {
	r        *Region   // region the page was placed in (after any spill)
	da       *dieAlloc // die holding the reserved slot; nil while none is reserved
	slot     slotRef
	seq      uint64 // write sequence the program carries
	consumes bool   // the placement is counted in r.admitted
	done     bool   // programmed and committed
	faults   uint8  // transient program faults this page has hit
}

// maxProgramRetries bounds how often a page that hit a transient program
// fault is placed again before the error surfaces.
const maxProgramRetries = 3

// WritePage writes (or overwrites) one logical page: a WritePages batch of
// one.
func (m *Manager) WritePage(now sim.Time, lpn LPN, data []byte, h Hint) (sim.Time, error) {
	w := [1]PageWrite{{LPN: lpn, Data: data, Hint: h}}
	return m.WritePages(now, w[:])
}

// WritePages writes a batch of logical pages out of place in the regions
// selected by their hints; the previous physical versions, if any, are
// invalidated.  Slots are allocated round-robin over each target region's
// dies, so a batch naturally stripes across dies and its programs overlap in
// virtual time.  When a target die falls to the low watermark, a blocking
// foreground collection runs as part of the call and its cost is charged to
// the batch start, exactly like foreground GC on a real device; between the
// high and low watermarks, background GC instead runs a bounded step per
// touched die after the batch, whose cost is absorbed by the die's idle slots
// (see bggc.go).  A foreground collection stalls the programs of its own die
// only: the rest of the batch is dispatched at the submission time.
//
// On success the returned time is the completion of the slowest page.  A
// page that hits a transient program fault — and the later pages of the
// batch on the same block, which the device's sequential-programming check
// rejects in its wake — is placed again on a fresh slot and resubmitted, a
// bounded number of times per page.  Any other failure (full region, bad
// block, crashed device) ends the call with that error once the pages that
// did land have been accounted; a full region is detected before any program
// is issued.
func (m *Manager) WritePages(now sim.Time, writes []PageWrite) (sim.Time, error) {
	if len(writes) == 0 {
		return now, nil
	}
	if cap(m.pends) < len(writes) {
		m.pends = make([]hostWrite, len(writes))
	}
	pends := m.pends[:len(writes)]
	clear(pends)
	traced := m.tracer.Enabled()

	var err error
	at, end := now, now
rounds:
	for left := len(writes); left > 0 && err == nil; {
		// Place every page still to be written and build its program.
		reqs := m.reqs[:0]
		placedAt := at
		for i := range pends {
			if pends[i].done {
				continue
			}
			p := &pends[i]
			req, gcDone, perr := m.placeWrite(placedAt, &writes[i], p)
			if perr != nil {
				err = perr
				break rounds
			}
			at = max(at, gcDone) // a retry round starts after every collection
			// The page, and the batch's later pages on its die, wait for the
			// erase that made room for them.
			p.da.stall = max(p.da.stall, gcDone)
			req.NotBefore = p.da.stall
			reqs = append(reqs, req)
		}

		// Dispatch all programs as one batch.  Different dies overlap;
		// programs to one die pipeline on its resource.
		cs, done := m.sched.SubmitAppend(m.done[:0], placedAt, reqs)
		end = max(end, done)
		clear(reqs) // drop the payload references
		m.reqs, m.done = reqs, cs

		// Commit the programs that landed and release the slots of those
		// that did not.  Failures on a block form a suffix (everything after
		// the first failed page is rejected), so releasing one slot per
		// failure re-synchronizes the manager's cursor with the device.
		faulted := false
		j := 0
		for i := range pends {
			p := &pends[i]
			if p.done {
				continue
			}
			c := cs[j]
			j++
			if c.Err == nil {
				m.commitWrite(p, &writes[i], now, c.Done, traced)
				left--
				continue
			}
			m.unplaceWrite(p)
			switch {
			case errors.Is(c.Err, flash.ErrProgramFault):
				// Transient: the next round places the page again, usually
				// on another die (the round-robin cursor has advanced).
				faulted = true
				if p.faults++; p.faults <= maxProgramRetries {
					continue
				}
			case faulted && errors.Is(c.Err, flash.ErrProgramOrder):
				// Collateral of a fault earlier in this round; it does not
				// count against the page.
				continue
			}
			if err == nil {
				err = c.Err
			}
		}
	}

	// Release what an aborted placement round left reserved, then run one
	// opportunistic background GC step on each die the batch wrote, after the
	// makespan has been determined so step costs stay out of it.
	for i := range pends {
		p := &pends[i]
		if p.da == nil {
			continue
		}
		p.da.stall = 0
		if !p.done {
			m.unplaceWrite(p)
		} else if p.da.written {
			p.da.written = false
			m.backgroundGC(end, p.da)
		}
	}
	return end, err
}

// placeWrite reserves a slot for the page in the region its hint selects and
// returns the program request with the virtual time after any foreground GC
// the allocation had to wait for.  When that region has exhausted its logical
// capacity, or its dies cannot yield a slot even after GC, the write spills
// to the default region (counted), mirroring how a DBMS falls back to another
// tablespace rather than failing the transaction.
func (m *Manager) placeWrite(at sim.Time, w *PageWrite, p *hostWrite) (iosched.Request, sim.Time, error) {
	r := m.resolveRegion(w.Hint)
	prev, remap := m.lookup(w.LPN)
	for {
		// The write consumes a unit of the region's logical capacity when the
		// page is new to that region (first write, or a page whose previous
		// version lives in a different region, e.g. after an earlier spill).
		// admitted counts the batch's placed, not yet committed pages, so a
		// batch cannot overshoot the capacity.
		// Retained checkpoint versions are not part of the region's logical
		// size, but they hold physical pages a new page cannot have as well.
		p.consumes = !remap || m.dieOwner[prev.die] != r.id
		if !p.consumes || (r.validPages+r.admitted < r.capacityPages &&
			r.validPages+r.retainedPages+r.admitted < r.physPages) {
			if p.da, p.slot, at = m.allocateSlot(at, r); p.da != nil {
				break
			}
		}
		if r.id == DefaultRegionID {
			return iosched.Request{}, at, m.errRegionFull(r)
		}
		r.spills++
		r = m.regionsByID[DefaultRegionID]
	}
	p.r = r
	if p.consumes {
		r.admitted++
	}
	m.seq++
	p.seq = m.seq
	return iosched.Request{
		Op:   iosched.OpProgram,
		Addr: ppa{Die: p.da.die, Block: p.slot.block, Page: p.slot.page},
		Data: w.Data,
		Meta: flash.PageMeta{
			LPN:      uint64(w.LPN),
			ObjectID: w.Hint.ObjectID,
			RegionID: uint32(r.id),
			Seq:      p.seq,
			Flags:    w.Hint.Flags,
		},
		Priority: iosched.PrioHostWrite,
		Tag:      uint64(w.LPN),
	}, at, nil
}

// unplaceWrite releases the slot of a page whose program failed or was never
// issued; the flash page is still erased.  A block the device has marked bad
// is retired so the next placement opens a fresh one.
func (m *Manager) unplaceWrite(p *hostWrite) {
	blk := &p.da.blocks[p.slot.block]
	blk.nextPage--
	m.retireIfBad(p.da, p.slot.block)
	if blk.state == blkOpen && p.da.hostOpen != p.slot.block {
		// The batch filled this block and moved the die on to the next one:
		// no allocation will return here, so close it and let GC reclaim the
		// unprogrammed tail instead of leaking an open block.
		blk.state = blkClosed
	}
	if p.consumes {
		p.r.admitted--
	}
	p.da.stall = 0
	p.da = nil
}

// commitWrite accounts one landed program: block and mapping bookkeeping,
// supersession of the previous version (invalidated, or retained for the last
// checkpoint), valid-page accounting, counters and the host-write event.
// start is the submission time of the call, so the observed latency includes
// any synchronous GC the write had to wait for — exactly what a host sees on a
// device doing foreground garbage collection.
func (m *Manager) commitWrite(p *hostWrite, w *PageWrite, start, done sim.Time, traced bool) {
	r, da, slot, lpn := p.r, p.da, p.slot, w.LPN
	blk := &da.blocks[slot.block]
	blk.lpns[slot.page] = lpn
	blk.valid[slot.page] = true
	blk.validCount++
	blk.lastWrite = m.seq
	if blk.nextPage >= m.geo.PagesPerBlock {
		blk.state = blkClosed
		if da.hostOpen == slot.block {
			da.hostOpen = -1
		}
	}

	e := m.mapping.Slot(lpn)
	old, had := *e, e.mapped()
	*e = newMapEntry(ppa{Die: da.die, Block: slot.block, Page: slot.page}, w.Hint.Flags&flash.FlagLog != 0, p.seq)
	if had {
		m.supersede(old)
		if or := m.regionsByID[m.dieOwner[old.die]]; or != r {
			// The page migrated between regions (e.g. a spill, or a later
			// write that returned home): transfer the valid-page accounting.
			if or.validPages > 0 {
				or.validPages--
			}
			r.validPages++
		}
	} else {
		r.validPages++
	}
	if p.consumes {
		r.admitted--
	}
	r.hostWrites++
	if had {
		m.charge(w.Hint.ObjectID, opWriteOver)
	} else {
		m.charge(w.Hint.ObjectID, opWriteFirst)
	}
	r.writeLat.Observe(done.Sub(start))
	if traced {
		m.tracer.Record(obs.Event{
			Class: obs.ClassHostWrite,
			Die:   int32(da.die), Block: int32(slot.block), Page: int32(slot.page),
			Region: int32(r.id), Start: start, End: done, A: int64(lpn),
		})
	}
	da.written = true
	p.done = true
}
