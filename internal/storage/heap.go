package storage

import (
	"errors"
	"fmt"

	"noftl/internal/buffer"
	"noftl/internal/core"
	"noftl/internal/sim"
)

// Errors returned by heap files.
var (
	// ErrNotFound reports a record id that does not resolve to a live
	// record.
	ErrNotFound = errors.New("storage: record not found")
)

// HeapFile stores variable-length records of one table in slotted pages
// allocated from the table's tablespace.  Inserts fill the most recently
// allocated page and open a new page when it is full; updates are in place
// (records keep their RID); deletes tombstone the slot.  It is not safe for
// concurrent use.
type HeapFile struct {
	name     string
	objectID uint32
	ts       *Tablespace
	pool     *buffer.Pool
	pages    []core.LPN
	lastPage core.LPN
	records  int64
}

// NewHeapFile creates an empty heap file for the object in the tablespace.
func NewHeapFile(name string, objectID uint32, ts *Tablespace, pool *buffer.Pool) *HeapFile {
	return &HeapFile{name: name, objectID: objectID, ts: ts, pool: pool}
}

// AttachHeapFile returns the heap file over pages that already exist on flash:
// the page list (in allocation order, so inserts continue on the last one) and
// record count a checkpoint recorded.  Nothing is read or written.
func AttachHeapFile(name string, objectID uint32, ts *Tablespace, pool *buffer.Pool, pages []core.LPN, records int64) *HeapFile {
	h := NewHeapFile(name, objectID, ts, pool)
	h.pages, h.records = pages, records
	if len(pages) > 0 {
		h.lastPage = pages[len(pages)-1]
	}
	return h
}

// Name returns the table name the heap belongs to.
func (h *HeapFile) Name() string { return h.name }

// ObjectID returns the owning object's id.
func (h *HeapFile) ObjectID() uint32 { return h.objectID }

// PageCount returns the number of pages allocated to the heap.
func (h *HeapFile) PageCount() int64 {
	return int64(len(h.pages))
}

// RecordCount returns the number of live records.
func (h *HeapFile) RecordCount() int64 {
	return h.records
}

// Pages returns a copy of the heap's page list (for scans and tests).
func (h *HeapFile) Pages() []core.LPN {
	out := make([]core.LPN, len(h.pages))
	copy(out, h.pages)
	return out
}

func (h *HeapFile) hint() core.Hint {
	return h.ts.Hint(h.objectID, 0)
}

// Insert appends a record and returns its RID: InsertBatch of one.
func (h *HeapFile) Insert(now sim.Time, rec []byte) (RID, sim.Time, error) {
	recs, rid := [1][]byte{rec}, [1]RID{}
	rids, done, err := h.InsertBatch(now, recs[:], rid[:0])
	if len(rids) == 0 {
		return RID{}, done, err
	}
	return rids[0], done, err
}

// InsertBatch appends a batch of records, appending one RID per record in
// order to rids and returning the extended slice; it is the only code that
// places records on heap pages.  The tail page is filled first through the
// buffer pool, while its free space admits the next record (a page too full
// for it is not copied to be written); the remaining records are packed into
// fresh page images which are written to flash as one die-striped batch (a
// single scheduler submission however many pages the batch spans).  The
// final, partially filled page stays resident in the pool so subsequent
// inserts keep filling it.
//
// On error the records already applied are returned alongside it (the heap
// stays consistent; the caller decides whether to abort).  A record too
// large for an empty page fails the whole batch up front, before anything is
// applied.
func (h *HeapFile) InsertBatch(now sim.Time, recs [][]byte, rids []RID) ([]RID, sim.Time, error) {
	if len(recs) == 0 {
		return rids, now, nil
	}
	// Validate before mutating anything: every record must fit an empty page.
	pageSize := h.pool.PageSize()
	maxRec := pageSize - PageHeaderSize - slotSize
	for _, rec := range recs {
		if len(rec) > maxRec {
			return rids, now, fmt.Errorf("heap %s: insert: %w (%d bytes, max %d)",
				h.name, ErrRecordTooLarge, len(rec), maxRec)
		}
	}

	// Phase 1: fill whatever room the current tail page has, fetching it once
	// for the whole batch instead of once per record.
	next := 0
	if tail := h.lastPage; tail != 0 {
		handle, done, err := h.pool.Fetch(now, tail, h.hint())
		if err != nil {
			return rids, done, err
		}
		now = done
		for ; next < len(recs) && FreeSpace(handle.Data()) >= len(recs[next]); next++ {
			slot, err := InsertRecord(handle.Writable(), recs[next])
			if errors.Is(err, ErrPageFull) {
				break
			}
			if err != nil {
				handle.Release()
				return rids, now, err
			}
			handle.MarkDirty()
			rids = append(rids, RID{LPN: uint64(tail), Slot: slot})
			h.records++
		}
		handle.Release()
	}
	if next >= len(recs) {
		return rids, now, nil
	}

	// Phase 2: pack the remaining records into fresh page images.  Full pages
	// are collected for one write-through batch; the last (partial) page is
	// kept in the pool as the new tail.  The heap's page list and tail are
	// only updated once the pages are materialized, so a failure here cannot
	// leave the heap pointing at pages that were never written.
	var full []core.PageWrite
	var lpnBuf [4]core.LPN // a batch of one opens one page, allocating nothing
	newPages := lpnBuf[:0]
	var cur []byte
	first, sealed := len(rids), len(rids) // rids[first:sealed] are on full pages
	openPage := func() {
		newPages = append(newPages, h.ts.AllocatePage())
		cur = h.ts.mgr.PageBuf()
		InitPage(cur, PageTypeHeap, h.objectID, uint64(newPages[len(newPages)-1]))
	}
	openPage()
	defer func() { h.ts.mgr.Release(cur) }() // the tail's image, unless a frame took it
	for next < len(recs) {
		curLPN := newPages[len(newPages)-1]
		slot, err := InsertRecord(cur, recs[next])
		if err != nil {
			if !errors.Is(err, ErrPageFull) {
				return rids[:first], now, fmt.Errorf("heap %s: insert: %w", h.name, err)
			}
			// Page full: seal it into the write batch and open the next one.
			// The up-front size check guarantees progress on a fresh page.
			full = append(full, core.PageWrite{LPN: curLPN, Data: cur, Hint: h.hint()})
			sealed = len(rids)
			openPage()
			continue
		}
		rids = append(rids, RID{LPN: uint64(curLPN), Slot: slot})
		next++
	}

	// Write the sealed pages as one batch; they stripe over the region's dies.
	if len(full) > 0 {
		done, err := h.pool.WriteThrough(now, full)
		for _, w := range full {
			h.ts.mgr.Release(w.Data) // the device holds what it programmed
		}
		if err != nil {
			return rids[:first], now, err
		}
		now = done
	}

	// Park the partial tail page in the pool so future inserts fill it: its
	// frame takes the image and its hold.
	if len(rids) > sealed {
		handle, done, err := h.pool.AdoptPage(now, newPages[len(newPages)-1], h.hint(), cur)
		if err != nil {
			// The sealed pages are durable: adopt them (not the tail).
			h.adoptPages(newPages[:len(newPages)-1], int64(sealed-first))
			return rids[:sealed], done, err
		}
		now, cur = done, nil
		handle.Release()
	} else {
		newPages = newPages[:len(newPages)-1] // the empty tail was never used
	}
	h.adoptPages(newPages, int64(len(rids)-first))
	return rids, now, nil
}

// adoptPages appends materialized pages to the heap's page list, points the
// tail at the last one and accounts the packed records.
func (h *HeapFile) adoptPages(lpns []core.LPN, records int64) {
	if len(lpns) == 0 && records == 0 {
		return
	}
	h.pages = append(h.pages, lpns...)
	if len(lpns) > 0 {
		h.lastPage = lpns[len(lpns)-1]
	}
	h.records += records
}

// GetBatch returns copies of the records identified by rids, in order: the
// slice and the copies are carved from slab.  The pages involved are fetched
// through the buffer pool's batched path, so cold pages on different dies are
// read concurrently in virtual time.
func (h *HeapFile) GetBatch(now sim.Time, rids []RID, slab *Slab) ([][]byte, sim.Time, error) {
	if len(rids) == 0 {
		return [][]byte{}, now, nil
	}
	// One page per run of rids on it; a page in two runs is pinned twice.
	var lpnBuf [64]core.LPN
	lpns := lpnBuf[:0]
	for i, rid := range rids {
		if i == 0 || rid.LPN != rids[i-1].LPN {
			lpns = append(lpns, core.LPN(rid.LPN))
		}
	}
	var handleBuf [64]*buffer.Handle
	handles, done, err := h.pool.FetchMany(handleBuf[:0], now, lpns, h.hint())
	if err != nil {
		return nil, done, err
	}
	now = done
	defer func() {
		for _, hd := range handles {
			hd.Release()
		}
	}()
	out := slab.Rows(len(rids))
	i := 0
	for _, hd := range handles {
		for lpn := rids[i].LPN; i < len(rids) && rids[i].LPN == lpn; i++ {
			rec, err := recordAt(hd.Data(), rids[i].Slot)
			if err != nil {
				return nil, now, fmt.Errorf("heap %s: %w (%v)", h.name, ErrNotFound, err)
			}
			out[i] = slab.Copy(rec)
		}
	}
	return out, now, nil
}

// Get returns a copy of the record identified by rid.
func (h *HeapFile) Get(now sim.Time, rid RID) ([]byte, sim.Time, error) {
	return h.GetAppend(now, rid, nil)
}

// GetAppend appends the record identified by rid to dst and returns the
// extended slice; on error dst is returned unchanged.
func (h *HeapFile) GetAppend(now sim.Time, rid RID, dst []byte) ([]byte, sim.Time, error) {
	handle, done, err := h.pool.Fetch(now, core.LPN(rid.LPN), h.hint())
	if err != nil {
		return dst, done, err
	}
	defer handle.Release()
	out, err := AppendRecord(dst, handle.Data(), rid.Slot)
	if err != nil {
		return dst, done, fmt.Errorf("heap %s: %w (%v)", h.name, ErrNotFound, err)
	}
	return out, done, nil
}

// Update replaces the record identified by rid in place.
func (h *HeapFile) Update(now sim.Time, rid RID, rec []byte) (sim.Time, error) {
	handle, done, err := h.pool.Fetch(now, core.LPN(rid.LPN), h.hint())
	if err != nil {
		return done, err
	}
	defer handle.Release()
	if err := UpdateRecord(handle.Writable(), rid.Slot, rec); err != nil {
		return done, fmt.Errorf("heap %s: update %v: %w", h.name, rid, err)
	}
	handle.MarkDirty()
	return done, nil
}

// Delete removes the record identified by rid.
func (h *HeapFile) Delete(now sim.Time, rid RID) (sim.Time, error) {
	handle, done, err := h.pool.Fetch(now, core.LPN(rid.LPN), h.hint())
	if err != nil {
		return done, err
	}
	defer handle.Release()
	if err := DeleteRecord(handle.Writable(), rid.Slot); err != nil {
		return done, fmt.Errorf("heap %s: delete %v: %w", h.name, rid, err)
	}
	handle.MarkDirty()
	if h.records > 0 {
		h.records--
	}
	return done, nil
}

// Scan calls fn for every live record in the heap, in page order, with a copy
// of the record that fn may keep, carved from slab.  Returning false stops
// the scan.  It returns the caller's advanced virtual time.
func (h *HeapFile) Scan(now sim.Time, slab *Slab, fn func(rid RID, rec []byte) bool) (sim.Time, error) {
	for _, lpn := range h.pages {
		handle, done, err := h.pool.Fetch(now, lpn, h.hint())
		if err != nil {
			return done, err
		}
		now = done
		stop := false
		err = IterateRecords(handle.Data(), func(slot uint16, rec []byte) bool {
			stop = !fn(RID{LPN: uint64(lpn), Slot: slot}, slab.Copy(rec))
			return !stop
		})
		handle.Release()
		if err != nil {
			return now, err
		}
		if stop {
			break
		}
	}
	return now, nil
}

// Slab hands out copies of byte strings carved from shared chunks, so a scan
// or a batch read pays an allocation per chunk, not per entry.  A chunk's
// capacity doubles from slabMin bytes up to slabMax; a full chunk is replaced,
// never grown in place, and every copy is capped at its length, so each stays
// its holder's to keep (and to append to).  A copy its holder keeps keeps its
// whole chunk alive.  Batch reads take their result slices from chunks of
// rowChunk slots the same way (Rows).  The zero Slab is ready to use.
type Slab struct {
	chunk []byte
	rows  [][]byte
}

const slabMin, slabMax, rowChunk = 256, 64 << 10, 1024

// Free returns the empty end of the current chunk, with room for n bytes: a
// caller appends at most that much to it and hands the result to Take.
func (s *Slab) Free(n int) []byte {
	if cap(s.chunk)-len(s.chunk) < n {
		s.chunk = make([]byte, 0, max(n, slabMin, min(2*cap(s.chunk), slabMax)))
	}
	return s.chunk[len(s.chunk):]
}

// Take hands out b, what was appended to the slice Free returned.
func (s *Slab) Take(b []byte) []byte {
	s.chunk = s.chunk[:len(s.chunk)+len(b)]
	return b[:len(b):len(b)]
}

// Copy returns a copy of b.
func (s *Slab) Copy(b []byte) []byte { return s.Take(append(s.Free(len(b)), b...)) }

// Rows returns n empty row slots, capped at n, from a chunk of at least
// rowChunk slots that is never reused: appending to them reallocates rather
// than writing into the next caller's.  What the slots hold keeps its byte
// chunks alive as long as the slot chunk lives.
func (s *Slab) Rows(n int) [][]byte {
	if cap(s.rows)-len(s.rows) < n {
		s.rows = make([][]byte, 0, max(n, rowChunk))
	}
	i := len(s.rows)
	s.rows = s.rows[:i+n]
	return s.rows[i : i+n : i+n]
}
