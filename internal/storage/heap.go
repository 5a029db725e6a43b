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

// Insert appends a record and returns its RID.
func (h *HeapFile) Insert(now sim.Time, rec []byte) (RID, sim.Time, error) {
	if lpn := h.lastPage; lpn != 0 {
		rid, done, ok, err := h.tryInsertInto(now, lpn, rec)
		if err != nil {
			return RID{}, done, err
		}
		if ok {
			return rid, done, nil
		}
		now = done
	}
	// Open a fresh page.  It joins h.pages only once its frame exists in the
	// pool.
	newLPN := h.ts.AllocatePage()
	handle, done, err := h.pool.NewPage(now, newLPN, h.hint())
	if err != nil {
		return RID{}, done, err
	}
	defer handle.Release()
	InitPage(handle.Data(), PageTypeHeap, h.objectID, uint64(newLPN))
	slot, err := InsertRecord(handle.Data(), rec)
	if err != nil {
		return RID{}, done, fmt.Errorf("heap %s: insert into fresh page: %w", h.name, err)
	}
	handle.MarkDirty()
	h.pages = append(h.pages, newLPN)
	h.lastPage = newLPN
	h.records++
	return RID{LPN: uint64(newLPN), Slot: slot}, done, nil
}

// InsertBatch appends a batch of records, returning one RID per record in
// order.  The tail page is filled first through the buffer pool; the
// remaining records are packed into fresh page images which are written to
// flash as one die-striped batch (a single scheduler submission however many
// pages the batch spans).  The final, partially filled page stays resident in
// the pool so subsequent inserts keep filling it.
//
// On error the records already applied are returned alongside it (the heap
// stays consistent; the caller decides whether to abort).  A record too
// large for an empty page fails the whole batch up front, before anything is
// applied.
func (h *HeapFile) InsertBatch(now sim.Time, recs [][]byte) ([]RID, sim.Time, error) {
	rids := make([]RID, 0, len(recs))
	if len(recs) == 0 {
		return rids, now, nil
	}
	// Validate before mutating anything: every record must fit an empty page.
	pageSize := h.pool.PageSize()
	maxRec := pageSize - PageHeaderSize - slotSize
	for _, rec := range recs {
		if len(rec) > maxRec {
			return nil, now, fmt.Errorf("heap %s: batch insert: %w (%d bytes, max %d)",
				h.name, ErrRecordTooLarge, len(rec), maxRec)
		}
	}

	// Phase 1: fill whatever room the current tail page has, fetching it once
	// for the whole batch instead of once per record.
	tail := h.lastPage
	next := 0
	if tail != 0 {
		handle, done, err := h.pool.Fetch(now, tail, h.hint())
		if err != nil {
			return nil, done, err
		}
		now = done
		inserted := 0
		for next < len(recs) {
			slot, err := InsertRecord(handle.Data(), recs[next])
			if err != nil {
				if errors.Is(err, ErrPageFull) || errors.Is(err, ErrRecordTooLarge) {
					break
				}
				handle.Release()
				return rids, now, err
			}
			rids = append(rids, RID{LPN: uint64(tail), Slot: slot})
			next++
			inserted++
		}
		if inserted > 0 {
			handle.MarkDirty()
		}
		handle.Release()
		h.records += int64(inserted)
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
	var newPages []core.LPN
	var cur []byte
	first, sealed := len(rids), len(rids) // rids[first:sealed] are on full pages
	openPage := func() {
		newPages = append(newPages, h.ts.AllocatePage())
		cur = make([]byte, pageSize)
		InitPage(cur, PageTypeHeap, h.objectID, uint64(newPages[len(newPages)-1]))
	}
	openPage()
	for next < len(recs) {
		curLPN := newPages[len(newPages)-1]
		slot, err := InsertRecord(cur, recs[next])
		if err != nil {
			if !errors.Is(err, ErrPageFull) {
				return rids[:first], now, fmt.Errorf("heap %s: batch insert: %w", h.name, err)
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
		if err != nil {
			return rids[:first], now, err
		}
		now = done
	}

	// Park the partial tail page in the pool so future inserts fill it.
	if len(rids) > sealed {
		handle, done, err := h.pool.NewPage(now, newPages[len(newPages)-1], h.hint())
		if err != nil {
			// The sealed pages are durable: adopt them (not the tail).
			h.adoptPages(newPages[:len(newPages)-1], int64(sealed-first))
			return rids[:sealed], done, err
		}
		now = done
		copy(handle.Data(), cur)
		handle.MarkDirty()
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

// GetBatch returns copies of the records identified by rids, in order, carved
// from slab in at most one new chunk (unless a record grows while it runs).
// The pages involved are fetched through
// the buffer pool's batched path, so cold pages on different dies are read
// concurrently in virtual time.
func (h *HeapFile) GetBatch(now sim.Time, rids []RID, slab *Slab) ([][]byte, sim.Time, error) {
	out := make([][]byte, len(rids))
	if len(rids) == 0 {
		return out, now, nil
	}
	// One page per run of rids on it; a page in two runs is pinned twice.
	var lpnBuf [64]core.LPN
	lpns := lpnBuf[:0]
	for i, rid := range rids {
		if i == 0 || rid.LPN != rids[i-1].LPN {
			lpns = append(lpns, core.LPN(rid.LPN))
		}
	}
	handles, done, err := h.pool.FetchMany(now, lpns, h.hint())
	if err != nil {
		return nil, done, err
	}
	now = done
	defer func() {
		for _, hd := range handles {
			hd.Release()
		}
	}()
	// Two passes: size the rows, so that they cost at most one chunk, then
	// copy them.
	size := 0
	for pass := 0; pass < 2; pass++ {
		slab.Reserve(size)
		i := 0
		for _, hd := range handles {
			for lpn := rids[i].LPN; i < len(rids) && rids[i].LPN == lpn; i++ {
				rec, err := recordAt(hd.Data(), rids[i].Slot)
				if err != nil {
					return nil, now, fmt.Errorf("heap %s: %w (%v)", h.name, ErrNotFound, err)
				}
				if pass == 0 {
					size += len(rec)
				} else {
					out[i] = slab.Copy(rec)
				}
			}
		}
	}
	return out, now, nil
}

// tryInsertInto attempts an insert into a specific page; ok is false when the
// page has no room.
func (h *HeapFile) tryInsertInto(now sim.Time, lpn core.LPN, rec []byte) (RID, sim.Time, bool, error) {
	handle, done, err := h.pool.Fetch(now, lpn, h.hint())
	if err != nil {
		return RID{}, done, false, err
	}
	defer handle.Release()
	if FreeSpace(handle.Data()) < len(rec) {
		return RID{}, done, false, nil
	}
	slot, err := InsertRecord(handle.Data(), rec)
	if err != nil {
		if errors.Is(err, ErrPageFull) {
			return RID{}, done, false, nil
		}
		return RID{}, done, false, err
	}
	handle.MarkDirty()
	h.records++
	return RID{LPN: uint64(lpn), Slot: slot}, done, true, nil
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
	if err := UpdateRecord(handle.Data(), rid.Slot, rec); err != nil {
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
	if err := DeleteRecord(handle.Data(), rid.Slot); err != nil {
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
			if !fn(RID{LPN: uint64(lpn), Slot: slot}, slab.Copy(rec)) {
				stop = true
				return false
			}
			return true
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
// whole chunk alive.  The zero Slab is ready to use.
type Slab struct{ chunk []byte }

const slabMin, slabMax = 256, 64 << 10

// Reserve makes room for n more bytes of copies in the current chunk.
func (s *Slab) Reserve(n int) {
	if cap(s.chunk)-len(s.chunk) < n {
		s.chunk = make([]byte, 0, max(n, slabMin, min(2*cap(s.chunk), slabMax)))
	}
}

// Copy returns a copy of b.
func (s *Slab) Copy(b []byte) []byte {
	s.Reserve(len(b))
	n := len(s.chunk)
	s.chunk = append(s.chunk, b...)
	return s.chunk[n:len(s.chunk):len(s.chunk)]
}
