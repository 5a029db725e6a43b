package noftl

import (
	"noftl/internal/storage"
	"noftl/internal/wal"
)

// InsertBatch adds a batch of rows and returns their RIDs in order.  It is
// the batch-first counterpart of Insert: the tail page is filled first, the
// remaining rows are packed into full page images, and those pages go to
// flash as one die-striped I/O-scheduler batch — a single scheduler
// submission however many pages the batch spans, instead of one submission
// per page write-back on the row-at-a-time path.
//
// Like a loop of Insert calls, a mid-batch failure leaves the rows applied
// so far in place: they are returned (with their WAL records written)
// alongside the error, and the caller decides whether to abort the
// transaction.
func (t *Table) InsertBatch(tx *Tx, rows [][]byte) ([]RID, error) {
	for range rows {
		tx.chargeOp()
	}
	if err := t.loggable(rows...); err != nil {
		return nil, err
	}
	rids, done, err := t.heap.InsertBatch(tx.Now(), rows)
	tx.inner.AdvanceTo(done)
	for i, rid := range rids {
		if lerr := tx.logRow(wal.RecInsert, t.meta.ObjectID, rid, rows[i]); lerr != nil && err == nil {
			err = lerr
		}
	}
	return rids, publicErr(err)
}

// GetBatch returns the rows stored under rids, in order.  The pages involved
// are read through the buffer pool's batched path: all cache misses of the
// batch go to the device as one die-striped submission, so rows on different
// dies are read concurrently in virtual time.  A missing record fails the
// whole call with ErrNotFound.
func (t *Table) GetBatch(tx *Tx, rids []RID) ([][]byte, error) {
	for range rids {
		tx.chargeOp()
	}
	rows, done, err := t.heap.GetBatch(tx.Now(), rids)
	if err != nil {
		return nil, publicErr(err)
	}
	tx.inner.AdvanceTo(done)
	return rows, nil
}

// LookupBatch resolves a batch of keys to RIDs in one call.  found[i]
// reports whether keys[i] was present.  Interior B+-tree pages are almost
// always buffer-resident, so the lookups share one warmed cache walk; the
// per-key results carry no per-call scheduler round-trip.
func (i *Index) LookupBatch(tx *Tx, keys [][]byte) (rids []RID, found []bool, err error) {
	rids = make([]RID, len(keys))
	found = make([]bool, len(keys))
	now := tx.Now()
	var buf [10]byte
	for k, key := range keys {
		tx.chargeOp()
		val, done, ok, gerr := i.tree.GetAppend(now, key, buf[:0])
		if gerr != nil {
			return nil, nil, publicErr(gerr)
		}
		now = done
		if !ok {
			continue
		}
		rid, derr := storage.DecodeRID(val)
		if derr != nil {
			return nil, nil, derr
		}
		rids[k] = rid
		found[k] = true
	}
	tx.inner.AdvanceTo(now)
	return rids, found, nil
}
