package noftl

import (
	"errors"

	"noftl/internal/buffer"
	"noftl/internal/wal"
)

// InsertBatch adds a batch of rows and returns their RIDs in order; Insert is
// a batch of one row.  The tail page is filled first, the remaining rows are
// packed into full page images, and those pages go to flash as one
// die-striped I/O-scheduler batch: a single scheduler submission however many
// pages the batch spans, instead of one submission per page write-back.
//
// Like a loop of Insert calls, a mid-batch failure leaves the rows applied
// so far in place: they are returned (with their WAL records written)
// alongside the error, and the caller decides whether to abort the
// transaction.
func (t *Table) InsertBatch(tx *Tx, rows [][]byte) ([]RID, error) {
	return t.insert(tx, rows, make([]RID, 0, len(rows)))
}

// insert is InsertBatch appending the RIDs to rids, which is empty: Insert
// hands it an array of its own, so a row insert allocates nothing here.
func (t *Table) insert(tx *Tx, rows [][]byte, rids []RID) ([]RID, error) {
	tx.enter()
	defer tx.exit()
	if err := tx.writable(t.scans, t.meta.Name); err != nil {
		return nil, err
	}
	tx.chargeOps(len(rows))
	if err := t.loggable(rows...); err != nil {
		return nil, err
	}
	rids, done, err := t.heap.InsertBatch(tx.Now(), rows, rids)
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
// dies are read concurrently in virtual time.  The rows are the caller's to
// keep, copied into the database's slab (see Table.Rows), and so is the
// slice: it is cut from a chunk of row slots that later batches share,
// capped at its length, so appending to it never writes into another
// batch's.  A missing
// record fails the whole call with ErrNotFound, a batch whose pages cannot all
// be pinned in the buffer pool at once with ErrTooLarge.
func (t *Table) GetBatch(tx *Tx, rids []RID) ([][]byte, error) {
	tx.enter()
	defer tx.exit()
	tx.chargeOps(len(rids))
	rows, done, err := t.heap.GetBatch(tx.Now(), rids, &t.db.slab)
	if errors.Is(err, buffer.ErrPoolFull) { // more pages than the pool can pin
		err = tag(ErrTooLarge, err)
	}
	if err != nil {
		return nil, publicErr(err)
	}
	tx.inner.AdvanceTo(done)
	return rows, nil
}
