package noftl

import (
	"iter"

	"noftl/internal/sim"
	"noftl/internal/storage"
)

// Rows returns an iterator over every live row of the table, in page order:
//
//	for rid, row := range tbl.Rows(tx) {
//	    ...
//	}
//
// Every row is the caller's to keep, copied into the transaction's slab (see
// Range).  Breaking out of the loop stops the scan.  A scan failure ends the
// iteration early and is recorded on the transaction (Tx.Err); db.Update
// refuses to commit while such an error is pending.
func (t *Table) Rows(tx *Tx) iter.Seq2[RID, []byte] {
	return func(yield func(RID, []byte) bool) {
		tx.chargeOps(1)
		tx.endScan(t.heap.Scan(tx.Now(), &tx.slab, yield))
	}
}

// Range returns an iterator over the index entries with lo <= key < hi (nil
// hi means to the end of the index):
//
//	for key, rid := range idx.Range(tx, lo, hi) {
//	    ...
//	}
//
// Every key is the caller's to keep: the keys and rows of all the
// transaction's reads (Range, Prefix, Rows, GetBatch) are copied into chunks
// it holds, whose size doubles as they fill and which are never rewritten, so
// a transaction allocates per chunk, not per key or per scan, and a key is
// capped at its length (appending to it never writes into the next).  A key
// that is kept keeps its chunk alive.  Breaking out of the loop stops the
// scan.  A scan failure ends the iteration early and is recorded on the
// transaction (Tx.Err).
func (i *Index) Range(tx *Tx, lo, hi []byte) iter.Seq2[[]byte, RID] {
	return func(yield func([]byte, RID) bool) {
		tx.chargeOps(1)
		tx.endScan(i.tree.Scan(tx.Now(), lo, hi, func(k, v []byte) bool { return tx.ridEntry(k, v, yield) }))
	}
}

// Prefix returns an iterator over every index entry whose key begins with
// prefix; it behaves like Range otherwise.
func (i *Index) Prefix(tx *Tx, prefix []byte) iter.Seq2[[]byte, RID] {
	return func(yield func([]byte, RID) bool) {
		tx.chargeOps(1)
		tx.endScan(i.tree.ScanPrefix(tx.Now(), prefix, func(k, v []byte) bool { return tx.ridEntry(k, v, yield) }))
	}
}

// ridEntry hands one entry of the tree's raw (key, value) callback, whose
// slices alias the tree's page, to an iterator body: the RID is decoded in
// place and the body gets a copy of the key, carved from the transaction's
// slab.  A value that does not decode as a RID ends the scan and is recorded
// on the transaction.
func (tx *Tx) ridEntry(k, v []byte, yield func([]byte, RID) bool) bool {
	rid, err := storage.DecodeRID(v)
	if err != nil {
		tx.endScan(0, err)
		return false
	}
	return yield(tx.slab.Copy(k), rid)
}

// endScan advances the transaction to the completion time of a finished
// scan, or records the scan's failure for Tx.Err (the first error wins).
func (tx *Tx) endScan(done sim.Time, err error) {
	if err != nil {
		if tx.iterErr == nil {
			tx.iterErr = err
		}
		return
	}
	tx.inner.AdvanceTo(done)
}
