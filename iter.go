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
// Breaking out of the loop stops the scan.  A scan failure ends the
// iteration early and is recorded on the transaction (Tx.Err); db.Update
// refuses to commit while such an error is pending.
func (t *Table) Rows(tx *Tx) iter.Seq2[RID, []byte] {
	return func(yield func(RID, []byte) bool) {
		tx.chargeOp()
		tx.endScan(t.heap.Scan(tx.Now(), yield))
	}
}

// Range returns an iterator over the index entries with lo <= key < hi (nil
// hi means to the end of the index):
//
//	for key, rid := range idx.Range(tx, lo, hi) {
//	    ...
//	}
//
// Breaking out of the loop stops the scan.  A scan failure ends the
// iteration early and is recorded on the transaction (Tx.Err).
func (i *Index) Range(tx *Tx, lo, hi []byte) iter.Seq2[[]byte, RID] {
	return func(yield func([]byte, RID) bool) {
		tx.chargeOp()
		tx.endScan(i.tree.Scan(tx.Now(), lo, hi, tx.ridEntries(yield)))
	}
}

// Prefix returns an iterator over every index entry whose key begins with
// prefix; it behaves like Range otherwise.
func (i *Index) Prefix(tx *Tx, prefix []byte) iter.Seq2[[]byte, RID] {
	return func(yield func([]byte, RID) bool) {
		tx.chargeOp()
		tx.endScan(i.tree.ScanPrefix(tx.Now(), prefix, tx.ridEntries(yield)))
	}
}

// ridEntries adapts an iterator body to the tree's raw (key, value)
// callback, whose slices alias the tree's page: the RID is decoded in place
// and the body gets a key of its own.  A value that does not decode as a RID
// ends the scan and is recorded on the transaction.
func (tx *Tx) ridEntries(yield func([]byte, RID) bool) func(k, v []byte) bool {
	return func(k, v []byte) bool {
		rid, err := storage.DecodeRID(v)
		if err != nil {
			tx.endScan(0, err)
			return false
		}
		return yield(append([]byte(nil), k...), rid)
	}
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
