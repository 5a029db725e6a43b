package noftl

import (
	"encoding/binary"
	"fmt"
	"time"

	"noftl/internal/btree"
	"noftl/internal/catalog"
	"noftl/internal/core"
	"noftl/internal/sim"
	"noftl/internal/storage"
	"noftl/internal/txn"
	"noftl/internal/wal"
)

// RID re-exports the storage record identifier.
type RID = storage.RID

// Time is a point in simulated time (nanoseconds since the start of the
// simulation).
type Time = sim.Time

// Duration is a span of simulated time; it converts one-to-one with
// time.Duration.
type Duration = sim.Duration

// LockMode re-exports the lock modes for Tx.Lock.
type LockMode = txn.LockMode

// Lock modes.
const (
	Shared    = txn.Shared
	Exclusive = txn.Exclusive
)

// Tx is a transaction handle.  It is owned by a single goroutine.
type Tx struct {
	db      *DB
	inner   txn.Txn
	iterErr error // first error hit inside a Rows/Range iteration
	open    bool  // counted in db.open
	depth   int32 // its operations in progress: > 1 inside a scan's body
}

// enter starts an operation of the transaction: it takes the database's
// baton, unless the transaction holds it already because the operation is
// called from the body of one of its scans.
func (tx *Tx) enter() {
	if tx.depth == 0 {
		tx.db.baton.Lock()
	}
	tx.depth++
}

// exit ends the operation enter started.
func (tx *Tx) exit() {
	if tx.depth--; tx.depth == 0 {
		tx.db.baton.Unlock()
	}
}

// release stops counting the transaction as open, once it has left Active:
// a commit the log refused leaves it open, with its locks and its updates,
// until the caller aborts.
func (tx *Tx) release() {
	if tx.open && tx.inner.State() != txn.Active {
		tx.open = false
		if tx.db.open--; tx.db.open == 0 {
			tx.db.quiesce.Broadcast() // the checkpoints waiting for it
		}
	}
}

// writable refuses a write on a committed or aborted transaction before it
// touches a page, since its change could not be logged, and a write to an
// object a scan is reading: while a scan runs, only its body can write, and
// the scan's pages would change under it.
func (tx *Tx) writable(scans int, name string) error {
	if tx.inner.State() != txn.Active {
		return publicErr(txn.ErrTxnDone)
	}
	if scans > 0 {
		return tag(ErrConflict, fmt.Errorf("noftl: %s is being scanned", name))
	}
	return nil
}

// Err returns the first error encountered inside an iterator (Table.Rows,
// Index.Range) driven by this transaction, or nil.  Go's range-over-func
// iterators cannot yield an error, so scans record it here; db.Update
// refuses to commit while it is set.
func (tx *Tx) Err() error { return tx.iterErr }

// ID returns the transaction id.
func (tx *Tx) ID() uint64 { return tx.inner.ID() }

// Now returns the transaction's current virtual time.
func (tx *Tx) Now() sim.Time { return tx.inner.Now() }

// ResponseTime returns the virtual time elapsed since Begin.
func (tx *Tx) ResponseTime() sim.Duration { return tx.inner.ResponseTime() }

// Lock acquires a logical lock (e.g. "DISTRICT:1:3") in the given mode,
// parked until it is granted.  A wait that would close a deadlock fails at
// once, and one that outlives its virtual-time budget fails when it does;
// both are reported as ErrConflict, and so, at once, is a lock that would
// have to wait when it is taken from the body of one of the transaction's
// scans.
func (tx *Tx) Lock(key string, mode LockMode) error {
	tx.enter()
	defer tx.exit()
	if tx.depth > 1 { // called from a scan's body
		return publicErr(tx.inner.TryLock(key, mode))
	}
	return publicErr(tx.inner.Lock(key, mode))
}

// Charge adds CPU time to the transaction.
func (tx *Tx) Charge(d sim.Duration) { tx.inner.Charge(d) }

// Commit commits the transaction, forcing the WAL, and returns its final
// virtual time.  When the log refuses the commit, the transaction stays open
// until Abort.
func (tx *Tx) Commit() (sim.Time, error) {
	tx.enter()
	defer tx.exit()
	done, err := tx.inner.Commit()
	tx.release()
	// A checkpoint triggered from a scan's body would meet the scan's pins.
	if err == nil && tx.depth == 1 {
		tx.db.maybeCheckpoint(done)
	}
	return done, publicErr(err)
}

// Abort aborts the transaction.
func (tx *Tx) Abort() sim.Time {
	tx.enter()
	defer tx.exit()
	done := tx.inner.Abort()
	tx.release()
	return done
}

// cpuPerOp is the CPU time charged to a transaction for each row or index
// operation, so response times are not purely I/O.  A batch charges its n
// rows in one call.
const cpuPerOp = 5 * time.Microsecond

func (tx *Tx) chargeOps(n int) { tx.inner.Charge(time.Duration(n) * cpuPerOp) }

// logRow logs the RecInsert or RecUpdate of row at rid: the payload
// wal.EncodeRowPayload describes, handed to the log in pieces.
func (tx *Tx) logRow(typ wal.RecordType, objectID uint32, rid RID, row []byte) error {
	var r [10]byte
	return tx.inner.Log(typ, objectID, rid.Append(r[:0]), row)
}

// Table is a handle to a heap table.
type Table struct {
	db    *DB
	heap  *storage.HeapFile
	meta  catalog.Table
	scans int // Rows scans in progress
}

// Name returns the table name.
func (t *Table) Name() string { return t.meta.Name }

// ObjectID returns the table's catalog object id.
func (t *Table) ObjectID() uint32 { return t.meta.ObjectID }

// RowCount returns the number of live rows.
func (t *Table) RowCount() int64 {
	t.db.baton.Lock()
	defer t.db.baton.Unlock()
	return t.heap.RecordCount()
}

// PageCount returns the number of heap pages.
func (t *Table) PageCount() int64 {
	t.db.baton.Lock()
	defer t.db.baton.Unlock()
	return t.heap.PageCount()
}

// loggable rejects, before anything is applied, rows whose log record would
// not fit one log page: that is the row-size limit (43 bytes below a heap
// page's), since such a row is neither durable nor checkpointable.
func (t *Table) loggable(rows ...[]byte) error {
	max := wal.MaxRow(t.db.dev.Geometry().PageSize)
	for _, row := range rows {
		if len(row) > max {
			return tag(ErrTooLarge, fmt.Errorf("table %s: %d-byte row exceeds the %d bytes a log record carries", t.meta.Name, len(row), max))
		}
	}
	return nil
}

// Insert adds a row and returns its RID: InsertBatch of one row.
func (t *Table) Insert(tx *Tx, row []byte) (RID, error) {
	rows, rid := [1][]byte{row}, [1]RID{}
	rids, err := t.insert(tx, rows[:], rid[:0])
	if len(rids) == 0 {
		return RID{}, err
	}
	return rids[0], err
}

// Get returns the row stored under rid, copied into the database's slab (see
// Rows).  An unknown or deleted record is reported as ErrNotFound.
func (t *Table) Get(tx *Tx, rid RID) ([]byte, error) {
	tx.enter() // the slab is the database's
	defer tx.exit()
	row, err := t.GetAppend(tx, rid, t.db.slab.Free(t.db.pool.PageSize()))
	return t.db.slab.Take(row), err // on error row is empty
}

// GetAppend is Get into a buffer the caller owns: it appends the row stored
// under rid to dst and returns the extended slice, so a caller that passes the
// same buffer back (dst[:0]) reads every row without allocating.  The engine
// keeps no reference to dst.  On error dst is returned unchanged.
func (t *Table) GetAppend(tx *Tx, rid RID, dst []byte) ([]byte, error) {
	tx.enter()
	defer tx.exit()
	tx.chargeOps(1)
	row, done, err := t.heap.GetAppend(tx.Now(), rid, dst)
	if err != nil {
		return dst, publicErr(err)
	}
	tx.inner.AdvanceTo(done)
	return row, nil
}

// Update replaces the row stored under rid.
func (t *Table) Update(tx *Tx, rid RID, row []byte) error {
	tx.enter()
	defer tx.exit()
	if err := tx.writable(t.scans, t.meta.Name); err != nil {
		return err
	}
	tx.chargeOps(1)
	if err := t.loggable(row); err != nil {
		return err
	}
	done, err := t.heap.Update(tx.Now(), rid, row)
	if err != nil {
		return publicErr(err)
	}
	tx.inner.AdvanceTo(done)
	return tx.logRow(wal.RecUpdate, t.meta.ObjectID, rid, row)
}

// Delete removes the row stored under rid.
func (t *Table) Delete(tx *Tx, rid RID) error {
	tx.enter()
	defer tx.exit()
	if err := tx.writable(t.scans, t.meta.Name); err != nil {
		return err
	}
	tx.chargeOps(1)
	done, err := t.heap.Delete(tx.Now(), rid)
	if err != nil {
		return publicErr(err)
	}
	tx.inner.AdvanceTo(done)
	var r [10]byte
	return tx.inner.Log(wal.RecDelete, t.meta.ObjectID, rid.Append(r[:0]))
}

// Index is a handle to a B+-tree index.
type Index struct {
	db    *DB
	tree  *btree.Tree
	meta  catalog.Index
	scans int // Range and Prefix scans in progress
}

// Name returns the index name.
func (i *Index) Name() string { return i.meta.Name }

// Table returns the indexed table's name.
func (i *Index) Table() string { return i.meta.Table }

// Unique reports whether the index was declared unique.
func (i *Index) Unique() bool { return i.meta.Unique }

// Entries returns the number of index entries.
func (i *Index) Entries() int64 {
	i.db.baton.Lock()
	defer i.db.baton.Unlock()
	return i.tree.Entries()
}

// Insert adds (or replaces) the entry key -> rid.
func (i *Index) Insert(tx *Tx, key []byte, rid RID) error {
	tx.enter()
	defer tx.exit()
	if err := tx.writable(i.scans, i.meta.Name); err != nil {
		return err
	}
	tx.chargeOps(1)
	value := rid.Append(make([]byte, 0, 10))
	done, err := i.tree.Insert(tx.Now(), key, value)
	if err != nil {
		return publicErr(err)
	}
	tx.inner.AdvanceTo(done)
	// The payload wal.EncodeIndexInsert describes: key length, key, RID.
	n := binary.LittleEndian.AppendUint16(make([]byte, 0, 2), uint16(len(key)))
	return tx.inner.Log(wal.RecIndexInsert, i.meta.ObjectID, n, key, value)
}

// Lookup returns the RID stored under key.
func (i *Index) Lookup(tx *Tx, key []byte) (RID, bool, error) {
	tx.enter()
	defer tx.exit()
	tx.chargeOps(1)
	var buf [10]byte // the encoded RID
	val, done, found, err := i.tree.GetAppend(tx.Now(), key, buf[:0])
	if err != nil {
		return RID{}, false, publicErr(err)
	}
	tx.inner.AdvanceTo(done)
	if !found {
		return RID{}, false, nil
	}
	rid, err := storage.DecodeRID(val)
	if err != nil {
		return RID{}, false, publicErr(err)
	}
	return rid, true, nil
}

// Delete removes the entry stored under key.
func (i *Index) Delete(tx *Tx, key []byte) error {
	tx.enter()
	defer tx.exit()
	if err := tx.writable(i.scans, i.meta.Name); err != nil {
		return err
	}
	tx.chargeOps(1)
	done, err := i.tree.Delete(tx.Now(), key)
	if err != nil {
		return publicErr(err)
	}
	tx.inner.AdvanceTo(done)
	return tx.inner.Log(wal.RecIndexDelete, i.meta.ObjectID, key)
}

// Key builds an order-preserving composite key of uint32 components (a
// re-export of the btree helper for callers of the public API).
func Key(parts ...uint32) []byte { return btree.Key(parts...) }

// AppendKey appends the key Key(parts...) builds to dst, for a caller that
// reuses one key buffer.
func AppendKey(dst []byte, parts ...uint32) []byte { return btree.AppendKey(dst, parts...) }

// RegionSpec, Hint and the statistics snapshots re-export the core types used
// through the public API.
type (
	// LPN is a logical page number in the NoFTL space manager's address
	// space (exposed for callers that drive the space manager directly).
	LPN = core.LPN
	// Hint is the placement hint attached to a page write.
	Hint = core.Hint
	// RegionSpec describes a region to create programmatically.
	RegionSpec = core.RegionSpec
	// SpaceStats is the space manager statistics snapshot.
	SpaceStats = core.Stats
	// RegionStats is the per-region statistics snapshot.
	RegionStats = core.RegionStats
)
