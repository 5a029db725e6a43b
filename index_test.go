package noftl

import (
	"bytes"
	"errors"
	"fmt"
	"iter"
	"slices"
	"testing"

	"noftl/internal/sim"
	"noftl/internal/storage"
	"noftl/internal/wal"
)

// TestIndexMatchesSortedMap drives an index through a seeded stream of
// inserts, upserts (of a different RID) and deletes, with keys of 5 to 204
// bytes so that leaves and internal nodes split and the tree grows to height
// 3 or more.  After every step the touched key's Lookup and a full Range match
// a sorted-map model.  The keys a Range yields are kept past the loop, and
// past every later split, and must still equal the model of their step: that
// guards the split's page snapshot and the scan's aliasing of leaf pages.
func TestIndexMatchesSortedMap(t *testing.T) {
	db, err := OpenConfig(smallConfig())
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()
	if _, err := db.CreateTable("T", "", nil); err != nil {
		t.Fatal(err)
	}
	idx, err := db.CreateIndex("T_K", "T", []string{"k"}, true, "")
	if err != nil {
		t.Fatal(err)
	}
	keyOf := func(id int) []byte {
		return append(Key(uint32(id)), bytes.Repeat([]byte{byte(id)}, 1+id%200)...)
	}
	model := map[string]RID{}
	var sorted []string // the model's keys in order
	type entry struct {
		key []byte
		rid RID
	}
	scan := func(tx *Tx) []entry {
		var got []entry
		for k, rid := range idx.Range(tx, nil, nil) {
			got = append(got, entry{k, rid})
		}
		if err := tx.Err(); err != nil {
			t.Fatal(err)
		}
		return got
	}
	same := func(got []entry, keys []string, rids map[string]RID) error {
		if len(got) != len(keys) {
			return fmt.Errorf("%d entries, model has %d", len(got), len(keys))
		}
		for i, e := range got {
			if string(e.key) != keys[i] || e.rid != rids[keys[i]] {
				return fmt.Errorf("entry %d is %x -> %v, model has %x -> %v", i, e.key, e.rid, keys[i], rids[keys[i]])
			}
		}
		return nil
	}
	const ids, steps = 1500, 2500
	var (
		kept      []entry // a Range's result, kept to the end
		keptKeys  []string
		keptModel = map[string]RID{}
		r         = sim.NewRand(27)
		tx        = db.Begin()
		maxHeight int
		deletes   int
	)
	for step := 0; step < steps; step++ {
		id := r.Intn(ids)
		key := keyOf(id)
		_, present := model[string(key)]
		if present && r.Intn(3) == 0 {
			if err := idx.Delete(tx, key); err != nil {
				t.Fatalf("step %d: delete: %v", step, err)
			}
			delete(model, string(key))
			i, _ := slices.BinarySearch(sorted, string(key))
			sorted = slices.Delete(sorted, i, i+1)
			deletes++
		} else {
			rid := RID{LPN: uint64(step), Slot: uint16(id)}
			if err := idx.Insert(tx, key, rid); err != nil {
				t.Fatalf("step %d: insert: %v", step, err)
			}
			if !present {
				i, _ := slices.BinarySearch(sorted, string(key))
				sorted = slices.Insert(sorted, i, string(key))
			}
			model[string(key)] = rid
		}
		rid, found, err := idx.Lookup(tx, key)
		if want, ok := model[string(key)]; err != nil || found != ok || rid != want {
			t.Fatalf("step %d: Lookup(%d) = %v %v %v, model has %v %v", step, id, rid, found, err, want, ok)
		}
		got := scan(tx)
		if err := same(got, sorted, model); err != nil {
			t.Fatalf("step %d: Range: %v", step, err)
		}
		if step == steps/2 {
			kept, keptKeys = got, slices.Clone(sorted)
			for k, v := range model {
				keptModel[k] = v
			}
		}
		maxHeight = max(maxHeight, idx.tree.Height())
		if step%100 == 99 {
			if _, err := tx.Commit(); err != nil {
				t.Fatal(err)
			}
			tx = db.Begin()
		}
	}
	if _, err := tx.Commit(); err != nil {
		t.Fatal(err)
	}
	if maxHeight < 3 || deletes == 0 || idx.Entries() != int64(len(model)) {
		t.Fatalf("height %d, %d deletes, %d entries for %d in the model: the stream did not cover what it is for",
			maxHeight, deletes, idx.Entries(), len(model))
	}
	if err := same(kept, keptKeys, keptModel); err != nil {
		t.Fatalf("a Range's keys changed after the scan ended: %v", err)
	}
}

// TestLoggedDMLIsTheEncodings checks that what Insert, InsertBatch, Update,
// Delete and Index.Insert hand the log in pieces is byte for byte the payload
// the wal encoders pack, and decodes back, after a longer record.
func TestLoggedDMLIsTheEncodings(t *testing.T) {
	db, err := OpenConfig(smallConfig())
	if err != nil {
		t.Fatal(err)
	}
	tbl, err := db.CreateTable("T", "", nil)
	if err != nil {
		t.Fatal(err)
	}
	idx, err := db.CreateIndex("T_PK", "T", []string{"k"}, true, "")
	if err != nil {
		t.Fatal(err)
	}
	type logged struct {
		typ     wal.RecordType
		object  uint32
		payload []byte
		rid     RID    // what the payload decodes to: the RID
		body    []byte // and the row image or index key
	}
	var want []logged
	long, short := bytes.Repeat([]byte("L"), 300), []byte("s")
	err = db.Update(func(tx *Tx) error {
		r1, err := tbl.Insert(tx, long)
		if err != nil {
			return err
		}
		r2, err := tbl.Insert(tx, short)
		if err != nil {
			return err
		}
		batch, err := tbl.InsertBatch(tx, [][]byte{long, short})
		if err != nil {
			return err
		}
		if err := tbl.Update(tx, r1, short); err != nil {
			return err
		}
		if err := idx.Insert(tx, long[:100], r1); err != nil {
			return err
		}
		if err := idx.Insert(tx, []byte("k"), r2); err != nil {
			return err
		}
		if err := tbl.Delete(tx, r2); err != nil {
			return err
		}
		rowDML := func(typ wal.RecordType, rid RID, row []byte) logged {
			return logged{typ, tbl.ObjectID(), wal.EncodeRowPayload(rid, row), rid, row}
		}
		idxInsert := func(key []byte, rid RID) logged {
			return logged{wal.RecIndexInsert, idx.meta.ObjectID, wal.EncodeIndexInsert(key, rid), rid, key}
		}
		want = []logged{
			rowDML(wal.RecInsert, r1, long),
			rowDML(wal.RecInsert, r2, short),
			rowDML(wal.RecInsert, batch[0], long),
			rowDML(wal.RecInsert, batch[1], short),
			rowDML(wal.RecUpdate, r1, short),
			idxInsert(long[:100], r1),
			idxInsert([]byte("k"), r2),
			{wal.RecDelete, tbl.ObjectID(), r2.Encode(), r2, nil},
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	var got []logged
	for _, rec := range durableLog(t, db.Crash()) {
		switch rec.Type {
		case wal.RecInsert, wal.RecUpdate, wal.RecDelete, wal.RecIndexInsert:
			got = append(got, logged{typ: rec.Type, object: rec.ObjectID, payload: rec.Payload})
		}
	}
	if len(got) != len(want) {
		t.Fatalf("%d DML records logged, want %d", len(got), len(want))
	}
	for i, g := range got {
		w := want[i]
		if g.typ != w.typ || g.object != w.object || !bytes.Equal(g.payload, w.payload) {
			t.Fatalf("record %d: %v of object %d, payload %q; want %v of %d, %q", i, g.typ, g.object, g.payload, w.typ, w.object, w.payload)
		}
		var (
			rid  RID
			body []byte
			err  error
		)
		switch g.typ {
		case wal.RecIndexInsert:
			body, rid, err = wal.DecodeIndexInsert(g.payload)
		case wal.RecDelete:
			rid, err = storage.DecodeRID(g.payload)
		default:
			rid, body, err = wal.DecodeRowPayload(g.payload)
		}
		if err != nil || rid != w.rid || !bytes.Equal(body, w.body) {
			t.Fatalf("record %d (%v) decodes to %v %q (%v), want %v %q", i, g.typ, rid, body, err, w.rid, w.body)
		}
	}
}

// TestIndexLookupAllocatesNothing gates the point lookup on a resident index:
// the tree descent decodes the RID out of the leaf without a copy.
func TestIndexLookupAllocatesNothing(t *testing.T) {
	cfg := smallConfig()
	cfg.BufferPoolPages = 256
	db, err := OpenConfig(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()
	tbl, err := db.CreateTable("T", "", nil)
	if err != nil {
		t.Fatal(err)
	}
	idx, err := db.CreateIndex("T_PK", "T", []string{"k"}, true, "")
	if err != nil {
		t.Fatal(err)
	}
	keyedRows(t, db, tbl, idx, 0, 1000)
	if h := idx.tree.Height(); h < 2 {
		t.Fatalf("index height %d: the lookup would not descend", h)
	}
	key := []byte("k0000777")
	tx := db.Begin()
	defer tx.Abort()
	if n := testing.AllocsPerRun(100, func() {
		if _, found, err := idx.Lookup(tx, key); err != nil || !found {
			t.Fatalf("lookup: found=%v err=%v", found, err)
		}
	}); n != 0 {
		t.Errorf("Index.Lookup on a resident index allocates %v times, want 0", n)
	}
}

// TestIndexRangeKeysFromOneSlab: a Range over 100 resident entries copies its
// keys into a few shared chunks, not one allocation per key, and every key it
// yields is still the caller's after the loop: each reads back its own bytes,
// and appending to one does not write into the next.
func TestIndexRangeKeysFromOneSlab(t *testing.T) {
	cfg := smallConfig()
	cfg.BufferPoolPages = 256
	db, err := OpenConfig(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()
	tbl, err := db.CreateTable("T", "", nil)
	if err != nil {
		t.Fatal(err)
	}
	idx, err := db.CreateIndex("T_PK", "T", []string{"k"}, true, "")
	if err != nil {
		t.Fatal(err)
	}
	keyedRows(t, db, tbl, idx, 0, 1000)
	lo, hi := []byte("k0000100"), []byte("k0000200")
	tx := db.Begin()
	defer tx.Abort()
	if n := testing.AllocsPerRun(100, func() {
		for range idx.Range(tx, lo, hi) {
		}
	}); n > 4 {
		t.Errorf("Index.Range over 100 resident entries allocates %v times, want at most 4", n)
	}
	var keys [][]byte
	for k := range idx.Range(tx, lo, hi) {
		keys = append(keys, k)
	}
	if err := tx.Err(); err != nil || len(keys) != 100 {
		t.Fatalf("range yielded %d keys (%v), want 100", len(keys), err)
	}
	for i, k := range keys {
		_ = append(k, 'X')
		if want := fmt.Sprintf("k%07d", 100+i); string(k) != want {
			t.Errorf("key %d reads %q after the scan, want %q", i, k, want)
		}
	}
	for i, k := range keys {
		if want := fmt.Sprintf("k%07d", 100+i); string(k) != want {
			t.Errorf("key %d reads %q after appending to the others, want %q", i, k, want)
		}
	}
}

// keyedTable opens a smallConfig database with a 256-page pool and a table T
// of keyedRows 0..n (98-byte rows, about 19 to a page, all resident) indexed
// by T_PK, and returns the table with the rows' rids in insertion order.
func keyedTable(t *testing.T, n int) (*DB, *Table, *Index, []RID) {
	t.Helper()
	cfg := smallConfig()
	cfg.BufferPoolPages = 256
	db, err := OpenConfig(cfg)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { db.Close() })
	tbl, err := db.CreateTable("T", "", nil)
	if err != nil {
		t.Fatal(err)
	}
	idx, err := db.CreateIndex("T_PK", "T", []string{"k"}, true, "")
	if err != nil {
		t.Fatal(err)
	}
	keyedRows(t, db, tbl, idx, 0, n)
	var rids []RID
	if err := db.View(func(tx *Tx) error {
		for _, rid := range idx.Range(tx, nil, nil) {
			rids = append(rids, rid)
		}
		return tx.Err()
	}); err != nil || len(rids) != n {
		t.Fatalf("index holds %d rids (%v), want %d", len(rids), err, n)
	}
	return db, tbl, idx, rids
}

// TestGetBatchRowsFromOneSlab: a 50-row GetBatch of resident rows on three or
// more pages allocates at most three times (its output, the pool's handles
// and at most one chunk of the transaction's slab), and every row it returns
// is the caller's: appending to one writes into no other, and the rows read
// back unchanged after a later GetBatch and Range in the same transaction.
// The rows of Table.Rows are as safe to append to.
func TestGetBatchRowsFromOneSlab(t *testing.T) {
	db, tbl, idx, all := keyedTable(t, 1000)
	rids := all[100:150]
	if pages := len(slices.CompactFunc(slices.Clone(rids), func(a, b RID) bool { return a.LPN == b.LPN })); pages < 3 {
		t.Fatalf("the 50 rows lie on %d pages, want at least 3", pages)
	}
	tx := db.Begin()
	defer tx.Abort()
	if n := testing.AllocsPerRun(100, func() {
		if _, err := tbl.GetBatch(tx, rids); err != nil {
			t.Fatal(err)
		}
	}); n > 3 {
		t.Errorf("a 50-row GetBatch of resident rows allocates %v times, want at most 3", n)
	}
	rows, err := tbl.GetBatch(tx, rids)
	if err != nil {
		t.Fatal(err)
	}
	for _, row := range rows {
		_ = append(row, 'X')
	}
	if _, err := tbl.GetBatch(tx, all[500:550]); err != nil {
		t.Fatal(err)
	}
	for range idx.Range(tx, []byte("k0000600"), []byte("k0000700")) {
	}
	for i, row := range rows {
		if !bytes.Equal(row, keyedRow(100+i)) {
			t.Errorf("row %d reads %q after appends, a GetBatch and a Range, want %q", i, row, keyedRow(100+i))
		}
	}

	var scanned [][]byte
	for _, row := range tbl.Rows(tx) {
		scanned = append(scanned, row)
	}
	for _, row := range scanned {
		_ = append(row, 'X')
	}
	if err := tx.Err(); err != nil || len(scanned) != len(all) {
		t.Fatalf("Rows yielded %d rows (%v), want %d", len(scanned), err, len(all))
	}
	for i, row := range scanned {
		if !bytes.Equal(row, keyedRow(i)) {
			t.Fatalf("Rows row %d reads %q after an append to every row, want %q", i, row, keyedRow(i))
		}
	}
}

// TestGetBatchInterleavedAndDuplicateRids: rids that alternate between two
// pages, and rids repeated, each return their own row, in the order asked.
func TestGetBatchInterleavedAndDuplicateRids(t *testing.T) {
	db, tbl, _, all := keyedTable(t, 100)
	b := slices.IndexFunc(all, func(r RID) bool { return r.LPN != all[0].LPN }) // first row of page B
	if b < 3 || b+3 > len(all) {
		t.Fatalf("page A holds %d rows, want at least 3", b)
	}
	want := []int{0, b, 1, b + 1, 2, b + 2, 0, 0, b + 2, b + 2, 1}
	rids := make([]RID, len(want))
	for i, k := range want {
		rids[i] = all[k]
	}
	if err := db.View(func(tx *Tx) error {
		rows, err := tbl.GetBatch(tx, rids)
		if err != nil {
			return err
		}
		for i, row := range rows {
			if !bytes.Equal(row, keyedRow(want[i])) {
				return fmt.Errorf("row %d (rid %v) reads %q, want %q", i, rids[i], row, keyedRow(want[i]))
			}
		}
		return nil
	}); err != nil {
		t.Fatal(err)
	}
}

// TestGetBatchDeletedSlotReleasesLatches: a deleted slot in the middle of a
// batch fails the call with ErrNotFound and leaves nothing held: an update of
// another row on the same page, in the same transaction, succeeds.
func TestGetBatchDeletedSlotReleasesLatches(t *testing.T) {
	db, tbl, _, all := keyedTable(t, 100)
	if all[4].LPN != all[5].LPN || all[5].LPN != all[6].LPN {
		t.Fatal("rows 4 to 6 are not on one page")
	}
	if err := db.Update(func(tx *Tx) error { return tbl.Delete(tx, all[5]) }); err != nil {
		t.Fatal(err)
	}
	if err := db.Update(func(tx *Tx) error {
		if _, err := tbl.GetBatch(tx, all[:10]); !errors.Is(err, ErrNotFound) {
			return fmt.Errorf("GetBatch over a deleted slot: %v, want ErrNotFound", err)
		}
		return tbl.Update(tx, all[4], keyedRow(4))
	}); err != nil {
		t.Fatal(err)
	}
}

// TestGetBatchTooLargeForThePool: a GetBatch over more one-row pages than the
// pool has frames fails with ErrTooLarge, and pins nothing it keeps: a
// 10-rid GetBatch in the same transaction then succeeds.
func TestGetBatchTooLargeForThePool(t *testing.T) {
	db, err := OpenConfig(smallConfig()) // 64 frames
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()
	tbl, err := db.CreateTable("T", "", nil)
	if err != nil {
		t.Fatal(err)
	}
	rows := make([][]byte, 200)
	for i := range rows {
		rows[i] = bytes.Repeat([]byte{byte(i)}, 1100) // two do not fit a 2 KB page
	}
	var rids []RID
	if err := db.Update(func(tx *Tx) error {
		rids, err = tbl.InsertBatch(tx, rows)
		return err
	}); err != nil {
		t.Fatal(err)
	}
	if err := db.View(func(tx *Tx) error {
		if _, err := tbl.GetBatch(tx, rids); !errors.Is(err, ErrTooLarge) {
			return fmt.Errorf("GetBatch over 200 pages in a 64-page pool: %v, want ErrTooLarge", err)
		}
		got, err := tbl.GetBatch(tx, rids[:10])
		if err != nil {
			return fmt.Errorf("a 10-rid GetBatch after the failed one: %v", err)
		}
		for i, row := range got {
			if !bytes.Equal(row, rows[i]) {
				return fmt.Errorf("row %d differs", i)
			}
		}
		return nil
	}); err != nil {
		t.Fatal(err)
	}
}

// TestScanKeysOfOneTxStayIntact: the scans of one transaction carve their
// keys from one slab, and a later scan never rewrites what an earlier one
// handed out: the keys of two scans read back their own bytes after a third,
// and appending to any key writes into no other.
func TestScanKeysOfOneTxStayIntact(t *testing.T) {
	db, err := OpenConfig(smallConfig())
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()
	tbl, err := db.CreateTable("T", "", nil)
	if err != nil {
		t.Fatal(err)
	}
	idx, err := db.CreateIndex("T_PK", "T", []string{"k"}, true, "")
	if err != nil {
		t.Fatal(err)
	}
	keyedRows(t, db, tbl, idx, 0, 300)
	tx := db.Begin()
	defer tx.Abort()
	var keys []string
	var got [][]byte
	scan := func(seq iter.Seq2[[]byte, RID]) {
		for k := range seq {
			keys, got = append(keys, string(k)), append(got, k)
		}
	}
	scan(idx.Range(tx, []byte("k0000010"), []byte("k0000020")))
	scan(idx.Prefix(tx, []byte("k000010")))
	first := len(got)
	scan(idx.Range(tx, []byte("k0000200"), nil))
	if err := tx.Err(); err != nil || first != 20 || len(got) != 120 {
		t.Fatalf("the scans yielded %d and %d keys (%v), want 20 and 100", first, len(got)-first, err)
	}
	for _, k := range got {
		_ = append(k, 'X')
	}
	for i, k := range got {
		if string(k) != keys[i] {
			t.Errorf("key %d reads %q after three scans and an append to every key, want %q", i, k, keys[i])
		}
	}
}

// TestTableGetAppend: GetAppend appends the row after what dst holds, the
// bytes Get returns, and reports a deleted row as ErrNotFound with dst
// unchanged.  Into a buffer with room, a read of a resident page and an
// AppendKey allocate nothing.
func TestTableGetAppend(t *testing.T) {
	db, err := OpenConfig(smallConfig())
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()
	tbl, err := db.CreateTable("T", "", nil)
	if err != nil {
		t.Fatal(err)
	}
	var rids []RID
	if err := db.Update(func(tx *Tx) error {
		for i := range 3 {
			rid, err := tbl.Insert(tx, bytes.Repeat([]byte{byte('a' + i)}, 50+i))
			rids = append(rids, rid)
			if err != nil {
				return err
			}
		}
		return tbl.Delete(tx, rids[1])
	}); err != nil {
		t.Fatal(err)
	}
	tx := db.Begin()
	defer tx.Abort()
	dst := []byte("dst")
	for _, rid := range []RID{rids[0], rids[2]} {
		want, err := tbl.Get(tx, rid)
		if err != nil {
			t.Fatal(err)
		}
		if got, err := tbl.GetAppend(tx, rid, dst); err != nil || !bytes.Equal(got, append(bytes.Clone(dst), want...)) {
			t.Errorf("GetAppend(%v) after %q = %q (%v), want %q after it", rid, dst, got, err, want)
		}
	}
	if got, err := tbl.GetAppend(tx, rids[1], dst); !errors.Is(err, ErrNotFound) || !bytes.Equal(got, dst) {
		t.Errorf("GetAppend of a deleted row = %q, %v; want %q, ErrNotFound", got, err, dst)
	}

	row := make([]byte, 0, 64)
	if n := testing.AllocsPerRun(100, func() {
		if row, err = tbl.GetAppend(tx, rids[0], row[:0]); err != nil {
			t.Fatal(err)
		}
	}); n != 0 {
		t.Errorf("Table.GetAppend of a resident page into capacity allocates %v times, want 0", n)
	}
	key := make([]byte, 0, 16)
	if n := testing.AllocsPerRun(100, func() { key = AppendKey(key[:0], 1, 2, 3, 4) }); n != 0 {
		t.Errorf("AppendKey into capacity allocates %v times, want 0", n)
	}
	if !bytes.Equal(key, Key(1, 2, 3, 4)) {
		t.Errorf("AppendKey = %x, want Key's %x", key, Key(1, 2, 3, 4))
	}
}

// TestFinishedTxRefusesWrites checks that every write of a committed or
// aborted transaction fails with ErrConflict before it touches a page: the
// change could not be logged, so it must not be applied.
func TestFinishedTxRefusesWrites(t *testing.T) {
	db, err := OpenConfig(smallConfig())
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()
	if err := db.Exec(`CREATE TABLE T (v VARCHAR(20));
		CREATE UNIQUE INDEX T_IDX ON T (v);`); err != nil {
		t.Fatal(err)
	}
	tbl, _ := db.Table("T")
	idx, _ := db.Index("T_IDX")
	var rid RID
	if err := db.Update(func(tx *Tx) error {
		var err error
		if rid, err = tbl.Insert(tx, []byte("kept")); err != nil {
			return err
		}
		return idx.Insert(tx, Key(1), rid)
	}); err != nil {
		t.Fatal(err)
	}
	var lastID uint64
	for _, finish := range []string{"commit", "abort"} {
		tx := db.Begin()
		if tx.ID() <= lastID {
			t.Fatalf("transaction ID %d does not follow %d", tx.ID(), lastID)
		}
		lastID = tx.ID()
		if finish == "commit" {
			if _, err := tx.Commit(); err != nil {
				t.Fatal(err)
			}
		} else {
			tx.Abort()
		}
		writes := map[string]error{}
		_, writes["Insert"] = tbl.Insert(tx, []byte("late"))
		_, writes["InsertBatch"] = tbl.InsertBatch(tx, [][]byte{[]byte("late")})
		writes["Update"] = tbl.Update(tx, rid, []byte("changed"))
		writes["Delete"] = tbl.Delete(tx, rid)
		writes["Index.Insert"] = idx.Insert(tx, Key(2), rid)
		writes["Index.Delete"] = idx.Delete(tx, Key(1))
		for name, err := range writes {
			if !errors.Is(err, ErrConflict) {
				t.Errorf("%s after %s: err = %v, want ErrConflict", name, finish, err)
			}
		}
	}
	if err := db.View(func(tx *Tx) error {
		row, err := tbl.Get(tx, rid)
		if err != nil || string(row) != "kept" {
			return fmt.Errorf("row = %q, %v; want it unchanged", row, err)
		}
		if _, found, err := idx.Lookup(tx, Key(1)); err != nil || !found {
			return fmt.Errorf("Lookup(1) = %v, %v; want the entry kept", found, err)
		}
		if _, found, err := idx.Lookup(tx, Key(2)); err != nil || found {
			return fmt.Errorf("Lookup(2) = %v, %v; want no entry", found, err)
		}
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	if n, e := tbl.RowCount(), idx.Entries(); n != 1 || e != 1 {
		t.Fatalf("RowCount = %d, Entries = %d; want 1 and 1", n, e)
	}
}

// TestIndexErrorsArePublic checks that Index.Delete of an absent key reports
// the public ErrNotFound, not the B+-tree's own error.
func TestIndexErrorsArePublic(t *testing.T) {
	db, err := OpenConfig(smallConfig())
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()
	if err := db.Exec(`CREATE TABLE T (v VARCHAR(20));
		CREATE INDEX T_IDX ON T (v);`); err != nil {
		t.Fatal(err)
	}
	idx, _ := db.Index("T_IDX")
	if name := idx.Name(); name != "T_IDX" {
		t.Fatalf("Name() = %q", name)
	}
	err = db.Update(func(tx *Tx) error { return idx.Delete(tx, Key(7)) })
	if !errors.Is(err, ErrNotFound) {
		t.Fatalf("Delete of an absent key: err = %v, want ErrNotFound", err)
	}
}
