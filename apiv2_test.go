package noftl

import (
	"bytes"
	"errors"
	"fmt"
	"reflect"
	"strings"
	"testing"
	"time"

	"noftl/internal/core"
)

// TestInsertBatchSubmissionRatio is the batch-DML acceptance check: 1k rows
// inserted through InsertBatch on the default 8-die configuration must issue
// at least 4x fewer scheduler submissions than 1k row-at-a-time inserts.
func TestInsertBatchSubmissionRatio(t *testing.T) {
	const rows = 1000
	row := bytes.Repeat([]byte{'r'}, 256)

	serial := func() int64 {
		db, err := Open()
		if err != nil {
			t.Fatal(err)
		}
		defer db.Close()
		if err := db.Exec("CREATE TABLE T (v VARCHAR(256))"); err != nil {
			t.Fatal(err)
		}
		tbl, _ := db.Table("T")
		for i := 0; i < rows; i++ {
			tx := db.Begin()
			if _, err := tbl.Insert(tx, row); err != nil {
				t.Fatal(err)
			}
			if _, err := tx.Commit(); err != nil {
				t.Fatal(err)
			}
		}
		return db.Stats().Scheduler.Batches
	}()

	batched := func() int64 {
		db, err := Open()
		if err != nil {
			t.Fatal(err)
		}
		defer db.Close()
		if err := db.Exec("CREATE TABLE T (v VARCHAR(256))"); err != nil {
			t.Fatal(err)
		}
		tbl, _ := db.Table("T")
		all := make([][]byte, rows)
		for i := range all {
			all[i] = row
		}
		err = db.Update(func(tx *Tx) error {
			rids, err := tbl.InsertBatch(tx, all)
			if err != nil {
				return err
			}
			if len(rids) != rows {
				return fmt.Errorf("got %d rids", len(rids))
			}
			return nil
		})
		if err != nil {
			t.Fatal(err)
		}
		if got := tbl.RowCount(); got != rows {
			t.Fatalf("row count = %d, want %d", got, rows)
		}
		return db.Stats().Scheduler.Batches
	}()

	if batched == 0 || serial < 4*batched {
		t.Fatalf("InsertBatch issued %d scheduler submissions vs %d for row-at-a-time: want >= 4x fewer",
			batched, serial)
	}
	t.Logf("scheduler submissions: serial=%d batch=%d (%.0fx fewer)",
		serial, batched, float64(serial)/float64(batched))
}

// TestBatchDMLRoundTrip exercises InsertBatch/GetBatch correctness: every
// row readable one-at-a-time and in batches, indexed keys resolvable, missing
// keys reported.
func TestBatchDMLRoundTrip(t *testing.T) {
	db, err := OpenConfig(smallConfig())
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()
	if err := db.Exec(`
		CREATE TABLE T (v VARCHAR(200));
		CREATE UNIQUE INDEX T_IDX ON T (v);
	`); err != nil {
		t.Fatal(err)
	}
	tbl, _ := db.Table("T")
	idx, _ := db.Index("T_IDX")

	const rows = 500
	all := make([][]byte, rows)
	for i := range all {
		all[i] = []byte(fmt.Sprintf("row-%04d|%s", i, strings.Repeat("x", 80)))
	}
	var rids []RID
	err = db.Update(func(tx *Tx) error {
		var err error
		rids, err = tbl.InsertBatch(tx, all)
		if err != nil {
			return err
		}
		for i, rid := range rids {
			if err := idx.Insert(tx, Key(uint32(i)), rid); err != nil {
				return err
			}
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(rids) != rows {
		t.Fatalf("rids = %d", len(rids))
	}

	// Push to flash so GetBatch exercises the cold batched read path too.
	if _, err := db.FlushAll(db.SimulatedTime()); err != nil {
		t.Fatal(err)
	}

	err = db.View(func(tx *Tx) error {
		// Batch get in row order and a shuffled subset.
		got, err := tbl.GetBatch(tx, rids[:64])
		if err != nil {
			return err
		}
		for i, row := range got {
			if !bytes.Equal(row, all[i]) {
				return fmt.Errorf("GetBatch[%d] mismatch", i)
			}
		}
		subset := []RID{rids[499], rids[0], rids[250], rids[250]}
		got, err = tbl.GetBatch(tx, subset)
		if err != nil {
			return err
		}
		if !bytes.Equal(got[0], all[499]) || !bytes.Equal(got[1], all[0]) ||
			!bytes.Equal(got[2], all[250]) || !bytes.Equal(got[3], all[250]) {
			return fmt.Errorf("GetBatch subset mismatch")
		}
		// Lookups, with one key that does not exist.
		for k, want := range map[uint32]RID{0: rids[0], 499: rids[499], 12345: {}} {
			rid, found, err := idx.Lookup(tx, Key(k))
			if err != nil {
				return err
			}
			if found != (k != 12345) || rid != want {
				return fmt.Errorf("Lookup(%d) = %v, %v", k, rid, found)
			}
		}
		// A missing record fails the whole GetBatch with ErrNotFound.
		if _, err := tbl.GetBatch(tx, []RID{{LPN: rids[0].LPN, Slot: 999}}); !errors.Is(err, ErrNotFound) {
			return fmt.Errorf("GetBatch of bad slot: %v", err)
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

// TestInsertBatchOversizedRecord verifies an oversized record fails the
// batch up front and leaves the heap fully usable.
func TestInsertBatchOversizedRecord(t *testing.T) {
	db, err := OpenConfig(smallConfig()) // 2 KiB pages
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()
	if err := db.Exec("CREATE TABLE T (v VARCHAR(4000))"); err != nil {
		t.Fatal(err)
	}
	tbl, _ := db.Table("T")
	huge := bytes.Repeat([]byte{'h'}, 4000) // larger than a 2 KiB page
	err = db.Update(func(tx *Tx) error {
		rids, berr := tbl.InsertBatch(tx, [][]byte{[]byte("small"), huge})
		if berr == nil {
			return fmt.Errorf("oversized batch accepted")
		}
		if len(rids) != 0 {
			return fmt.Errorf("oversized batch applied %d rows", len(rids))
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if tbl.RowCount() != 0 {
		t.Fatalf("row count = %d after failed batch", tbl.RowCount())
	}
	// The heap must still work: inserts, batch inserts and scans.
	err = db.Update(func(tx *Tx) error {
		if _, err := tbl.Insert(tx, []byte("one")); err != nil {
			return err
		}
		if _, err := tbl.InsertBatch(tx, [][]byte{[]byte("two"), []byte("three")}); err != nil {
			return err
		}
		n := 0
		for range tbl.Rows(tx) {
			n++
		}
		if n != 3 {
			return fmt.Errorf("scan after failed batch saw %d rows", n)
		}
		return tx.Err()
	})
	if err != nil {
		t.Fatal(err)
	}
}

// TestIterators covers Table.Rows, Index.Range and Index.Prefix including
// early break and the Tx.Err contract.
func TestIterators(t *testing.T) {
	db, err := OpenConfig(smallConfig())
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()
	if err := db.Exec(`
		CREATE TABLE T (v VARCHAR(64));
		CREATE UNIQUE INDEX T_IDX ON T (v);
	`); err != nil {
		t.Fatal(err)
	}
	tbl, _ := db.Table("T")
	idx, _ := db.Index("T_IDX")
	const rows = 300
	err = db.Update(func(tx *Tx) error {
		for i := 0; i < rows; i++ {
			rid, err := tbl.Insert(tx, []byte(fmt.Sprintf("it-%04d", i)))
			if err != nil {
				return err
			}
			if err := idx.Insert(tx, Key(uint32(i)), rid); err != nil {
				return err
			}
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}

	err = db.View(func(tx *Tx) error {
		n := 0
		for rid, row := range tbl.Rows(tx) {
			if rid.LPN == 0 || len(row) == 0 {
				return fmt.Errorf("bad row %v", rid)
			}
			n++
		}
		if n != rows {
			return fmt.Errorf("Rows saw %d", n)
		}
		// Early break stops the scan without error.
		n = 0
		for range tbl.Rows(tx) {
			n++
			if n == 10 {
				break
			}
		}
		if n != 10 || tx.Err() != nil {
			return fmt.Errorf("early break: n=%d err=%v", n, tx.Err())
		}
		// Range and Prefix.
		n = 0
		var last uint32
		for key, rid := range idx.Range(tx, Key(100), Key(200)) {
			if len(key) != 4 || rid.LPN == 0 {
				return fmt.Errorf("bad entry")
			}
			last = uint32(key[0])<<24 | uint32(key[1])<<16 | uint32(key[2])<<8 | uint32(key[3])
			n++
		}
		if n != 100 || last != 199 {
			return fmt.Errorf("Range saw %d entries, last %d", n, last)
		}
		n = 0
		for range idx.Prefix(tx, nil) {
			n++
		}
		if n != rows {
			return fmt.Errorf("Prefix saw %d", n)
		}
		return tx.Err()
	})
	if err != nil {
		t.Fatal(err)
	}
}

// TestUpdateViewClosures covers commit-on-nil, abort-on-error and
// abort-on-panic.
func TestUpdateViewClosures(t *testing.T) {
	db, err := OpenConfig(smallConfig())
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()
	if err := db.Exec("CREATE TABLE T (v VARCHAR(64))"); err != nil {
		t.Fatal(err)
	}
	tbl, _ := db.Table("T")
	if tbl.Name() != "T" {
		t.Fatalf("table handle named %q", tbl.Name())
	}

	// Commit path.
	if err := db.Update(func(tx *Tx) error {
		_, err := tbl.Insert(tx, []byte("kept"))
		return err
	}); err != nil {
		t.Fatal(err)
	}
	committed := db.Stats().TxnCommitted

	// A closed-loop driver's transaction starts at its own cursor, and the
	// CPU time it charges is response time.
	tc := db.TimeCursor()
	start := tc.Now().Add(time.Second)
	tc.Advance(time.Second)
	if tc.Now() != start {
		t.Fatalf("cursor at %v after advancing 1s from zero", tc.Now())
	}
	tx := db.BeginAt(tc.Now())
	tx.Charge(3 * time.Millisecond)
	if tx.Now() != start.Add(3*time.Millisecond) || tx.ResponseTime() != 3*time.Millisecond {
		t.Fatalf("charged transaction at %v, response time %v", tx.Now(), tx.ResponseTime())
	}
	tx.Abort()

	// Error path aborts.
	boom := errors.New("boom")
	if err := db.Update(func(tx *Tx) error { return boom }); !errors.Is(err, boom) {
		t.Fatalf("Update error = %v", err)
	}
	// Panic path aborts, then re-panics.
	func() {
		defer func() {
			if recover() == nil {
				t.Fatal("panic swallowed")
			}
		}()
		_ = db.Update(func(tx *Tx) error { panic("kaboom") })
	}()
	st := db.Stats()
	if st.TxnCommitted != committed {
		t.Fatalf("aborting paths committed: %d -> %d", committed, st.TxnCommitted)
	}
	if st.TxnAborted < 2 {
		t.Fatalf("aborted = %d, want >= 2", st.TxnAborted)
	}
	// View returns fn's error and never commits.
	if err := db.View(func(tx *Tx) error { return boom }); !errors.Is(err, boom) {
		t.Fatalf("View error = %v", err)
	}
	if db.Stats().TxnCommitted != committed {
		t.Fatal("View committed")
	}
}

// TestExecDDLError verifies Exec reports *DDLError with the offending
// statement, its position and the failing clause, for both execution and
// syntax failures.
func TestExecDDLError(t *testing.T) {
	db, err := OpenConfig(smallConfig())
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()

	// The second statement fails: its position and text must be reported.
	script := `CREATE REGION rgOk (MAX_CHIPS=2);
DROP REGION nope;`
	err = db.Exec(script)
	var de *DDLError
	if !errors.As(err, &de) {
		t.Fatalf("not a DDLError: %v", err)
	}
	if de.Pos != strings.Index(script, "DROP") {
		t.Fatalf("Pos = %d, want %d", de.Pos, strings.Index(script, "DROP"))
	}
	if de.Stmt != "DROP REGION nope" {
		t.Fatalf("Stmt = %q", de.Stmt)
	}
	if de.Clause != "REGION" {
		t.Fatalf("Clause = %q", de.Clause)
	}
	if !errors.Is(err, ErrNotFound) {
		t.Fatalf("cause not ErrNotFound: %v", err)
	}
	// The message names the position, the clause and the statement, cut to
	// 57 bytes and an ellipsis past 60.
	long := "DROP REGION a_region_whose_name_runs_on_and_on_and_on_and_on_and_on"
	err = db.Exec(long)
	want := fmt.Sprintf("noftl: DDL failed at position 0 (clause REGION) in %q: ", long[:57]+"...")
	if !errors.As(err, &de) || !strings.HasPrefix(err.Error(), want) {
		t.Fatalf("Error() = %q, want prefix %q", err, want)
	}

	// A bad clause value is attributed to the clause.
	err = db.Exec("CREATE REGION rgLRU (MAX_CHIPS=1, GC_POLICY=LRU)")
	if !errors.As(err, &de) || de.Clause != "GC_POLICY" {
		t.Fatalf("clause attribution: %v", err)
	}

	// Syntax errors carry the offending position.
	err = db.Exec("CREATE REGION rgOk2 (MAX_CHIPS=2); CREATE NONSENSE x")
	if !errors.As(err, &de) || de.Clause != "syntax" || de.Pos <= 0 {
		t.Fatalf("syntax error: %+v (%v)", de, err)
	}

	// Name conflicts surface as ErrConflict.
	if err := db.Exec("CREATE REGION rgOk (MAX_CHIPS=1)"); !errors.Is(err, ErrConflict) {
		t.Fatalf("duplicate region: %v", err)
	}

	// A failure NOT caused by the REGION clause must not be pinned on it: a
	// duplicate tablespace name in a statement that also has a valid REGION
	// clause reports no clause.
	if err := db.Exec("CREATE TABLESPACE tsDup (REGION=rgOk)"); err != nil {
		t.Fatal(err)
	}
	err = db.Exec("CREATE TABLESPACE tsDup (REGION=rgOk)")
	if !errors.As(err, &de) || de.Clause != "" || !errors.Is(err, ErrConflict) {
		t.Fatalf("duplicate tablespace misattributed: clause=%q err=%v", de.Clause, err)
	}
	// An actually unknown region is attributed to the clause.
	err = db.Exec("CREATE TABLESPACE tsNope (REGION=missing)")
	if !errors.As(err, &de) || de.Clause != "REGION" || !errors.Is(err, ErrNotFound) {
		t.Fatalf("unknown region: clause=%q err=%v", de.Clause, err)
	}

	// A region a tablespace references cannot be dropped; once the tablespace
	// is gone it can, and its dies are the default region's again.
	defaultDies := func() int {
		def, _ := db.Stats().Space.RegionByName(core.DefaultRegionName)
		return len(def.Dies)
	}
	before := defaultDies()
	if err := db.Exec("DROP REGION rgOk"); !errors.Is(err, ErrConflict) {
		t.Fatalf("drop of a region tablespace tsDup references: %v", err)
	}
	if err := db.Exec("DROP TABLESPACE tsDup; DROP REGION rgOk"); err != nil {
		t.Fatal(err)
	}
	if got := defaultDies(); got != before+2 || len(db.Schema().Regions) != 0 {
		t.Fatalf("after DROP REGION: %d dies in DEFAULT (had %d), schema regions %+v", got, before, db.Schema().Regions)
	}
	if err := db.Exec("DROP REGION rgOk"); !errors.Is(err, ErrNotFound) {
		t.Fatalf("double drop region: %v", err)
	}
	if err := db.Exec("DROP REGION DEFAULT"); !errors.Is(err, ErrUnsupported) {
		t.Fatalf("drop of the default region: %v", err)
	}
}

// TestDropTablespaceAndIndex covers the DROP paths: removal from the schema,
// page reclamation, in-use protection and the SYSTEM special case.
func TestDropTablespaceAndIndex(t *testing.T) {
	db, err := OpenConfig(smallConfig())
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()
	if err := db.Exec(`
		CREATE TABLESPACE tsTmp;
		CREATE TABLE T (v VARCHAR(64)) TABLESPACE tsTmp;
		CREATE UNIQUE INDEX T_IDX ON T (v) TABLESPACE tsTmp;
	`); err != nil {
		t.Fatal(err)
	}
	tbl, _ := db.Table("T")
	idx, _ := db.Index("T_IDX")
	err = db.Update(func(tx *Tx) error {
		for i := 0; i < 400; i++ {
			rid, err := tbl.Insert(tx, bytes.Repeat([]byte{'z'}, 60))
			if err != nil {
				return err
			}
			if err := idx.Insert(tx, Key(uint32(i)), rid); err != nil {
				return err
			}
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := db.Checkpoint(db.SimulatedTime()); err != nil {
		t.Fatal(err)
	}

	// A taken name is refused and the first object is untouched; so is an
	// index in a tablespace that does not exist.
	if err := db.Exec("CREATE TABLE T (w NUMBER(3))"); !errors.Is(err, ErrConflict) {
		t.Fatalf("duplicate table: %v", err)
	}
	if err := db.Exec("CREATE INDEX T_IDX ON T (v)"); !errors.Is(err, ErrConflict) {
		t.Fatalf("duplicate index: %v", err)
	}
	if err := db.Exec("CREATE INDEX T_NOPE ON T (v) TABLESPACE missing"); !errors.Is(err, ErrNotFound) {
		t.Fatalf("index in a missing tablespace: %v", err)
	}
	if t2, _ := db.Table("T"); t2 != tbl || tbl.RowCount() != 400 {
		t.Fatalf("table T after the refused duplicate: same handle %v, %d rows", t2 == tbl, tbl.RowCount())
	}
	if i2, _ := db.Index("T_IDX"); i2 != idx || idx.Entries() != 400 || len(db.Schema().Indexes) != 1 {
		t.Fatalf("index T_IDX after the refused statements: same handle %v, %d entries, schema %+v",
			i2 == idx, idx.Entries(), db.Schema().Indexes)
	}

	// In-use tablespace cannot be dropped.
	if err := db.Exec("DROP TABLESPACE tsTmp"); !errors.Is(err, ErrConflict) {
		t.Fatalf("drop in-use tablespace: %v", err)
	}
	// SYSTEM can never be dropped.
	if err := db.Exec("DROP TABLESPACE SYSTEM"); !errors.Is(err, ErrUnsupported) {
		t.Fatalf("drop SYSTEM: %v", err)
	}

	// DROP INDEX reclaims the tree's pages.
	validBefore := db.Stats().Space.ValidPages
	if err := db.Exec("DROP INDEX T_IDX"); err != nil {
		t.Fatal(err)
	}
	if _, ok := db.Index("T_IDX"); ok {
		t.Fatal("index still visible")
	}
	if got := db.Stats().Space.ValidPages; got >= validBefore {
		t.Fatalf("DROP INDEX reclaimed nothing: %d -> %d", validBefore, got)
	}
	if err := db.DropIndex("T_IDX"); !errors.Is(err, ErrNotFound) {
		t.Fatalf("double drop index: %v", err)
	}

	// DROP TABLE takes the table's indexes with it, so the tablespace then
	// drops cleanly.
	if err := db.Exec("CREATE INDEX T_I2 ON T (v) TABLESPACE tsTmp; DROP TABLE T; DROP TABLESPACE tsTmp"); err != nil {
		t.Fatal(err)
	}
	if _, ok := db.Index("T_I2"); ok || len(db.Schema().Indexes) != 0 || len(db.Schema().Tables) != 0 {
		t.Fatalf("after DROP TABLE: index handle %v, schema %+v", ok, db.Schema())
	}
	for _, ts := range db.Schema().Tablespaces {
		if ts.Name == "tsTmp" {
			t.Fatal("tablespace still in the schema")
		}
	}
	if err := db.CreateTablespace("tsTmp", "", 0); err != nil {
		t.Fatalf("recreate dropped tablespace: %v", err)
	}
	if err := db.DropTablespace("missing"); !errors.Is(err, ErrNotFound) {
		t.Fatalf("drop missing tablespace: %v", err)
	}
	// The index was dropped with its table's trim path once already; its
	// pages must not be double-counted — integrity stays clean.
	if err := db.Admin().VerifyIntegrity(); err != nil {
		t.Fatal(err)
	}
}

// TestErrClosed verifies post-Close operations fail with ErrClosed.
func TestErrClosed(t *testing.T) {
	db, err := OpenConfig(smallConfig())
	if err != nil {
		t.Fatal(err)
	}
	if err := db.Exec("CREATE TABLE T (v VARCHAR(8))"); err != nil {
		t.Fatal(err)
	}
	if err := db.Close(); err != nil {
		t.Fatal(err)
	}
	if err := db.Exec("CREATE TABLE U (v VARCHAR(8))"); !errors.Is(err, ErrClosed) {
		t.Fatalf("Exec after close: %v", err)
	}
	if err := db.Update(func(tx *Tx) error { return nil }); !errors.Is(err, ErrClosed) {
		t.Fatalf("Update after close: %v", err)
	}
	if err := db.View(func(tx *Tx) error { return nil }); !errors.Is(err, ErrClosed) {
		t.Fatalf("View after close: %v", err)
	}
	if _, err := db.CreateTable("X", "", nil); !errors.Is(err, ErrClosed) {
		t.Fatalf("CreateTable after close: %v", err)
	}
	if err := db.DropTable("T"); !errors.Is(err, ErrClosed) {
		t.Fatalf("DropTable after close: %v", err)
	}
	if err := db.Admin().GrowRegion("nope", 1); !errors.Is(err, ErrClosed) {
		t.Fatalf("Admin after close: %v", err)
	}
	if _, err := db.FlushAll(db.SimulatedTime()); !errors.Is(err, ErrClosed) {
		t.Fatalf("FlushAll after close: %v", err)
	}
}

// TestNoInternalPointersInAPI enforces the facade rule: no exported method
// on the public types returns a pointer (or slice of pointers) into
// internal/ packages.  The apidiff CI job guards removals; this guards
// reintroduction of escape hatches.
func TestNoInternalPointersInAPI(t *testing.T) {
	check := func(v interface{}) {
		ty := reflect.TypeOf(v)
		for m := 0; m < ty.NumMethod(); m++ {
			meth := ty.Method(m)
			for o := 0; o < meth.Type.NumOut(); o++ {
				out := meth.Type.Out(o)
				for out.Kind() == reflect.Slice || out.Kind() == reflect.Array {
					out = out.Elem()
				}
				if out.Kind() == reflect.Ptr && strings.Contains(out.Elem().PkgPath(), "/internal/") {
					t.Errorf("%s.%s returns %s: pointer into internal/", ty, meth.Name, meth.Type.Out(o))
				}
			}
		}
	}
	check(&DB{})
	check(&Table{})
	check(&Index{})
	check(&Tx{})
	check(&TimeCursor{})
}
