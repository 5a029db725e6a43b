package noftl

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"sort"
	"testing"

	"noftl/internal/core"
	"noftl/internal/flash"
	"noftl/internal/storage"
	"noftl/internal/wal"
)

// ledgerWorkload commits n small rows into table name, creating it first.
func ledgerWorkload(t *testing.T, db *DB, name string, n int) {
	t.Helper()
	tbl, err := db.CreateTable(name, "", nil)
	if err != nil {
		t.Fatal(err)
	}
	err = db.Update(func(tx *Tx) error {
		for i := 0; i < n; i++ {
			if _, err := tbl.Insert(tx, []byte(fmt.Sprintf("%s-row-%04d", name, i))); err != nil {
				return err
			}
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

// TestWALByteLedger checks the log's byte accounting across appends, explicit
// checkpoints and the truncation they trigger: BytesAppended must equal
// BytesTrimmed + BytesLive at every observation point, checkpointing must trim
// whole pages, and BytesLive (the bound on what a crash would replay) must
// shrink back to the checkpoint's own footprint afterwards.
func TestWALByteLedger(t *testing.T) {
	db, err := OpenConfig(smallConfig())
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()

	check := func(stage string) WALStats {
		w := db.Stats().WAL
		if w.BytesAppended != w.BytesTrimmed+w.BytesLive {
			t.Fatalf("%s: ledger broken: appended=%d trimmed=%d live=%d",
				stage, w.BytesAppended, w.BytesTrimmed, w.BytesLive)
		}
		return w
	}

	ledgerWorkload(t, db, "L", 200)
	before := check("after workload")
	if before.BytesAppended == 0 || before.BytesLive == 0 {
		t.Fatalf("workload appended nothing: %+v", before)
	}

	if _, err := db.Checkpoint(db.SimulatedTime()); err != nil {
		t.Fatal(err)
	}
	after := check("after checkpoint")
	if after.BytesTrimmed <= before.BytesTrimmed {
		t.Fatalf("checkpoint trimmed nothing: %d -> %d", before.BytesTrimmed, after.BytesTrimmed)
	}
	if after.PagesTrimmed == 0 {
		t.Fatal("checkpoint truncation dropped no log pages")
	}
	// The live bytes after a checkpoint are the checkpoint's own records (the
	// snapshot) plus at most one partially trimmed page of older records.
	if after.BytesLive >= before.BytesLive+after.Checkpoint.LastBytes {
		t.Fatalf("live bytes did not shrink: %d -> %d (ckpt %d)",
			before.BytesLive, after.BytesLive, after.Checkpoint.LastBytes)
	}

	// More work after the checkpoint keeps the ledger balanced.
	ledgerWorkload(t, db, "M", 100)
	check("after second workload")
	if _, err := db.Checkpoint(db.SimulatedTime()); err != nil {
		t.Fatal(err)
	}
	final := check("after second checkpoint")
	if final.BytesTrimmed <= after.BytesTrimmed {
		t.Fatalf("second checkpoint trimmed nothing: %d -> %d", after.BytesTrimmed, final.BytesTrimmed)
	}
}

// newestLogPage returns the survey entry of the newest surviving log page
// write — the only write a single power loss can tear.
func newestLogPage(t *testing.T, dev *flash.Device) flash.PageSurvey {
	t.Helper()
	var tail flash.PageSurvey
	found := false
	for _, blk := range dev.Survey() {
		for _, pg := range blk.Pages {
			if pg.Meta.Flags&flash.FlagLog == 0 {
				continue
			}
			if !found || pg.Meta.Seq > tail.Meta.Seq {
				tail, found = pg, true
			}
		}
	}
	if !found {
		t.Fatal("no log pages survive on the device")
	}
	return tail
}

// TestCorruptedTailTruncatedOnReopen corrupts bytes of the newest log write
// after a crash — the byte-level torn-tail case — and checks that recovery
// detects it, truncates the damaged suffix instead of failing, and still
// produces a verify-clean database containing every row whose commit force
// predates the damaged write.
func TestCorruptedTailTruncatedOnReopen(t *testing.T) {
	db, err := OpenConfig(smallConfig())
	if err != nil {
		t.Fatal(err)
	}
	tbl, err := db.CreateTable("T", "", nil)
	if err != nil {
		t.Fatal(err)
	}
	// Batch A is sealed by an explicit checkpoint; batch B rides in the log
	// tail and is what the corruption may cost us.
	stable := [][]byte{}
	err = db.Update(func(tx *Tx) error {
		for i := 0; i < 40; i++ {
			row := []byte(fmt.Sprintf("stable-%04d", i))
			if _, err := tbl.Insert(tx, row); err != nil {
				return err
			}
			stable = append(stable, row)
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := db.Checkpoint(db.SimulatedTime()); err != nil {
		t.Fatal(err)
	}
	err = db.Update(func(tx *Tx) error {
		_, err := tbl.Insert(tx, []byte("tail-row"))
		return err
	})
	if err != nil {
		t.Fatal(err)
	}

	img := db.Crash()
	// Flip bytes inside the records of the newest log write (records grow
	// from the page end, so the tail of the buffer is record bytes, not the
	// slot directory): the CRC no longer matches, so the scan must fall back
	// to an older version of the page or a valid prefix and report the tail
	// as torn.
	tail := newestLogPage(t, img.dev)
	pageSize := smallConfig().Flash.Geometry.PageSize
	if err := img.dev.CorruptPage(tail.Addr, pageSize-24, 16, 0xA5); err != nil {
		t.Fatal(err)
	}

	rec, err := Reopen(img)
	if err != nil {
		t.Fatalf("reopen after tail corruption: %v", err)
	}
	defer rec.Close()
	rst, ok := rec.Recovery()
	if !ok {
		t.Fatal("no recovery stats after Reopen")
	}
	if !rst.TornTail || rst.TornRecords == 0 {
		t.Fatalf("corrupted tail not reported: %+v", rst)
	}
	if err := rec.Admin().VerifyIntegrity(); err != nil {
		t.Fatal(err)
	}
	// Every checkpointed row survives; the tail row may legitimately be lost
	// with the damaged write.
	rtbl, ok := rec.Table("T")
	if !ok {
		t.Fatal("table T lost in recovery")
	}
	got := map[string]bool{}
	tx := rec.Begin()
	defer tx.Abort()
	for _, row := range rtbl.Rows(tx) {
		got[string(row)] = true
	}
	if err := tx.Err(); err != nil {
		t.Fatal(err)
	}
	for _, row := range stable {
		if !got[string(row)] {
			t.Fatalf("checkpointed row %q lost to tail corruption", row)
		}
	}
}

// TestCorruptedLogBodyRejected corrupts every surviving version of a log page
// that is NOT the newest write.  That cannot be explained by a torn program,
// so recovery must refuse with ErrCorruptLog rather than silently dropping
// committed records.
func TestCorruptedLogBodyRejected(t *testing.T) {
	db, err := OpenConfig(smallConfig())
	if err != nil {
		t.Fatal(err)
	}
	ledgerWorkload(t, db, "T", 120)

	img := db.Crash()
	tailLPN := newestLogPage(t, img.dev).Meta.LPN
	// Corrupt all versions of one non-tail log page.
	var victim uint64
	picked := false
	for _, blk := range img.dev.Survey() {
		for _, pg := range blk.Pages {
			if pg.Meta.Flags&flash.FlagLog == 0 || pg.Meta.LPN == tailLPN {
				continue
			}
			if !picked {
				victim, picked = pg.Meta.LPN, true
			}
			if pg.Meta.LPN == victim {
				if err := img.dev.CorruptPage(pg.Addr, storage.PageHeaderSize+4, 16, 0x5A); err != nil {
					t.Fatal(err)
				}
			}
		}
	}
	if !picked {
		t.Skip("log fits in a single page; no body page to corrupt")
	}

	if _, err := Reopen(img); !errors.Is(err, ErrCorruptLog) {
		t.Fatalf("reopen over corrupt log body: err=%v, want ErrCorruptLog", err)
	}
}

// TestLightCheckpointsRefuseRecovery checks the documented trade of
// WithLightCheckpoints: the log stays bounded, but a log whose last
// checkpoint carries no snapshot is not recoverable and Reopen must say so
// instead of silently booting an empty database.
func TestLightCheckpointsRefuseRecovery(t *testing.T) {
	db, err := OpenConfig(smallConfig(), WithLightCheckpoints())
	if err != nil {
		t.Fatal(err)
	}
	ledgerWorkload(t, db, "T", 50)
	if _, err := db.Checkpoint(db.SimulatedTime()); err != nil {
		t.Fatal(err)
	}
	w := db.Stats().WAL
	if w.BytesAppended != w.BytesTrimmed+w.BytesLive {
		t.Fatalf("light checkpoint broke the ledger: %+v", w)
	}
	if w.PagesTrimmed == 0 {
		t.Fatal("light checkpoint trimmed no pages")
	}

	_, err = Reopen(db.Crash())
	if !errors.Is(err, ErrCorruptLog) {
		t.Fatalf("reopen of light-checkpointed log: err=%v, want ErrCorruptLog", err)
	}
	if err == nil || !bytes.Contains([]byte(err.Error()), []byte("light checkpoints")) {
		t.Fatalf("error does not name the cause: %v", err)
	}
}

// TestReadOnlyTxnsLeaveLogUntouched checks that RecBegin is written lazily:
// a transaction that logs nothing and aborts (db.View) appends no record, so
// read-only work cannot grow a log buffer nothing ever forces or trims.
func TestReadOnlyTxnsLeaveLogUntouched(t *testing.T) {
	db, err := OpenConfig(smallConfig())
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()
	ledgerWorkload(t, db, "T", 50)
	tbl, _ := db.Table("T")

	before := db.Stats().WAL
	for i := 0; i < 10000; i++ {
		err := db.View(func(tx *Tx) error {
			for range tbl.Rows(tx) {
				break
			}
			return tx.Err()
		})
		if err != nil {
			t.Fatal(err)
		}
	}
	after := db.Stats().WAL
	if after.Appended != before.Appended || after.BytesAppended != before.BytesAppended ||
		after.BytesLive != before.BytesLive {
		t.Fatalf("read-only transactions touched the log: before=%+v after=%+v", before, after)
	}
}

// TestReplayCountsLosersWithLazyBegin checks recovery's winner/loser counts
// now that RecBegin is written with the first logged record: a transaction
// that logged work but never committed is a loser, one that logged nothing
// leaves no trace at all.
func TestReplayCountsLosersWithLazyBegin(t *testing.T) {
	db, err := OpenConfig(smallConfig())
	if err != nil {
		t.Fatal(err)
	}
	ledgerWorkload(t, db, "T", 20)
	tbl, _ := db.Table("T")

	loser := db.Begin()
	if _, err := tbl.Insert(loser, []byte("never committed")); err != nil {
		t.Fatal(err)
	}
	idle := db.Begin() // logs nothing
	// A later commit forces the log, making the loser's records durable.
	if err := db.Update(func(tx *Tx) error {
		_, err := tbl.Insert(tx, []byte("winner"))
		return err
	}); err != nil {
		t.Fatal(err)
	}
	_ = idle

	re, err := Reopen(db.Crash())
	if err != nil {
		t.Fatal(err)
	}
	defer re.Close()
	rst, _ := re.Recovery()
	// The load and the winner committed after the DDL checkpoint.
	if rst.CommittedTxns != 2 || rst.LoserTxns != 1 {
		t.Fatalf("replay window: committed=%d losers=%d, want 2 and 1", rst.CommittedTxns, rst.LoserTxns)
	}
	rtbl, _ := re.Table("T")
	if got := rtbl.RowCount(); got != 21 {
		t.Fatalf("recovered %d rows, want 21 (20 loaded + winner, loser discarded)", got)
	}
}

// keyedRows commits rows [from, to) — each its 8-byte key plus padding — and
// their index entries in one transaction.
func keyedRows(t *testing.T, db *DB, tbl *Table, idx *Index, from, to int) {
	t.Helper()
	err := db.Update(func(tx *Tx) error {
		for i := from; i < to; i++ {
			row := keyedRow(i)
			rid, err := tbl.Insert(tx, row)
			if err == nil {
				err = idx.Insert(tx, row[:8], rid)
			}
			if err != nil {
				return err
			}
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

// keyedRow is the row keyedRows stores for i: its key, then 90 bytes of i.
func keyedRow(i int) []byte {
	return append([]byte(fmt.Sprintf("k%07d", i)), bytes.Repeat([]byte{byte(i)}, 90)...)
}

// durableLog reassembles the record stream a recovery of img would see.
func durableLog(t *testing.T, img *CrashImage) []wal.Record {
	t.Helper()
	_, survey := core.SurveyDevice(img.dev, img.cfg.Space)
	scan, _, err := scanLog(img.dev, survey)
	if err != nil {
		t.Fatal(err)
	}
	return scan.Records
}

// TestCheckpointIsMarksOverTheFlashImage pins the checkpoint framing: a begin
// mark carrying the write sequence of the flushed image, one mark per schema
// object, a page descriptor after each table and index mark, an end mark — and
// not one row.  The descriptors name exactly the pages and counts of the live
// objects, every data page on flash is at or below the begin mark's sequence,
// and CheckpointStats describes exactly that record run.
func TestCheckpointIsMarksOverTheFlashImage(t *testing.T) {
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
	const rows, deleted = 300, 40
	keyedRows(t, db, tbl, idx, 0, rows)
	// Drop some index entries so the two counts differ.
	err = db.Update(func(tx *Tx) error {
		for i := 0; i < deleted; i++ {
			if err := idx.Delete(tx, []byte(fmt.Sprintf("k%07d", i))); err != nil {
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
	stats := db.Stats().WAL.Checkpoint
	if stats.LastPages == 0 || stats.RetainedPages != 0 {
		t.Fatalf("checkpoint flushed %d pages and left %d retained, want some and none", stats.LastPages, stats.RetainedPages)
	}
	heapPages, treePages := tbl.heap.Pages(), idx.tree.PageList()

	img := db.Crash()
	recs := durableLog(t, img)
	begin, end, ok := wal.LastCheckpoint(recs)
	if !ok {
		t.Fatal("no complete checkpoint in the durable log")
	}
	if end != stats.LastLSN {
		t.Fatalf("end mark at lsn %d, CheckpointStats.LastLSN = %d", end, stats.LastLSN)
	}
	var kinds []byte
	var size int64
	st := &restored{}
	for _, r := range recs {
		if r.LSN < begin || r.LSN > end {
			continue
		}
		if r.Type != wal.RecCheckpoint {
			t.Fatalf("lsn %d inside the checkpoint is a %s record", r.LSN, r.Type)
		}
		size += int64(wal.RecordSize(r))
		kind, body, err := wal.DecodeCheckpointMark(r.Payload)
		if err != nil {
			t.Fatal(err)
		}
		kinds = append(kinds, kind)
		// Decode with recovery's own reader, on a scratch database.
		switch kind {
		case wal.CkptBegin:
			err = json.Unmarshal(body, &st.head)
		case markTable, markIndex, markPages:
			err = (&DB{}).applyMark(r.Payload, st)
		}
		if err != nil {
			t.Fatal(err)
		}
	}
	// No regions or tablespaces here.
	want := []byte{wal.CkptBegin, markTable, markPages, markIndex, markPages, wal.CkptEnd}
	if !bytes.Equal(kinds, want) {
		t.Fatalf("checkpoint marks: got kinds %v, want %v", kinds, want)
	}
	if size != stats.LastBytes {
		t.Fatalf("checkpoint records encode to %d bytes, CheckpointStats.LastBytes = %d", size, stats.LastBytes)
	}
	heap, tree, head := st.objects[0], st.objects[1], st.head
	if heap.table == nil || heap.table.ObjectID != tbl.meta.ObjectID || heap.Count != rows || fmt.Sprint(heap.pages) != fmt.Sprint(heapPages) {
		t.Fatalf("heap description %+v, want %d rows on pages %v", heap, rows, heapPages)
	}
	if tree.index == nil || tree.index.ObjectID != idx.meta.ObjectID || tree.Count != rows-deleted ||
		tree.Root != idx.tree.Root() || tree.Height != idx.tree.Height() || fmt.Sprint(tree.pages) != fmt.Sprint(treePages) {
		t.Fatalf("tree description %+v, want %d entries under root %d on pages %v", tree, rows-deleted, idx.tree.Root(), treePages)
	}
	// The image is on flash: every listed page has a version at or below the
	// snapshot sequence, and the flush left no data page above it.
	onFlash := map[uint64]bool{}
	for _, blk := range img.dev.Survey() {
		for _, pg := range blk.Pages {
			if pg.Meta.Flags&flash.FlagLog != 0 {
				continue
			}
			if pg.Meta.Seq > head.SnapshotSeq {
				t.Fatalf("data page lpn %d has seq %d above the snapshot sequence %d", pg.Meta.LPN, pg.Meta.Seq, head.SnapshotSeq)
			}
			onFlash[pg.Meta.LPN] = true
		}
	}
	for _, lpn := range append(heapPages, treePages...) {
		if !onFlash[uint64(lpn)] {
			t.Fatalf("listed page lpn %d has no version on flash", lpn)
		}
	}
}

// TestCheckpointBytesAreIndependentOfTableSize: with ten times the rows a
// checkpoint grows by its longer page lists only — less than 1 % of what the
// data grew by, where the rewritten log prefix of old grew with every row.
func TestCheckpointBytesAreIndependentOfTableSize(t *testing.T) {
	const small, rowBytes = 400, 98
	ckptBytes := func(rows int) int64 {
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
		for from := 0; from < rows; from += 200 {
			keyedRows(t, db, tbl, idx, from, from+200)
		}
		if _, err := db.Checkpoint(db.SimulatedTime()); err != nil {
			t.Fatal(err)
		}
		return db.Stats().WAL.Checkpoint.LastBytes
	}
	one, ten := ckptBytes(small), ckptBytes(10*small)
	growth := int64(9 * small * rowBytes)
	t.Logf("checkpoint of %d rows: %d bytes; of %d rows: %d bytes; data grew by %d bytes", small, one, 10*small, ten, growth)
	if ten-one >= growth/100 {
		t.Fatalf("checkpoint grew by %d bytes for %d more bytes of rows: not independent of the table size", ten-one, growth)
	}
}

// TestCrashMidCheckpointFallsBack kills the device at every command a
// checkpoint issues, with and without tearing the page it was programming:
// inside the flush of the dirty pages, at the first log page (between flush and
// force), inside the force, and right behind it (the truncate that follows
// issues no command).  A checkpoint that reported the crash does not exist:
// recovery starts from the previous one, ignores whatever the flush wrote above
// its write sequence and redoes the committed tail.  One that returned is the
// one recovery starts from, with nothing to redo.  Either way every row is
// back; there is no state in between.
func TestCrashMidCheckpointFallsBack(t *testing.T) {
	const base, tail = 400, 120
	for _, tornBytes := range []int{0, 700} {
		for op := int64(1); ; op++ {
			db, err := OpenConfig(smallConfig())
			if err != nil {
				t.Fatal(err)
			}
			// Two dozen empty tables make the schema marks, and with them the
			// force, span several log pages.
			for i := 0; i < 24; i++ {
				if _, err := db.CreateTable(fmt.Sprintf("EMPTY%02d", i), "", nil); err != nil {
					t.Fatal(err)
				}
			}
			tbl, err := db.CreateTable("T", "", nil)
			if err != nil {
				t.Fatal(err)
			}
			idx, err := db.CreateIndex("T_PK", "T", []string{"k"}, true, "")
			if err != nil {
				t.Fatal(err)
			}
			keyedRows(t, db, tbl, idx, 0, base)
			if _, err := db.Checkpoint(db.SimulatedTime()); err != nil {
				t.Fatal(err)
			}
			keyedRows(t, db, tbl, idx, base, base+tail) // dirties heap and index pages

			db.Admin().ArmFaults(FaultPlan{CrashAfterOps: op, TornTailBytes: tornBytes})
			_, ckptErr := db.Checkpoint(db.SimulatedTime())
			if ckptErr != nil && !errors.Is(ckptErr, ErrCrashed) {
				t.Fatalf("op %d: checkpoint under the fault plan: %v", op, ckptErr)
			}
			flushed := db.Stats().WAL.Checkpoint.LastPages
			re, err := Reopen(db.Crash())
			if err != nil {
				t.Fatalf("torn %d, op %d: reopen: %v", tornBytes, op, err)
			}
			rst, _ := re.Recovery()
			switch {
			case !rst.CheckpointFound || rst.AdoptedPages == 0:
				t.Fatalf("op %d: recovery found no checkpoint to adopt: %+v", op, rst)
			case ckptErr != nil && (rst.CommittedTxns != 1 || rst.LoserTxns != 0):
				t.Fatalf("op %d: the checkpoint failed, so the window holds the one tail transaction: %+v", op, rst)
			case ckptErr == nil && rst.ReplayedRecords != 0:
				t.Fatalf("op %d: the checkpoint returned, so the window is empty: %+v", op, rst)
			case rst.ReprogrammedPages > rst.DiscardedVersions:
				t.Fatalf("op %d: %d pages written again for %d discarded versions", op, rst.ReprogrammedPages, rst.DiscardedVersions)
			}
			if err := re.Admin().VerifyIntegrity(); err != nil {
				t.Fatalf("op %d: %v", op, err)
			}
			rtbl, _ := re.Table("T")
			ridx, _ := re.Index("T_PK")
			if rows, entries := rtbl.RowCount(), ridx.Entries(); rows != base+tail || entries != base+tail {
				t.Fatalf("op %d: recovered %d rows and %d entries, want %d of each", op, rows, entries, base+tail)
			}
			err = re.View(func(tx *Tx) error {
				for i := 0; i < base+tail; i++ {
					key := []byte(fmt.Sprintf("k%07d", i))
					rid, found, err := ridx.Lookup(tx, key)
					if err != nil || !found {
						return fmt.Errorf("key %s: found=%v err=%v", key, found, err)
					}
					row, err := rtbl.Get(tx, rid)
					if err != nil || !bytes.HasPrefix(row, key) {
						return fmt.Errorf("key %s addresses row %q (err=%v)", key, row, err)
					}
				}
				return nil
			})
			if err != nil {
				t.Fatalf("op %d: %v", op, err)
			}
			re.Close()
			if ckptErr == nil {
				// The first crash point behind the checkpoint: the ones before
				// it covered the flush and the force.
				t.Logf("torn %d: checkpoint issued %d commands, flushed %d pages", tornBytes, op-1, flushed)
				if op-1 < flushed+3 {
					t.Fatalf("the checkpoint issued %d commands to flush %d pages and force the log: no multi-page force", op-1, flushed)
				}
				break
			}
		}
	}
}

// TestCrashRightAfterDDLCheckpoint crashes with nothing in the log but the
// checkpoint a DDL statement took: the schema marks alone must bring back
// every region (on its dies, with its GC policy), tablespace, table and index
// under its old object id, and fresh ids must continue above them.
func TestCrashRightAfterDDLCheckpoint(t *testing.T) {
	db, err := OpenConfig(smallConfig())
	if err != nil {
		t.Fatal(err)
	}
	err = db.Exec(`
		CREATE REGION rgHot (MAX_CHIPS=2, GC_POLICY=COST_BENEFIT);
		CREATE TABLESPACE tsHot (REGION=rgHot, EXTENT SIZE 16K);
		CREATE TABLE A (a NUMBER(3)) TABLESPACE tsHot;
		CREATE TABLE B (b NUMBER(3));
		CREATE INDEX A_PK ON A (a) TABLESPACE tsHot;
	`)
	if err != nil {
		t.Fatal(err)
	}
	regionDies := func(db *DB) string {
		var out []string
		for _, r := range db.Stats().Space.Regions {
			out = append(out, fmt.Sprintf("%s%v", r.Name, r.Dies))
		}
		sort.Strings(out)
		return fmt.Sprint(out)
	}
	// Region ids are handed out in creation order and not preserved.
	schema := func(db *DB) string {
		s := db.Schema()
		for i := range s.Regions {
			s.Regions[i].ID = 0
		}
		return fmt.Sprintf("%+v", s)
	}
	wantSchema, wantDies := schema(db), regionDies(db)

	re, err := Reopen(db.Crash())
	if err != nil {
		t.Fatal(err)
	}
	defer re.Close()
	if rst, _ := re.Recovery(); !rst.CheckpointFound || rst.ReplayedRecords != 0 {
		t.Fatalf("expected a checkpoint and an empty replay window: %+v", rst)
	}
	if got := schema(re); got != wantSchema {
		t.Fatalf("schema changed across recovery:\n got %s\nwant %s", got, wantSchema)
	}
	if got := regionDies(re); got != wantDies {
		t.Fatalf("regions moved: got %s, want %s", got, wantDies)
	}
	var maxID uint32
	ids := map[uint32]bool{1: true} // the WAL's
	for _, tb := range re.Schema().Tables {
		maxID = max(maxID, tb.ObjectID)
		ids[tb.ObjectID] = true
	}
	for _, ix := range re.Schema().Indexes {
		maxID = max(maxID, ix.ObjectID)
		ids[ix.ObjectID] = true
	}
	if len(ids) != 4 {
		t.Fatalf("object ids of the WAL, A, B and A_PK are not distinct: %v", ids)
	}
	c, err := re.CreateTable("C", "tsHot", nil)
	if err != nil {
		t.Fatal(err)
	}
	if c.ObjectID() <= maxID {
		t.Fatalf("fresh table got object id %d, not above the recovered ids (max %d)", c.ObjectID(), maxID)
	}
}

// TestLoggableSizeIsTheRowLimit pins the row-size limit with the WAL on: the
// largest row a log record carries inserts, updates, checkpoints and survives
// a crash; one byte more is refused before anything is applied — in Insert,
// Update and InsertBatch alike — so no live row can ever make a checkpoint
// (or a later DDL) fail with a record larger than a log page.
func TestLoggableSizeIsTheRowLimit(t *testing.T) {
	db, err := OpenConfig(smallConfig())
	if err != nil {
		t.Fatal(err)
	}
	tbl, err := db.CreateTable("T", "", nil)
	if err != nil {
		t.Fatal(err)
	}
	limit := wal.MaxRow(smallConfig().Flash.Geometry.PageSize)
	big := bytes.Repeat([]byte{'m'}, limit)
	var rid RID
	err = db.Update(func(tx *Tx) error {
		small, err := tbl.Insert(tx, []byte("small"))
		if err != nil {
			return err
		}
		for _, err := range []error{
			func() error { _, err := tbl.Insert(tx, append(big, 'x')); return err }(),
			func() error { _, err := tbl.InsertBatch(tx, [][]byte{big, append(big, 'x')}); return err }(),
			tbl.Update(tx, small, append(big, 'x')),
		} {
			if !errors.Is(err, ErrTooLarge) {
				return fmt.Errorf("oversize row: err=%v, want ErrTooLarge", err)
			}
		}
		if rid, err = tbl.Insert(tx, big); err != nil {
			return err
		}
		big[0] = 'M'
		return tbl.Update(tx, rid, big)
	})
	if err != nil {
		t.Fatal(err)
	}
	if got := tbl.RowCount(); got != 2 {
		t.Fatalf("%d rows after the refused inserts, want 2", got)
	}
	if _, err := db.Checkpoint(db.SimulatedTime()); err != nil {
		t.Fatalf("checkpoint of a max-size row: %v", err)
	}
	if _, err := db.CreateTable("U", "", nil); err != nil {
		t.Fatalf("DDL after a max-size row: %v", err)
	}
	// The same limit holds for the schema marks: a catalog entry no log
	// record carries is refused before the DDL registers it.
	if _, err := db.CreateTable("W", "", make([]Column, 200)); !errors.Is(err, ErrTooLarge) {
		t.Fatalf("200-column table on a 2 KB log page: err=%v, want ErrTooLarge", err)
	}
	if _, ok := db.Table("W"); ok || len(db.Schema().Tables) != 2 {
		t.Fatalf("refused table left traces: %+v", db.Schema().Tables)
	}
	if _, err := db.Checkpoint(db.SimulatedTime()); err != nil {
		t.Fatalf("checkpoint after the refused DDL: %v", err)
	}

	re, err := Reopen(db.Crash())
	if err != nil {
		t.Fatal(err)
	}
	defer re.Close()
	rtbl, _ := re.Table("T")
	found := false
	err = re.View(func(tx *Tx) error {
		for _, row := range rtbl.Rows(tx) {
			found = found || bytes.Equal(row, big)
		}
		return tx.Err()
	})
	if err != nil || !found || rtbl.RowCount() != 2 {
		t.Fatalf("max-size row after recovery: found=%v rows=%d err=%v", found, rtbl.RowCount(), err)
	}
}

// TestFailedCheckpointBacksOff makes every checkpoint fail (a dirty page of a
// second table stays pinned) and checks that the byte trigger waits out a full
// budget before it retries, instead of flushing the pool again after every
// commit.
func TestFailedCheckpointBacksOff(t *testing.T) {
	const budget = 64 << 10
	db, err := OpenConfig(smallConfig(), WithCheckpointEvery(budget))
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
	keyedRows(t, db, tbl, idx, 0, 200)
	pinned, err := db.CreateTable("PINNED", "", nil)
	if err != nil {
		t.Fatal(err)
	}
	wideRows(t, db, pinned, 0, 1, 'p')
	h, _, err := db.pool.Fetch(db.SimulatedTime(), pinned.heap.Pages()[0], core.Hint{ObjectID: pinned.ObjectID()})
	if err != nil {
		t.Fatal(err)
	}
	defer h.Release()
	h.MarkDirty()
	if _, err := db.Checkpoint(db.SimulatedTime()); !errors.Is(err, ErrConflict) {
		t.Fatalf("checkpoint over a pinned dirty page: %v", err)
	}
	mark := db.ckptWALMark
	// 40 one-row commits append ~10 KB of their own: well inside one budget,
	// so no automatic checkpoint may start.
	before := db.Stats().WAL
	for i := 200; i < 240; i++ {
		keyedRows(t, db, tbl, idx, i, i+1)
	}
	after := db.Stats().WAL
	if after.Checkpoint.Count != before.Checkpoint.Count {
		t.Fatalf("a checkpoint succeeded (%d -> %d)", before.Checkpoint.Count, after.Checkpoint.Count)
	}
	if got := after.Appended - before.Appended; got != 40*4 {
		t.Fatalf("40 one-row commits appended %d records, want %d: the failed checkpoint was retried inside its budget", got, 40*4)
	}
	if db.ckptWALMark != mark {
		t.Fatalf("byte trigger moved from %d to %d: the failed checkpoint was retried inside its budget", mark, db.ckptWALMark)
	}
}

// TestCheckpointTracesOnlyItsMarks checks what a checkpoint leaves in the
// trace ring: one wal_append per mark and descriptor, whatever the number of
// rows, so the ring keeps the host and GC events it is there for.
func TestCheckpointTracesOnlyItsMarks(t *testing.T) {
	db, err := OpenConfig(smallConfig(), WithTraceBuffer(1<<16))
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
	const rows = 500
	keyedRows(t, db, tbl, idx, 0, rows)
	appends := func() int {
		var dump bytes.Buffer
		if _, err := db.Admin().TraceDump(&dump); err != nil {
			t.Fatal(err)
		}
		return bytes.Count(dump.Bytes(), []byte(`"wal_append"`))
	}
	before := appends()
	if before < 2*rows {
		t.Fatalf("only %d wal_append events for %d logged rows and entries", before, 2*rows)
	}
	if _, err := db.Checkpoint(db.SimulatedTime()); err != nil {
		t.Fatal(err)
	}
	// Begin, table, its pages, index, its pages, end.
	if got := appends() - before; got != 6 {
		t.Fatalf("checkpoint of %d rows traced %d wal_append events, want its 6 marks", rows, got)
	}
}

// TestDeletedSlotReusedAfterReopen sends a heap page holding deleted slots to
// flash with a checkpoint and brings it back through Crash and Reopen: the
// page keeps its header flags with its slots, so the next insert still takes
// its lowest deleted slot rather than appending one.
func TestDeletedSlotReusedAfterReopen(t *testing.T) {
	db, err := OpenConfig(smallConfig())
	if err != nil {
		t.Fatal(err)
	}
	ledgerWorkload(t, db, "T", 6)
	tbl, _ := db.Table("T")
	var rids []RID
	err = db.Update(func(tx *Tx) error {
		for rid := range tbl.Rows(tx) {
			rids = append(rids, rid)
		}
		for _, i := range []int{4, 1} {
			if err := tbl.Delete(tx, rids[i]); err != nil {
				return err
			}
		}
		return tx.Err()
	})
	if err != nil {
		t.Fatal(err)
	}
	if rids[0].LPN != rids[5].LPN {
		t.Fatalf("the rows span pages: %v", rids)
	}
	if _, err := db.Checkpoint(db.SimulatedTime()); err != nil {
		t.Fatal(err)
	}

	re, err := Reopen(db.Crash())
	if err != nil {
		t.Fatal(err)
	}
	defer re.Close()
	if rst, _ := re.Recovery(); rst.ReplayedRecords != 0 {
		t.Fatalf("the page was rebuilt by replay, not read from flash: %+v", rst)
	}
	tbl, _ = re.Table("T")
	for _, want := range []RID{rids[1], rids[4]} {
		var got RID
		err := re.Update(func(tx *Tx) (err error) {
			got, err = tbl.Insert(tx, []byte("again"))
			return err
		})
		if err != nil || got != want {
			t.Fatalf("insert after reopen took %v (%v), want the deleted slot %v", got, err, want)
		}
	}
}
