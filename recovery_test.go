package noftl

import (
	"bytes"
	"errors"
	"fmt"
	"testing"

	"noftl/internal/flash"
	"noftl/internal/storage"
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
