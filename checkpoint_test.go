package noftl

import (
	"bytes"
	"errors"
	"fmt"
	"strings"
	"testing"
)

// wideRows commits rows [from, to) of 900 bytes — two to a 2 KB page — each
// starting with its 8-byte key and filled with fill, and returns their RIDs.
func wideRows(t *testing.T, db *DB, tbl *Table, from, to int, fill byte) []RID {
	t.Helper()
	rows := make([][]byte, 0, to-from)
	for i := from; i < to; i++ {
		rows = append(rows, append([]byte(fmt.Sprintf("k%07d", i)), bytes.Repeat([]byte{fill}, 892)...))
	}
	var rids []RID
	err := db.Update(func(tx *Tx) error {
		var err error
		rids, err = tbl.InsertBatch(tx, rows)
		return err
	})
	if err != nil {
		t.Fatal(err)
	}
	return rids
}

// expectRows checks that the table holds exactly rows [0, n), each filled
// with fill.
func expectRows(t *testing.T, db *DB, name string, n int, fill byte) {
	t.Helper()
	tbl, ok := db.Table(name)
	if !ok {
		t.Fatalf("table %s is gone", name)
	}
	seen := make(map[string]bool)
	err := db.View(func(tx *Tx) error {
		for _, row := range tbl.Rows(tx) {
			if len(row) != 900 || !bytes.Equal(row[8:], bytes.Repeat([]byte{fill}, 892)) {
				return fmt.Errorf("row %q… is not filled with %q", row[:8], fill)
			}
			seen[string(row[:8])] = true
		}
		return tx.Err()
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(seen) != n || tbl.RowCount() != int64(n) {
		t.Fatalf("table %s holds %d distinct rows (RowCount %d), want %d", name, len(seen), tbl.RowCount(), n)
	}
}

// TestCheckpointRefusesAPinnedDirtyPage: the flushed pages are the checkpoint,
// so a dirty page the flush had to skip because someone holds a handle on it
// fails the checkpoint before it writes a mark — where the old FlushAll skipped
// it silently.  The triggers back off as after any failed checkpoint, and once
// the handle is released the next checkpoint succeeds and is recoverable.
func TestCheckpointRefusesAPinnedDirtyPage(t *testing.T) {
	db, err := OpenConfig(smallConfig())
	if err != nil {
		t.Fatal(err)
	}
	tbl, err := db.CreateTable("T", "", nil)
	if err != nil {
		t.Fatal(err)
	}
	wideRows(t, db, tbl, 0, 20, 'a')
	ts, _ := db.tablespace("")
	h, _, err := db.pool.Fetch(db.SimulatedTime(), tbl.heap.Pages()[0], ts.Hint(tbl.meta.ObjectID, 0))
	if err != nil {
		t.Fatal(err)
	}
	h.MarkDirty()

	before := db.Stats().WAL
	_, err = db.Checkpoint(db.SimulatedTime())
	if !errors.Is(err, ErrConflict) || !strings.Contains(err.Error(), "pinned") {
		t.Fatalf("checkpoint over a pinned dirty page: err=%v, want ErrConflict naming the pinned page", err)
	}
	after := db.Stats().WAL
	if after.Checkpoint.Count != before.Checkpoint.Count || after.Appended != before.Appended {
		t.Fatalf("the refused checkpoint counted (%d -> %d) or appended marks (%d -> %d records)",
			before.Checkpoint.Count, after.Checkpoint.Count, before.Appended, after.Appended)
	}
	if db.ckptWALMark != after.BytesAppended {
		t.Fatalf("byte trigger at %d after the failure, want it restarted at %d", db.ckptWALMark, after.BytesAppended)
	}

	h.Release()
	if _, err := db.Checkpoint(db.SimulatedTime()); err != nil {
		t.Fatalf("checkpoint after the release: %v", err)
	}
	if got := db.Stats().WAL.Checkpoint; got.Count != before.Checkpoint.Count+1 || got.LastPages == 0 {
		t.Fatalf("checkpoint after the release: %+v", got)
	}
	re, err := Reopen(db.Crash())
	if err != nil {
		t.Fatal(err)
	}
	defer re.Close()
	expectRows(t, re, "T", 20, 'a')
}

// stolenPages builds the state the steal tests start from: table T with 120
// checkpointed rows on 60 pages behind a 16-frame pool, an open transaction
// that has rewritten every row — so most of its pages were evicted to flash
// uncommitted — and a committed row in table U whose log force made the open
// transaction's records durable too.
func stolenPages(t *testing.T) (*DB, *Tx) {
	t.Helper()
	cfg := smallConfig()
	cfg.BufferPoolPages = 16
	db, err := OpenConfig(cfg)
	if err != nil {
		t.Fatal(err)
	}
	tbl, err := db.CreateTable("T", "", nil)
	if err != nil {
		t.Fatal(err)
	}
	other, err := db.CreateTable("U", "", nil)
	if err != nil {
		t.Fatal(err)
	}
	rids := wideRows(t, db, tbl, 0, 120, 'a')
	if _, err := db.Checkpoint(db.SimulatedTime()); err != nil {
		t.Fatal(err)
	}
	programs := db.Stats().Device.Programs
	loser := db.Begin()
	for i, rid := range rids {
		row := append([]byte(fmt.Sprintf("k%07d", i)), bytes.Repeat([]byte{'Z'}, 892)...)
		if err := tbl.Update(loser, rid, row); err != nil {
			t.Fatal(err)
		}
	}
	st := db.Stats()
	if stolen := st.Device.Programs - programs; stolen < 40 || st.WAL.Checkpoint.RetainedPages != stolen {
		t.Fatalf("%d uncommitted pages reached flash and %d versions are retained; want at least 40, one for one",
			stolen, st.WAL.Checkpoint.RetainedPages)
	}
	wideRows(t, db, other, 0, 1, 'u')
	return db, loser
}

// TestStealIsInvisibleAfterCrash: a transaction dirties more pages than the
// pool holds, the evictions write its changes to flash, and the device dies
// before it commits.  No undo log exists and none is needed: recovery maps the
// retained versions of the checkpoint, the stolen pages are garbage, and the
// pre-transaction rows are all there is.
func TestStealIsInvisibleAfterCrash(t *testing.T) {
	db, _ := stolenPages(t)
	re, err := Reopen(db.Crash())
	if err != nil {
		t.Fatal(err)
	}
	defer re.Close()
	rst, _ := re.Recovery()
	if rst.LoserTxns != 1 || rst.CommittedTxns != 1 {
		t.Fatalf("replay window: %d losers, %d committed; want the open transaction and the row in U", rst.LoserTxns, rst.CommittedTxns)
	}
	if rst.AdoptedPages < 60 || rst.DiscardedVersions < 40 || rst.ReprogrammedPages < 40 || rst.ReprogrammedPages > rst.DiscardedVersions {
		t.Fatalf("recovery adopted %d pages, discarded %d versions and wrote %d pages again", rst.AdoptedPages, rst.DiscardedVersions, rst.ReprogrammedPages)
	}
	expectRows(t, re, "T", 120, 'a')
	expectRows(t, re, "U", 1, 'u')
	if err := re.Admin().VerifyIntegrity(); err != nil {
		t.Fatal(err)
	}
	if got := re.Stats().WAL.Checkpoint.RetainedPages; got != 0 {
		t.Fatalf("%d versions still retained after recovery's own checkpoint", got)
	}
}

// TestSecondCrashWithALingeringGarbageVersion: the stolen pages of the first
// crash are still on flash when the recovered database checkpoints, and that
// checkpoint's write sequence lies above theirs.  Redo never touched them, so
// unless recovery had written the adopted version of each such page once more,
// a second crash would make the loser's page the newest at or below the
// checkpoint — committed contents gone.
func TestSecondCrashWithALingeringGarbageVersion(t *testing.T) {
	db, _ := stolenPages(t)
	first, err := Reopen(db.Crash())
	if err != nil {
		t.Fatal(err)
	}
	if _, err := first.Checkpoint(first.SimulatedTime()); err != nil {
		t.Fatal(err)
	}
	second, err := Reopen(first.Crash())
	if err != nil {
		t.Fatal(err)
	}
	defer second.Close()
	if rst, _ := second.Recovery(); rst.DiscardedVersions != 0 || rst.ReprogrammedPages != 0 {
		t.Fatalf("second recovery discarded %d versions and rewrote %d pages; the first left nothing above its checkpoint", rst.DiscardedVersions, rst.ReprogrammedPages)
	}
	expectRows(t, second, "T", 120, 'a')
	expectRows(t, second, "U", 1, 'u')
	if err := second.Admin().VerifyIntegrity(); err != nil {
		t.Fatal(err)
	}
}

// TestCrashAtEveryCommandOfRecovery: recovery writes — the adopted pages with a
// discarded newer version, redo's evictions, its own checkpoint — and a second
// crash can hit any of those commands.  Everything it writes lies above the
// write sequence of the checkpoint it recovers to, the versions it overwrites
// are retained, and the old log stays mapped until the new checkpoint is
// durable: the next recovery finds what this one found.  The one exception is
// the wal's to make (TestScanImagesHoleRule, "new life lost the first page of
// its first force"): a torn first page of the new log run is refused.
func TestCrashAtEveryCommandOfRecovery(t *testing.T) {
	commands := int64(0) // of a recovery, counted by the first pass
	for _, tornBytes := range []int{0, 700} {
		for op := int64(1); commands == 0 || op <= commands; op++ {
			if tornBytes > 0 && op%4 != 0 && op < commands-1 {
				continue // tearing the page changes nothing for most commands: sample
			}
			db, _ := stolenPages(t)
			img := db.Crash()
			_, err := Reopen(img, WithFaultPlan(FaultPlan{Seed: 3, CrashAfterOps: op, TornTailBytes: tornBytes}))
			if err == nil {
				commands = op - 1
				break
			}
			if !errors.Is(err, ErrCrashed) {
				t.Fatalf("torn %d, command %d: the crashed recovery: %v", tornBytes, op, err)
			}
			re, err := Reopen(img)
			if tornBytes > 0 && op == commands && errors.Is(err, ErrCorruptLog) {
				continue // the force of recovery's checkpoint, torn
			}
			if err != nil {
				t.Fatalf("torn %d, command %d: recovery after the crashed recovery: %v", tornBytes, op, err)
			}
			expectRows(t, re, "T", 120, 'a')
			expectRows(t, re, "U", 1, 'u')
			if err := re.Admin().VerifyIntegrity(); err != nil {
				t.Fatalf("torn %d, command %d: %v", tornBytes, op, err)
			}
			re.Close()
		}
	}
	if commands < 100 {
		t.Fatalf("a recovery issued %d commands: it no longer rewrites, redoes and checkpoints", commands)
	}
}

// TestCrashBetweenDropTableAndItsCheckpoint: DROP TABLE trims the table's
// pages and only then takes the checkpoint that makes the drop durable.  A
// crash in between must not have destroyed anything: the trims retained what
// the last checkpoint needs, and the table — with its index — is back.
func TestCrashBetweenDropTableAndItsCheckpoint(t *testing.T) {
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
	keyedRows(t, db, tbl, idx, 0, 300)
	if _, err := db.Checkpoint(db.SimulatedTime()); err != nil {
		t.Fatal(err)
	}
	valid := db.Stats().Space.ValidPages
	// The drop's checkpoint has nothing to flush: its first device command is
	// the log force, and that is where the device dies.
	db.Admin().ArmFaults(FaultPlan{Seed: 1, CrashAfterOps: 1})
	if err := db.DropTable("T"); !errors.Is(err, ErrCrashed) {
		t.Fatalf("drop under the fault plan: err=%v, want ErrCrashed", err)
	}
	st := db.Stats()
	if st.Space.ValidPages >= valid || st.WAL.Checkpoint.RetainedPages == 0 {
		t.Fatalf("the drop trimmed nothing before its checkpoint: %d -> %d valid pages, %d retained",
			valid, st.Space.ValidPages, st.WAL.Checkpoint.RetainedPages)
	}

	re, err := Reopen(db.Crash())
	if err != nil {
		t.Fatal(err)
	}
	defer re.Close()
	rtbl, ok1 := re.Table("T")
	ridx, ok2 := re.Index("T_PK")
	if !ok1 || !ok2 || rtbl.RowCount() != 300 || ridx.Entries() != 300 {
		t.Fatalf("table and index after the crashed drop: found %v/%v", ok1, ok2)
	}
	err = re.View(func(tx *Tx) error {
		for i := 0; i < 300; i++ {
			key := []byte(fmt.Sprintf("k%07d", i))
			rid, found, err := ridx.Lookup(tx, key)
			if err != nil || !found {
				return fmt.Errorf("key %s: found=%v err=%v", key, found, err)
			}
			if row, err := rtbl.Get(tx, rid); err != nil || !bytes.HasPrefix(row, key) {
				return fmt.Errorf("key %s addresses row %q (err=%v)", key, row, err)
			}
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := re.Admin().VerifyIntegrity(); err != nil {
		t.Fatal(err)
	}
}

// TestRetainedPagesStayBoundedWithoutCheckpoints: a device 70 % full whose
// every page is overwritten, twice over, by a caller that never checkpoints and
// set no WithCheckpointEvery.  The retained versions alone would fill the
// spare blocks; the engine takes a checkpoint whenever they exceed half of the
// over-provisioned spare, so no write fails, the count stays within that
// budget plus what one transaction supersedes, and the invariants hold
// throughout.
func TestRetainedPagesStayBoundedWithoutCheckpoints(t *testing.T) {
	db, err := OpenConfig(smallConfig())
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()
	tbl, err := db.CreateTable("T", "", nil)
	if err != nil {
		t.Fatal(err)
	}
	geo, region := db.Geometry(), db.Stats().Space.Regions[0]
	raw := int64(geo.Dies() * geo.BlocksPerDie * geo.PagesPerBlock)
	budget := (raw - region.CapacityPages) / 2
	pages := int(region.CapacityPages * 7 / 10)
	var rids []RID
	for from := 0; from < 2*pages; from += 400 {
		rids = append(rids, wideRows(t, db, tbl, from, min(from+400, 2*pages), 'a')...)
		// The load checkpoints, or its row images would fill the device as log.
		if _, err := db.Checkpoint(db.SimulatedTime()); err != nil {
			t.Fatal(err)
		}
	}
	if valid := db.Stats().Space.ValidPages; valid < int64(pages) {
		t.Fatalf("%d valid pages after the load, want at least %d (70 %% of %d)", valid, pages, region.CapacityPages)
	}
	checkpoints := db.Stats().WAL.Checkpoint.Count

	const perTxn = 100 // rows, on 50 pages
	var worst int64
	for pass := 0; pass < 2; pass++ {
		for from := 0; from < len(rids); from += perTxn {
			err := db.Update(func(tx *Tx) error {
				for i := from; i < min(from+perTxn, len(rids)); i++ {
					row := append([]byte(fmt.Sprintf("k%07d", i)), bytes.Repeat([]byte{'b' + byte(pass)}, 892)...)
					if err := tbl.Update(tx, rids[i], row); err != nil {
						return err
					}
				}
				return nil
			})
			if err != nil {
				t.Fatalf("pass %d, rows from %d: %v", pass, from, err)
			}
			retained := db.Stats().WAL.Checkpoint.RetainedPages
			worst = max(worst, retained)
			if retained > budget+perTxn {
				t.Fatalf("pass %d, rows from %d: %d pages retained, budget %d", pass, from, retained, budget)
			}
			if from%(40*perTxn) == 0 {
				if err := db.Admin().VerifyIntegrity(); err != nil {
					t.Fatalf("pass %d, rows from %d: %v", pass, from, err)
				}
			}
		}
	}
	taken := db.Stats().WAL.Checkpoint.Count - checkpoints
	t.Logf("%d pages overwritten twice: %d checkpoints taken, at most %d pages retained (budget %d)", len(rids)/2, taken, worst, budget)
	if taken == 0 || worst <= budget/2 {
		t.Fatalf("%d checkpoints, at most %d pages retained: the retention trigger never fired", taken, worst)
	}
	expectRows(t, db, "T", len(rids), 'c')
	if err := db.Admin().VerifyIntegrity(); err != nil {
		t.Fatal(err)
	}
}
