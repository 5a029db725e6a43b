package noftl

import (
	"bytes"
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"noftl/internal/metrics"
	"noftl/internal/txn"
)

// TestKeptTxAndRowsOutliveLaterTransactions keeps the first transaction's
// handle and the row, rows and keys its Get, GetBatch and Range handed out,
// with the slices of its two batch reads, then runs 256 more transactions on
// four goroutines at once: four chunks of handles, and reads and inserts
// enough to move the database's slab on to new chunks.  The kept handle still
// reports its own transaction, every kept row, key and batch still reads its
// bytes, and appending to one leaves the next one alone: nothing a
// transaction was handed is reused for another.
func TestKeptTxAndRowsOutliveLaterTransactions(t *testing.T) {
	db, err := OpenConfig(smallConfig())
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()
	if err := db.Exec("CREATE TABLE K (v VARCHAR(64)); CREATE INDEX K_V ON K (v)"); err != nil {
		t.Fatal(err)
	}
	tbl, _ := db.Table("K")
	idx, _ := db.Index("K_V")
	row := func(i int) []byte {
		return []byte(fmt.Sprintf("row-%04d-%s", i, bytes.Repeat([]byte{'a' + byte(i%26)}, 40)))
	}
	const loaded = 64
	rids := make([]RID, loaded)
	if err := db.Update(func(tx *Tx) error {
		for i := range rids {
			if rids[i], err = tbl.Insert(tx, row(i)); err != nil {
				return err
			}
			if err := idx.Insert(tx, Key(uint32(i)), rids[i]); err != nil {
				return err
			}
		}
		return nil
	}); err != nil {
		t.Fatal(err)
	}

	first := db.Begin()
	id := first.ID()
	got, err := tbl.Get(first, rids[0])
	if err != nil {
		t.Fatal(err)
	}
	kept := [][]byte{got}
	want := [][]byte{row(0)}
	batch, err := tbl.GetBatch(first, rids[1:9])
	if err != nil {
		t.Fatal(err)
	}
	for i, r := range batch {
		kept, want = append(kept, r), append(want, row(1+i))
	}
	next, err := tbl.GetBatch(first, rids[9:10]) // cut right after batch
	if err != nil {
		t.Fatal(err)
	}
	for k := range idx.Range(first, Key(10), Key(18)) {
		kept = append(kept, k)
	}
	for i := 10; i < 18; i++ {
		want = append(want, Key(uint32(i)))
	}
	if len(kept) != 17 || first.Err() != nil {
		t.Fatalf("the first transaction read %d rows and keys (err %v), want 17", len(kept), first.Err())
	}
	if _, err := first.Commit(); err != nil {
		t.Fatal(err)
	}
	rt := first.ResponseTime()

	const goroutines, each = 4, 64
	var wg sync.WaitGroup
	for g := range goroutines {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range each {
				tx := db.Begin()
				me := tx.ID()
				n := 0
				for k, rid := range idx.Range(tx, Key(uint32(i%loaded)), Key(uint32(i%loaded+4))) {
					r, err := tbl.Get(tx, rid)
					if err != nil || !bytes.Equal(k, Key(uint32(i%loaded+n))) || !bytes.Equal(r, row(i%loaded+n)) {
						t.Errorf("goroutine %d: entry %d of its range: %x -> %q (%v)", g, n, k, r, err)
					}
					n++
				}
				if _, err := tbl.GetBatch(tx, rids[i%loaded:min(i%loaded+8, loaded)]); err != nil {
					t.Error(err)
				}
				if _, err := tbl.Insert(tx, row(loaded+g*each+i)); err != nil {
					t.Error(err)
				}
				if _, err := tx.Commit(); err != nil || tx.ID() != me {
					t.Errorf("goroutine %d: transaction %d committed as %d: %v", g, me, tx.ID(), err)
				}
			}
		}()
	}
	wg.Wait()

	if first.ID() != id || first.ResponseTime() != rt {
		t.Errorf("the kept handle reports transaction %d after %v, want %d after %v", first.ID(), first.ResponseTime(), id, rt)
	}
	if _, err := first.Commit(); !errors.Is(err, txn.ErrTxnDone) {
		t.Errorf("committing the kept handle again: %v, want ErrTxnDone", err)
	}
	for i := range kept {
		if !bytes.Equal(kept[i], want[i]) {
			t.Errorf("kept slice %d reads %q, want %q", i, kept[i], want[i])
		}
	}
	for i := range kept[:len(kept)-1] {
		_ = append(kept[i], "appended"...)
		if !bytes.Equal(kept[i+1], want[i+1]) {
			t.Errorf("appending to kept slice %d changed the next one to %q", i, kept[i+1])
		}
	}
	for i, r := range batch {
		if !bytes.Equal(r, row(1+i)) {
			t.Errorf("kept batch row %d reads %q, want %q", i, r, row(1+i))
		}
	}
	_ = append(batch, []byte("appended"))
	if len(next) != 1 || !bytes.Equal(next[0], row(9)) {
		t.Errorf("appending to the kept batch changed the next batch to %q", next)
	}
}

// TestConcurrentBatchDML drives InsertBatch, GetBatch and the Rows iterator
// from many goroutines against one database, while one more rewrites
// committed rows in place at the same length.  It is primarily a -race test
// of the one rule that keeps the layers consistent, one operation at a time;
// the assertions check that nothing inserted is lost or corrupted along the
// way, and that every row a GetBatch returns is a value written for its rid.
func TestConcurrentBatchDML(t *testing.T) {
	db, err := Open(WithBufferPoolPages(256))
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()
	if err := db.Exec("CREATE TABLE C (v VARCHAR(64))"); err != nil {
		t.Fatal(err)
	}
	tbl, _ := db.Table("C")

	const (
		writers  = 8
		rounds   = 6
		perRound = 40
	)
	var (
		mu       sync.Mutex
		rids     []RID
		rows     [][]byte
		writerWG sync.WaitGroup
		done     atomic.Bool
	)
	// A row is a 12-byte name and 32 bytes of one letter: 'x' when inserted,
	// another when rewritten.
	committed := make(chan struct{}) // closed once some rows are committed
	var once sync.Once
	firstCommit := func() { once.Do(func() { close(committed) }) }
	row := func(w, r, i int) []byte {
		return []byte(fmt.Sprintf("w%02d-r%02d-i%03d%s", w, r, i, bytes.Repeat([]byte{'x'}, 32)))
	}
	written := func(want, got []byte) bool {
		pad := got[min(12, len(got)):]
		return len(got) == len(want) && bytes.Equal(got[:12], want[:12]) &&
			pad[0] >= 'a' && pad[0] <= 'z' && bytes.Count(pad, pad[:1]) == len(pad)
	}

	for w := 0; w < writers; w++ {
		writerWG.Add(1)
		go func(w int) {
			defer writerWG.Done()
			for r := 0; r < rounds; r++ {
				batch := make([][]byte, perRound)
				for i := range batch {
					batch[i] = row(w, r, i)
				}
				var got []RID
				if err := db.Update(func(tx *Tx) error {
					var err error
					got, err = tbl.InsertBatch(tx, batch)
					return err
				}); err != nil {
					t.Errorf("writer %d round %d: %v", w, r, err)
					return
				}
				mu.Lock()
				rids = append(rids, got...)
				rows = append(rows, batch...)
				mu.Unlock()
				firstCommit()
			}
		}(w)
	}

	// Readers run GetBatch over everything committed so far and iterate the
	// table while the writers are still inserting.  No row is deleted, so
	// every already-published rid must stay readable, every row GetBatch
	// returns must be a value written for its rid and every row seen by the
	// iterator must be well-formed.
	var readerWG sync.WaitGroup
	for g := 0; g < 4; g++ {
		readerWG.Add(1)
		go func() {
			defer readerWG.Done()
			for !done.Load() {
				mu.Lock()
				snapshot := append([]RID(nil), rids...)
				want := append([][]byte(nil), rows...)
				mu.Unlock()
				if err := db.View(func(tx *Tx) error {
					if len(snapshot) > 0 {
						got, err := tbl.GetBatch(tx, snapshot)
						if err != nil {
							return err
						}
						for i, r := range got {
							if !written(want[i], r) {
								return fmt.Errorf("rid %v: got %q, written %q", snapshot[i], r, want[i])
							}
						}
					}
					seen := 0
					for _, r := range tbl.Rows(tx) {
						if len(r) == 0 || r[0] != 'w' {
							return fmt.Errorf("iterator: malformed row %q", r)
						}
						seen++
					}
					if seen < len(snapshot) {
						return fmt.Errorf("iterator saw %d rows, %d already committed", seen, len(snapshot))
					}
					return nil
				}); err != nil {
					t.Errorf("reader: %v", err)
					return
				}
			}
		}()
	}

	// The rewriter overwrites 16 committed rows per transaction with a new
	// letter of padding, and publishes a value once its transaction commits.
	// It starts once some rows are committed, runs at least 200 transactions,
	// and the readers read until it stops.
	var inserted atomic.Bool
	rewriter := make(chan struct{})
	go func() {
		defer close(rewriter)
		<-committed
		for gen := 0; gen < 200 || !inserted.Load(); gen++ {
			mu.Lock()
			n := len(rids)
			mu.Unlock()
			if n == 0 { // every writer failed
				return
			}
			ks := make([]int, 16)
			vals := make([][]byte, 16)
			if err := db.Update(func(tx *Tx) error {
				for j := range ks {
					ks[j] = (gen*7919 + j*104729) % n
					mu.Lock()
					rid, old := rids[ks[j]], rows[ks[j]]
					mu.Unlock()
					vals[j] = append(bytes.Clone(old[:12]), bytes.Repeat([]byte{byte('a' + gen%26)}, 32)...)
					if err := tbl.Update(tx, rid, vals[j]); err != nil {
						return err
					}
				}
				return nil
			}); err != nil {
				t.Errorf("rewriter: %v", err)
				return
			}
			mu.Lock()
			for j, k := range ks {
				rows[k] = vals[j]
			}
			mu.Unlock()
		}
	}()

	writerWG.Wait()
	firstCommit()
	inserted.Store(true)
	<-rewriter
	done.Store(true)
	readerWG.Wait()
	if t.Failed() {
		return
	}

	const total = writers * rounds * perRound
	if got := tbl.RowCount(); got != total {
		t.Fatalf("RowCount = %d, want %d", got, total)
	}
	if err := db.View(func(tx *Tx) error {
		got, err := tbl.GetBatch(tx, rids)
		if err != nil {
			return err
		}
		for i := range got {
			if !bytes.Equal(got[i], rows[i]) {
				return fmt.Errorf("rid %v: got %q, want %q", rids[i], got[i], rows[i])
			}
		}
		return nil
	}); err != nil {
		t.Fatal(err)
	}
}

// TestScrapesDuringBatchDML: every layer counts in plain fields that only the
// operation holding the baton touches, so a goroutine that loops over Stats,
// MetricsText and ResetStatistics races with nothing while four others insert,
// update and checkpoint (a -race test).  Afterwards the two views still agree.
func TestScrapesDuringBatchDML(t *testing.T) {
	db, err := Open(WithBufferPoolPages(64), WithTraceBuffer(1<<10))
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()
	if err := db.Exec("CREATE TABLE S (v VARCHAR(64))"); err != nil {
		t.Fatal(err)
	}
	tbl, _ := db.Table("S")

	var workers, scraper sync.WaitGroup
	for w := 0; w < 4; w++ {
		workers.Add(1)
		go func(w int) {
			defer workers.Done()
			for r := 0; r < 6; r++ {
				batch := make([][]byte, 40)
				for i := range batch {
					batch[i] = []byte(fmt.Sprintf("w%d-r%d-i%02d%s", w, r, i, bytes.Repeat([]byte{'x'}, 32)))
				}
				err := db.Update(func(tx *Tx) error {
					rids, err := tbl.InsertBatch(tx, batch)
					for i := 0; err == nil && i < len(rids); i += 4 {
						err = tbl.Update(tx, rids[i], bytes.ToUpper(batch[i]))
					}
					return err
				})
				if err == nil {
					_, err = db.Checkpoint(db.SimulatedTime())
				}
				if err != nil {
					t.Errorf("worker %d round %d: %v", w, r, err)
					return
				}
			}
		}(w)
	}
	done := make(chan struct{})
	scraper.Add(1)
	go func() {
		defer scraper.Done()
		for {
			_ = db.Stats()
			if lint := metrics.LintExposition([]byte(db.MetricsText())); !lint.Valid() {
				t.Errorf("exposition invalid: %v", lint.Problems)
			}
			db.ResetStatistics()
			select {
			case <-done:
				return
			default:
			}
		}
	}()
	workers.Wait()
	close(done)
	scraper.Wait()
	checkStatsEqualMetrics(t, db, "after the workers")
}

// TestConcurrentUpdateLockConflict exercises the documented retry idiom:
// goroutines contending for the same exclusive lock either serialize or lose
// the wait as deadlock victims surfacing as ErrConflict, and retrying always
// converges.
func TestConcurrentUpdateLockConflict(t *testing.T) {
	db, err := Open(WithLockTimeout(50 * time.Millisecond))
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()
	if err := db.Exec("CREATE TABLE K (v VARCHAR(16))"); err != nil {
		t.Fatal(err)
	}
	tbl, _ := db.Table("K")
	var rid RID
	if err := db.Update(func(tx *Tx) error {
		var err error
		rid, err = tbl.Insert(tx, []byte("0"))
		return err
	}); err != nil {
		t.Fatal(err)
	}

	const workers = 8
	const increments = 20
	var conflicts atomic.Int64
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < increments; i++ {
				for {
					err := db.Update(func(tx *Tx) error {
						if err := tx.Lock("K/counter", Exclusive); err != nil {
							return err
						}
						row, err := tbl.Get(tx, rid)
						if err != nil {
							return err
						}
						var n int
						fmt.Sscanf(string(row), "%d", &n)
						return tbl.Update(tx, rid, []byte(fmt.Sprintf("%d", n+1)))
					})
					if err == nil {
						break
					}
					if !errors.Is(err, ErrConflict) {
						t.Errorf("unexpected error: %v", err)
						return
					}
					conflicts.Add(1)
				}
			}
		}()
	}
	wg.Wait()
	if t.Failed() {
		return
	}

	if err := db.View(func(tx *Tx) error {
		row, err := tbl.Get(tx, rid)
		if err != nil {
			return err
		}
		var n int
		fmt.Sscanf(string(row), "%d", &n)
		if n != workers*increments {
			return fmt.Errorf("counter = %d, want %d (lost updates; %d conflicts retried)",
				n, workers*increments, conflicts.Load())
		}
		return nil
	}); err != nil {
		t.Fatal(err)
	}
}

// TestConcurrentDDLOneWinnerPerName races the same CREATE statements from
// several goroutines while others read the schema: checking a name and taking
// it is one critical section, so each name is created exactly once, every loser
// sees ErrConflict, and a worker whose statements have returned sees all four
// objects.
func TestConcurrentDDLOneWinnerPerName(t *testing.T) {
	db, err := OpenConfig(smallConfig())
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()
	const workers = 8
	var created, conflicts atomic.Int64
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for _, stmt := range []string{
				"CREATE REGION rg (MAX_CHIPS=1)", "CREATE TABLESPACE ts (REGION=rg)",
				"CREATE TABLE T (k NUMBER(3)) TABLESPACE ts", "CREATE INDEX T_PK ON T (k)",
			} {
				switch err := db.Exec(stmt); {
				case err == nil:
					created.Add(1)
				case errors.Is(err, ErrConflict):
					conflicts.Add(1)
				default:
					t.Errorf("%s: %v", stmt, err)
				}
			}
			s := db.Schema()
			if len(s.Regions) != 1 || len(s.Tablespaces) != 2 || len(s.Tables) != 1 || len(s.Indexes) != 1 {
				t.Errorf("schema after this worker's four statements: %+v", s)
			}
		}()
	}
	wg.Wait()
	if created.Load() != 4 || conflicts.Load() != 4*(workers-1) {
		t.Fatalf("%d statements created an object and %d were refused, want 4 and %d", created.Load(), conflicts.Load(), 4*(workers-1))
	}
	if _, err := db.Checkpoint(db.SimulatedTime()); err != nil {
		t.Fatal(err)
	}
}

// scanFixture opens a database with table T of 200 keyed rows and its unique
// index T_PK.
func scanFixture(t *testing.T, opts ...Option) (*DB, *Table, *Index) {
	t.Helper()
	cfg := smallConfig()
	cfg.BufferPoolPages = 256
	db, err := OpenConfig(cfg, opts...)
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
	keyedRows(t, db, tbl, idx, 0, 200)
	return db, tbl, idx
}

// TestScanBodyReadsThroughItsTx: a scan and its loop body are one operation,
// so the body's reads through the scanning transaction, of the index being
// scanned included, re-enter it instead of waiting for it.
func TestScanBodyReadsThroughItsTx(t *testing.T) {
	db, tbl, idx := scanFixture(t)
	n := 0
	if err := db.View(func(tx *Tx) error {
		for key, rid := range idx.Prefix(tx, []byte("k00001")) {
			got, ok, err := idx.Lookup(tx, key)
			if err != nil || !ok || got != rid {
				return fmt.Errorf("Lookup(%q) in the body: %v %v %v, want %v", key, got, ok, err, rid)
			}
			row, err := tbl.Get(tx, rid)
			if err != nil || !bytes.Equal(row[:8], key) {
				return fmt.Errorf("Get(%v) in the body: %q, %v", rid, row, err)
			}
			for range idx.Range(tx, key, nil) { // a nested scan re-enters too
				break
			}
			n++
		}
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	if n != 100 {
		t.Fatalf("the scan yielded %d entries, want 100", n)
	}
}

// TestScanBodyWriteToScannedObjectConflicts: a write, from the body, to the
// index or the table being scanned fails with ErrConflict and changes
// nothing; a write to the scanned index's table from an index scan succeeds.
func TestScanBodyWriteToScannedObjectConflicts(t *testing.T) {
	db, tbl, idx := scanFixture(t)
	if err := db.Update(func(tx *Tx) error {
		for key, rid := range idx.Range(tx, []byte("k0000010"), []byte("k0000020")) {
			if err := idx.Insert(tx, append(key, 'x'), rid); !errors.Is(err, ErrConflict) {
				return fmt.Errorf("Insert into the scanned index: %v, want ErrConflict", err)
			}
			if err := idx.Delete(tx, key); !errors.Is(err, ErrConflict) {
				return fmt.Errorf("Delete from the scanned index: %v, want ErrConflict", err)
			}
			row, err := tbl.Get(tx, rid)
			if err == nil {
				err = tbl.Update(tx, rid, row)
			}
			if err != nil {
				return fmt.Errorf("Update of the indexed table: %v", err)
			}
		}
		for rid := range tbl.Rows(tx) {
			if _, err := tbl.Insert(tx, keyedRow(999)); !errors.Is(err, ErrConflict) {
				return fmt.Errorf("Insert into the scanned table: %v, want ErrConflict", err)
			}
			if err := tbl.Delete(tx, rid); !errors.Is(err, ErrConflict) {
				return fmt.Errorf("Delete from the scanned table: %v, want ErrConflict", err)
			}
			break
		}
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	if n, m := idx.Entries(), tbl.RowCount(); n != 200 || m != 200 {
		t.Fatalf("after the refused writes: %d entries, %d rows, want 200 each", n, m)
	}
	if err := db.Admin().VerifyIntegrity(); err != nil {
		t.Fatal(err)
	}
}

// TestScanBodyLockDoesNotWait: a lock the body of a scan asks for, held by
// another goroutine's transaction, fails with ErrConflict at once instead of
// waiting while the scan holds the database.
func TestScanBodyLockDoesNotWait(t *testing.T) {
	db, _, idx := scanFixture(t, WithLockTimeout(time.Hour))
	held, release := make(chan struct{}), make(chan struct{})
	go func() {
		tx := db.Begin()
		defer tx.Abort()
		if err := tx.Lock("row:7", Exclusive); err != nil {
			t.Error(err)
		}
		close(held)
		<-release
	}()
	<-held
	defer close(release)
	waits := db.Stats().Txn.LockWaits
	if err := db.View(func(tx *Tx) error {
		for range idx.Prefix(tx, []byte("k")) {
			if err := tx.Lock("row:8", Shared); err != nil {
				return fmt.Errorf("a free lock in the body: %v", err)
			}
			if err := tx.Lock("row:7", Shared); !errors.Is(err, ErrConflict) {
				return fmt.Errorf("a held lock in the body: %v, want ErrConflict", err)
			}
			break
		}
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	if got := db.Stats().Txn.LockWaits; got != waits {
		t.Fatalf("the body's lock waited: %d waits, want %d", got, waits)
	}
}

// TestLockWaiterParksOnTheBaton: a transaction waiting for a lock releases
// the database while it waits, so the holder's commit can run, and is then
// granted the lock.
func TestLockWaiterParksOnTheBaton(t *testing.T) {
	db, err := Open(WithLockTimeout(time.Hour))
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()
	holder := db.Begin()
	if err := holder.Lock("K", Exclusive); err != nil {
		t.Fatal(err)
	}
	granted := make(chan error, 1)
	go func() {
		tx := db.Begin()
		defer tx.Abort()
		granted <- tx.Lock("K", Exclusive)
	}()
	for db.Stats().Txn.LockWaiting == 0 { // Stats runs while the waiter waits
		time.Sleep(100 * time.Microsecond)
	}
	if _, err := holder.Commit(); err != nil {
		t.Fatal(err)
	}
	select {
	case err := <-granted:
		if err != nil {
			t.Fatalf("the waiter: %v", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("the waiter was not granted the lock after the holder committed")
	}
	if st := db.Stats().Txn; st.LockWaits != 1 || st.LockTimeouts != 0 {
		t.Fatalf("after the hand-over: %+v", st)
	}
}

// TestFailedCommitKeepsCheckpointWaiting: a commit whose log force fails
// leaves its transaction open, with its locks and its logged updates, until
// the caller aborts it.  A checkpoint started meanwhile returns only after the
// abort, so it never captures the half-done transaction.
func TestFailedCommitKeepsCheckpointWaiting(t *testing.T) {
	db, tbl, _ := scanFixture(t)
	tx := db.Begin()
	if _, err := tbl.Insert(tx, keyedRow(500)); err != nil {
		t.Fatal(err)
	}
	db.Admin().ArmFaults(FaultPlan{FailProgramEvery: 1})
	if _, err := tx.Commit(); err == nil {
		t.Fatal("a commit whose log force fails succeeded")
	}
	db.Admin().ArmFaults(FaultPlan{})
	var aborted atomic.Bool
	done := make(chan bool)
	go func() {
		_, err := db.Checkpoint(db.SimulatedTime())
		if err != nil {
			t.Error(err)
		}
		done <- aborted.Load()
	}()
	select {
	case <-done:
		t.Fatal("the checkpoint ran while the failed commit's transaction was open")
	case <-time.After(50 * time.Millisecond):
	}
	aborted.Store(true)
	tx.Abort()
	if !<-done {
		t.Fatal("the checkpoint returned before the abort")
	}

	// db.Update aborts a transaction whose commit failed: the next
	// checkpoint has nothing to wait for.
	db.Admin().ArmFaults(FaultPlan{FailProgramEvery: 1})
	if err := db.Update(func(tx *Tx) error {
		_, err := tbl.Insert(tx, keyedRow(501))
		return err
	}); err == nil {
		t.Fatal("an Update whose log force fails succeeded")
	}
	db.Admin().ArmFaults(FaultPlan{})
	if _, err := db.Checkpoint(db.SimulatedTime()); err != nil {
		t.Fatal(err)
	}
}

// TestDeadlockFailsOneUpdate: two Updates lock a and b in opposite orders,
// each taking its second key only once both hold their first.  The second
// wait closes a cycle and fails at once, as ErrConflict, however long the
// lock timeout; its abort lets the other Update commit.
func TestDeadlockFailsOneUpdate(t *testing.T) {
	db, err := Open(WithLockTimeout(time.Hour))
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()
	var first sync.WaitGroup
	first.Add(2)
	errs := make(chan error, 2)
	for _, keys := range [][2]string{{"a", "b"}, {"b", "a"}} {
		go func() {
			errs <- db.Update(func(tx *Tx) error {
				if err := tx.Lock(keys[0], Exclusive); err != nil {
					return err
				}
				first.Done()
				first.Wait()
				return tx.Lock(keys[1], Exclusive)
			})
		}()
	}
	var committed, conflicts int
	for range 2 {
		switch err := <-errs; {
		case err == nil:
			committed++
		case errors.Is(err, ErrConflict):
			conflicts++
		default:
			t.Fatalf("unexpected error: %v", err)
		}
	}
	if committed != 1 || conflicts != 1 {
		t.Fatalf("%d committed and %d conflicts, want one each", committed, conflicts)
	}
	if st := db.Stats().Txn; st.LockTimeouts != 1 || st.LocksHeld != 0 || st.LockWaiting != 0 {
		t.Fatalf("after the deadlock: %+v", st)
	}
}
