package noftl

import (
	"bytes"
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// TestConcurrentBatchDML drives InsertBatch, GetBatch and the Rows iterator
// from many goroutines against one database.  It is primarily a -race test
// of the concurrency spine (sharded buffer pool, lock table, lock-free
// scheduler dispatch, WAL group commit); the assertions check that
// nothing inserted is lost or corrupted along the way.
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
	row := func(w, r, i int) []byte {
		return []byte(fmt.Sprintf("w%02d-r%02d-i%03d%s", w, r, i, bytes.Repeat([]byte{'x'}, 32)))
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
			}
		}(w)
	}

	// Readers run GetBatch over everything committed so far and iterate the
	// table while the writers are still inserting.  The table is
	// append-only, so every already-published rid must stay readable and
	// every row seen by the iterator must be well-formed.
	var readerWG sync.WaitGroup
	for g := 0; g < 4; g++ {
		readerWG.Add(1)
		go func() {
			defer readerWG.Done()
			for !done.Load() {
				mu.Lock()
				snapshot := append([]RID(nil), rids...)
				mu.Unlock()
				if err := db.View(func(tx *Tx) error {
					if len(snapshot) > 0 {
						got, err := tbl.GetBatch(tx, snapshot)
						if err != nil {
							return err
						}
						for i, r := range got {
							if len(r) == 0 || r[0] != 'w' {
								return fmt.Errorf("rid %v: malformed row %q", snapshot[i], r)
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

	writerWG.Wait()
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
