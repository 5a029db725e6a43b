package core_test

import (
	"bytes"
	"fmt"
	"sync"
	"testing"

	"noftl"
	"noftl/internal/flash"
)

// The space manager takes no lock of its own: the database runs one operation
// at a time.  These tests drive it from many goroutines through the public
// API.  Run them with -race.

// smallDB opens a database on a device small enough that overwrites keep the
// garbage collector busy.
func smallDB(t *testing.T) *noftl.DB {
	t.Helper()
	cfg := noftl.DefaultConfig()
	cfg.Flash.Geometry = flash.Geometry{
		Channels: 2, DiesPerChannel: 2, PlanesPerDie: 1,
		BlocksPerDie: 32, PagesPerBlock: 16, PageSize: 2048,
	}
	cfg.BufferPoolPages = 16
	cfg.Space.OverprovisionPct = 0.25
	db, err := noftl.OpenConfig(cfg)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { db.Close() })
	return db
}

// TestConcurrentBatchedWritesWithBackgroundGC has 4 goroutines each load a
// table with a batched insert and then rewrite every row of it, round after
// round, each round ending in a checkpoint: the pool writes the pages back as
// batches while the background collector reclaims the superseded versions.
// Afterwards the space manager's invariants hold and every row reads back its
// last round.
func TestConcurrentBatchedWritesWithBackgroundGC(t *testing.T) {
	db := smallDB(t)
	const (
		workers  = 4
		perTable = 48
		rounds   = 6
	)
	row := func(w, r int) []byte { return bytes.Repeat([]byte{byte(w*10 + r)}, 1500) }
	tables := make([]*noftl.Table, workers)
	rids := make([][]noftl.RID, workers)
	for w := range tables {
		tbl, err := db.CreateTable(fmt.Sprint("W", w), "", nil)
		if err != nil {
			t.Fatal(err)
		}
		tables[w] = tbl
	}
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			tbl := tables[w]
			rows := make([][]byte, perTable)
			for i := range rows {
				rows[i] = row(w, 0)
			}
			if err := db.Update(func(tx *noftl.Tx) (err error) {
				rids[w], err = tbl.InsertBatch(tx, rows)
				return err
			}); err != nil {
				t.Errorf("worker %d: %v", w, err)
				return
			}
			for r := 1; r < rounds; r++ {
				if err := db.Update(func(tx *noftl.Tx) error {
					for _, rid := range rids[w] {
						if err := tbl.Update(tx, rid, row(w, r)); err != nil {
							return err
						}
					}
					return nil
				}); err != nil {
					t.Errorf("worker %d round %d: %v", w, r, err)
					return
				}
				if _, err := db.Checkpoint(db.SimulatedTime()); err != nil {
					t.Errorf("worker %d round %d: %v", w, r, err)
					return
				}
			}
		}(w)
	}
	wg.Wait()
	if t.Failed() {
		return
	}
	if err := db.Admin().VerifyIntegrity(); err != nil {
		t.Fatalf("integrity violated after concurrent batched writes: %v", err)
	}
	if st := db.Stats().Space; st.GCErases == 0 {
		t.Fatalf("the run never collected: %+v", st)
	}
	if err := db.View(func(tx *noftl.Tx) error {
		for w, tbl := range tables {
			for i, rid := range rids[w] {
				got, err := tbl.Get(tx, rid)
				if err != nil {
					return err
				}
				if !bytes.Equal(got, row(w, rounds-1)) {
					return fmt.Errorf("worker %d row %d holds stale data", w, i)
				}
			}
		}
		return nil
	}); err != nil {
		t.Fatal(err)
	}
}

// TestObjectsNamedAndForgottenUnderTraffic reads and rewrites rows from 4
// goroutines while tables are created and dropped beside them: whichever
// object a command is charged to, the objects' counts sum to the space
// manager's.
func TestObjectsNamedAndForgottenUnderTraffic(t *testing.T) {
	db := smallDB(t)
	tbl, err := db.CreateTable("T", "", nil)
	if err != nil {
		t.Fatal(err)
	}
	rows := make([][]byte, 64)
	for i := range rows {
		rows[i] = bytes.Repeat([]byte{1}, 1500)
	}
	var rids []noftl.RID
	if err := db.Update(func(tx *noftl.Tx) (err error) {
		rids, err = tbl.InsertBatch(tx, rows)
		return err
	}); err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for n := 0; n < 200; n++ {
				rid := rids[(n*7+g)%len(rids)]
				if err := db.Update(func(tx *noftl.Tx) error {
					if err := tx.Lock(fmt.Sprint(rid), noftl.Exclusive); err != nil {
						return err
					}
					row, err := tbl.Get(tx, rid)
					if err != nil {
						return err
					}
					return tbl.Update(tx, rid, row)
				}); err != nil {
					t.Error(err)
					return
				}
			}
		}(g)
	}
	for n := 0; n < 20; n++ {
		name := fmt.Sprint("D", n)
		dt, err := db.CreateTable(name, "", nil)
		if err != nil {
			t.Fatal(err)
		}
		if err := db.Update(func(tx *noftl.Tx) error {
			_, err := dt.InsertBatch(tx, rows[:8])
			return err
		}); err != nil {
			t.Fatal(err)
		}
		_ = db.ObjectStats()
		if err := db.DropTable(name); err != nil {
			t.Fatal(err)
		}
	}
	wg.Wait()
	st := db.Stats()
	var reads, writes, copybacks int64
	for _, o := range st.Objects {
		reads, writes, copybacks = reads+o.Reads, writes+o.Writes, copybacks+o.Copybacks
	}
	if reads != st.Space.HostReads || writes != st.Space.HostWrites || copybacks != st.Space.GCCopybacks {
		t.Fatalf("objects sum to %d reads, %d writes and %d copybacks, the space manager to %d, %d and %d",
			reads, writes, copybacks, st.Space.HostReads, st.Space.HostWrites, st.Space.GCCopybacks)
	}
	if reads == 0 || writes == 0 {
		t.Fatalf("the traffic never reached the device: %d reads, %d writes", reads, writes)
	}
}
