package buffer_test

import (
	"bytes"
	"fmt"
	"sync"
	"testing"

	"noftl"
	"noftl/internal/sim"
)

// The pool takes no lock of its own: the database runs one operation at a
// time.  These tests drive it from many goroutines through the public API,
// which serialises them per operation, and check what the pool must keep
// across that interleaving.  Run them with -race.

// pageRows opens a database whose pool holds frames pages and fills table T
// with n rows of about a page each, one per heap page.
func pageRows(t *testing.T, frames, n int) (*noftl.DB, *noftl.Table, []noftl.RID) {
	t.Helper()
	db, err := noftl.Open(noftl.WithBufferPoolPages(frames))
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { db.Close() })
	tbl, err := db.CreateTable("T", "", nil)
	if err != nil {
		t.Fatal(err)
	}
	rows := make([][]byte, n)
	for i := range rows {
		rows[i] = make([]byte, 3000)
	}
	var rids []noftl.RID
	if err := db.Update(func(tx *noftl.Tx) error {
		rids, err = tbl.InsertBatch(tx, rows)
		return err
	}); err != nil {
		t.Fatal(err)
	}
	return db, tbl, rids
}

// TestPoolConcurrentAccess has 8 goroutines increment a counter in random
// rows of a table twice the size of the pool, each increment a transaction
// that locks its row: every fetch may evict a dirty page.  No increment may
// be lost.
func TestPoolConcurrentAccess(t *testing.T) {
	db, tbl, rids := pageRows(t, 32, 64)
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func(seed int) {
			defer wg.Done()
			r := sim.NewRand(uint64(seed))
			for i := 0; i < 500; i++ {
				rid := rids[r.Intn(len(rids))]
				if err := db.Update(func(tx *noftl.Tx) error {
					if err := tx.Lock(fmt.Sprint(rid), noftl.Exclusive); err != nil {
						return err
					}
					row, err := tbl.Get(tx, rid)
					if err != nil {
						return err
					}
					row[2]++
					return tbl.Update(tx, rid, row)
				}); err != nil {
					t.Error(err)
					return
				}
			}
		}(w)
	}
	wg.Wait()
	sum := 0
	if err := db.View(func(tx *noftl.Tx) error {
		for _, row := range tbl.Rows(tx) {
			sum += int(row[2])
		}
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	// Each row's count is fixed by the seeds, whatever the interleaving, and
	// far below the 256 at which its byte would wrap.
	if sum != 8*500 {
		t.Fatalf("the rows hold %d increments, want %d", sum, 8*500)
	}
	if st := db.Stats().Buffer; st.Evictions == 0 || st.Writebacks == 0 {
		t.Fatalf("the run neither evicted nor wrote back: %+v", st)
	}
}

// TestPoolShardedEvictionUnderContention drives 8 goroutines through a pool
// of 8 replacement partitions far smaller than the table: batched reads,
// single-row rewrites and flushes, so every partition constantly evicts,
// dirty pages included.  Afterwards nothing is dirty, and a checkpoint, which
// refuses a pinned dirty page, succeeds: no pin leaked.
func TestPoolShardedEvictionUnderContention(t *testing.T) {
	const pages = 2048
	db, tbl, rids := pageRows(t, 512, pages)
	const workers = 8
	const opsPerWorker = 500
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(seed int) {
			defer wg.Done()
			r := sim.NewRand(uint64(seed + 1))
			for i := 0; i < opsPerWorker; i++ {
				var err error
				switch r.Intn(10) {
				case 0: // a batched read of four neighbouring pages
					lo := r.Intn(pages - 4)
					err = db.View(func(tx *noftl.Tx) error {
						_, err := tbl.GetBatch(tx, rids[lo:lo+4])
						return err
					})
				case 1: // a write-back of every dirty page
					_, err = db.FlushAll(db.SimulatedTime())
				default:
					rid := rids[r.Intn(pages)]
					err = db.Update(func(tx *noftl.Tx) error {
						if err := tx.Lock(fmt.Sprint(rid), noftl.Exclusive); err != nil {
							return err
						}
						row, err := tbl.Get(tx, rid)
						if err != nil {
							return err
						}
						row[1]++
						return tbl.Update(tx, rid, row)
					})
				}
				if err != nil {
					t.Error(err)
					return
				}
			}
		}(w)
	}
	wg.Wait()
	st := db.Stats().Buffer
	if st.Evictions == 0 || st.Writebacks == 0 {
		t.Fatalf("contention run did not evict/write back: %+v", st)
	}
	if _, err := db.Checkpoint(db.SimulatedTime()); err != nil {
		t.Fatalf("checkpoint after the run (a leaked pin refuses it): %v", err)
	}
	if st := db.Stats().Buffer; st.Dirty != 0 {
		t.Fatalf("dirty pages remain after the checkpoint: %d", st.Dirty)
	}
	if err := db.Admin().VerifyIntegrity(); err != nil {
		t.Fatal(err)
	}
}

// TestConcurrentFetchesGrowTheTable has 4 goroutines each create tables in
// tablespaces of their own whose extents are one LPN-table chunk (4096
// pages) long, so the first page of each lands in a chunk neither the space
// manager's map nor the pool's frame table has yet, while 4 more goroutines
// read resident rows.  Every row reads back as written.
func TestConcurrentFetchesGrowTheTable(t *testing.T) {
	const (
		chunk    = 4096 // entries per core.LPNTable chunk
		resident = 32
		growers  = 4
		fresh    = 6
	)
	db, tbl, rids := pageRows(t, 1024, resident)
	if err := db.Update(func(tx *noftl.Tx) error {
		for i, rid := range rids {
			row := bytes.Repeat([]byte{byte(i)}, 3000)
			if err := tbl.Update(tx, rid, row); err != nil {
				return err
			}
		}
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	check := func(tx *noftl.Tx, tbl *noftl.Table, rid noftl.RID, want byte) error {
		row, err := tbl.Get(tx, rid)
		if err != nil {
			return err
		}
		if row[0] != want || row[len(row)-1] != want {
			return fmt.Errorf("%s %v reads %d, want %d", tbl.Name(), rid, row[0], want)
		}
		return nil
	}
	for g := 0; g < growers; g++ {
		wg.Add(2)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < fresh; i++ {
				name := fmt.Sprintf("G%d_%d", g, i)
				if err := db.CreateTablespace(name, "", chunk); err != nil {
					t.Error(err)
					return
				}
				gt, err := db.CreateTable(name, name, nil)
				if err != nil {
					t.Error(err)
					return
				}
				want := byte(g*fresh + i)
				if err := db.Update(func(tx *noftl.Tx) error {
					rid, err := gt.Insert(tx, bytes.Repeat([]byte{want}, 3000))
					if err != nil {
						return err
					}
					return check(tx, gt, rid, want)
				}); err != nil {
					t.Error(err)
					return
				}
			}
		}(g)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 20*fresh; i++ {
				k := (i + g) % resident
				if err := db.View(func(tx *noftl.Tx) error { return check(tx, tbl, rids[k], byte(k)) }); err != nil {
					t.Error(err)
					return
				}
			}
		}(g)
	}
	wg.Wait()
	for g := 0; g < growers; g++ {
		for i := 0; i < fresh; i++ {
			if gt, ok := db.Table(fmt.Sprintf("G%d_%d", g, i)); !ok || gt.RowCount() != 1 {
				t.Fatalf("table G%d_%d lost its row", g, i)
			}
		}
	}
	if err := db.Admin().VerifyIntegrity(); err != nil {
		t.Fatal(err)
	}
}
