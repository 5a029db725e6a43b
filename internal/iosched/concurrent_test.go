package iosched_test

import (
	"bytes"
	"sync"
	"testing"

	"noftl"
	"noftl/internal/sim"
)

// TestConcurrentSubmitters has 8 goroutines read batches of 4 random rows,
// one a page, 40 batches each, from a table 16 times the size of the
// pool: every miss of a batch goes to the scheduler in one submission.  The
// accounting is exact whatever the interleaving: every buffer miss is one
// host read request, and every die saw work.  Run it with -race.
func TestConcurrentSubmitters(t *testing.T) {
	db, err := noftl.Open(noftl.WithBufferPoolPages(64))
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()
	tbl, err := db.CreateTable("T", "", nil)
	if err != nil {
		t.Fatal(err)
	}
	const pages = 1024
	rows := make([][]byte, pages)
	for i := range rows {
		rows[i] = bytes.Repeat([]byte{byte(i)}, 3000)
	}
	var rids []noftl.RID
	if err := db.Update(func(tx *noftl.Tx) (err error) {
		rids, err = tbl.InsertBatch(tx, rows)
		return err
	}); err != nil {
		t.Fatal(err)
	}
	if _, err := db.Checkpoint(db.SimulatedTime()); err != nil {
		t.Fatal(err)
	}
	db.ResetStatistics()

	const workers = 8
	const batchesPerWorker = 40
	const reqsPerBatch = 4
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(id int) {
			defer wg.Done()
			r := sim.NewRand(uint64(id + 1))
			for b := 0; b < batchesPerWorker; b++ {
				batch := make([]noftl.RID, reqsPerBatch)
				for i := range batch {
					batch[i] = rids[r.Intn(pages)]
				}
				if err := db.View(func(tx *noftl.Tx) error {
					_, err := tbl.GetBatch(tx, batch)
					return err
				}); err != nil {
					t.Error(err)
					return
				}
			}
		}(w)
	}
	wg.Wait()
	st := db.Stats()
	if st.Buffer.Misses == 0 || st.Scheduler.HostReads != st.Buffer.Misses {
		t.Fatalf("%d buffer misses, %d host read requests", st.Buffer.Misses, st.Scheduler.HostReads)
	}
	if got := st.Scheduler.HostReads + st.Scheduler.HostWrites + st.Scheduler.GC; got != st.Scheduler.Requests {
		t.Fatalf("requests = %d, the classes sum to %d", st.Scheduler.Requests, got)
	}
	for _, d := range st.Device.PerDie {
		if d.BusyTime == 0 {
			t.Fatalf("die %d never saw work", d.Die)
		}
	}
}
