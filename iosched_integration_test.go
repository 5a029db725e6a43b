package noftl_test

import (
	"testing"

	"noftl"
)

// integrationConfig is a small database for the scheduler integration
// tests: 8 dies and a pool smaller than the table they load.
func integrationConfig() noftl.Config {
	cfg := noftl.DefaultConfig()
	cfg.BufferPoolPages = 128
	return cfg
}

// loadRows creates table T and inserts n rows of 400 bytes, spanning many
// heap pages, then returns the table.
func loadRows(t *testing.T, db *noftl.DB, n int) *noftl.Table {
	t.Helper()
	if err := db.Exec("CREATE TABLE T (v VARCHAR(400))"); err != nil {
		t.Fatal(err)
	}
	tbl, _ := db.Table("T")
	row := make([]byte, 400)
	tx := db.Begin()
	for i := 0; i < n; i++ {
		row[0] = byte(i)
		if _, err := tbl.Insert(tx, row); err != nil {
			t.Fatal(err)
		}
		if i%500 == 499 {
			if _, err := tx.Commit(); err != nil {
				t.Fatal(err)
			}
			tx = db.Begin()
		}
	}
	if _, err := tx.Commit(); err != nil {
		t.Fatal(err)
	}
	return tbl
}

// TestDBSequentialScanLargerThanPool drives a full table scan through db.go
// over a table with more pages than the pool has frames, so the scan re-reads
// from the device through the scheduler, and verifies that it still returns
// every row.
func TestDBSequentialScanLargerThanPool(t *testing.T) {
	cfg := integrationConfig()
	db, err := noftl.OpenConfig(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()

	const rows = 1500
	tbl := loadRows(t, db, rows)
	pages := tbl.PageCount()
	if pages <= int64(cfg.BufferPoolPages) {
		t.Fatalf("test needs more heap pages (%d) than pool frames (%d)", pages, cfg.BufferPoolPages)
	}
	// Push everything to flash so the scan re-reads from the device.
	if _, err := db.FlushAll(db.SimulatedTime()); err != nil {
		t.Fatal(err)
	}
	db.ResetStatistics()

	tx := db.Begin()
	count := 0
	for range tbl.Rows(tx) {
		count++
	}
	if err := tx.Err(); err != nil {
		t.Fatal(err)
	}
	if _, err := tx.Commit(); err != nil {
		t.Fatal(err)
	}
	if count != rows {
		t.Fatalf("scan returned %d rows, want %d", count, rows)
	}

	st := db.Stats()
	if st.Scheduler.HostReads == 0 {
		t.Error("scheduler saw no host-read requests")
	}
	if st.Scheduler.Batches == 0 {
		t.Error("scheduler dispatched no batches")
	}
}
