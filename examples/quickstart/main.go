// Quickstart: open a database on simulated native flash with functional
// options, run the exact DDL from §2 of the paper to create a region, a
// tablespace and a table, then insert and query rows through the batch-first
// API and print where they physically landed.
package main

import (
	"fmt"
	"log"

	"noftl"
)

func main() {
	// Open starts from DefaultConfig() and applies options in order.
	db, err := noftl.Open(noftl.WithBufferPoolPages(2048))
	if err != nil {
		log.Fatal(err)
	}
	defer db.Close()

	// The paper's example DDL (§2): existing logical storage structures —
	// tablespaces, extents, tables — are simply coupled to a NoFTL region.
	err = db.Exec(`
		CREATE REGION rgHotTbl (MAX_CHIPS=4, MAX_CHANNELS=4, MAX_SIZE=1280M);
		CREATE TABLESPACE tsHotTbl (REGION=rgHotTbl, EXTENT SIZE 128K);
		CREATE TABLE T (t_id NUMBER(3)) TABLESPACE tsHotTbl;
		CREATE UNIQUE INDEX T_IDX ON T (t_id) TABLESPACE tsHotTbl;
	`)
	if err != nil {
		log.Fatal(err)
	}

	tbl, _ := db.Table("T")
	idx, _ := db.Index("T_IDX")

	// Insert 100 rows in one batch: the full pages go to flash as a single
	// die-striped scheduler submission instead of page-at-a-time.
	err = db.Update(func(tx *noftl.Tx) error {
		rows := make([][]byte, 100)
		for i := range rows {
			rows[i] = []byte(fmt.Sprintf("row %03d on native flash", i+1))
		}
		rids, err := tbl.InsertBatch(tx, rows)
		if err != nil {
			return err
		}
		for i, rid := range rids {
			if err := idx.Insert(tx, noftl.Key(uint32(i+1)), rid); err != nil {
				return err
			}
		}
		return nil
	})
	if err != nil {
		log.Fatal(err)
	}

	// Point lookup through the index, and a range scan with the iterator
	// API, inside a read-only closure.
	err = db.View(func(tx *noftl.Tx) error {
		rid, found, err := idx.Lookup(tx, noftl.Key(42))
		if err != nil || !found {
			return fmt.Errorf("lookup failed: %v", err)
		}
		row, err := tbl.Get(tx, rid)
		if err != nil {
			return err
		}
		fmt.Printf("t_id=42 -> %q\n", row)

		n := 0
		for range idx.Range(tx, noftl.Key(10), noftl.Key(20)) {
			n++
		}
		fmt.Printf("keys in [10,20): %d\n", n)
		return tx.Err()
	})
	if err != nil {
		log.Fatal(err)
	}

	// Flush and show which region the pages ended up in.
	if _, err := db.FlushAll(db.SimulatedTime()); err != nil {
		log.Fatal(err)
	}
	fmt.Println()
	stats := db.Stats()
	for _, rs := range stats.Space.Regions {
		fmt.Printf("region %-10s dies=%v  host writes=%d  valid pages=%d\n",
			rs.Name, rs.Dies, rs.HostWrites, rs.ValidPages)
	}
	fmt.Println()
	fmt.Print(stats.String())
}
