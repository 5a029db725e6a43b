// Hot/cold separation example: the same update-heavy workload is run twice —
// once with hot and cold tables separated into their own regions and once
// with traditional placement — and the garbage-collection work of both runs
// is compared.  This is the mechanism behind the paper's headline result.
package main

import (
	"fmt"
	"log"

	"noftl"
	"noftl/internal/flash"
)

const (
	coldRows = 6000
	hotRows  = 400
	rounds   = 100
	rowSize  = 480
)

func runWorkload(separate bool) noftl.Stats {
	cfg := noftl.DefaultConfig()
	// Small device on purpose: the working set plus its update churn reaches
	// high utilization, so the garbage collector has real work to do.
	cfg.Flash.Geometry = flash.Geometry{
		Channels: 4, DiesPerChannel: 2, PlanesPerDie: 1,
		BlocksPerDie: 8, PagesPerBlock: 32, PageSize: 4096,
	}
	cfg.BufferPoolPages = 128
	// Benchmark regime: light checkpoints bound the row-image WAL and retain
	// no superseded page versions — crash recovery is not this example's
	// story, and the deliberately small device has no spare blocks to lend.
	cfg.DisableSnapshotCheckpoints = true
	if !separate {
		cfg.Space.Mode = noftl.PlacementTraditional
	}
	db, err := noftl.OpenConfig(cfg)
	if err != nil {
		log.Fatal(err)
	}
	defer db.Close()

	if err := db.Exec(`
		CREATE REGION rgHot (MAX_CHIPS=2);
		CREATE TABLESPACE tsHot (REGION=rgHot);
		CREATE TABLESPACE tsCold;
		CREATE TABLE HOT  (v VARCHAR(480)) TABLESPACE tsHot;
		CREATE TABLE COLD (v VARCHAR(480)) TABLESPACE tsCold;
	`); err != nil {
		log.Fatal(err)
	}
	hot, _ := db.Table("HOT")
	cold, _ := db.Table("COLD")
	row := make([]byte, rowSize)

	// Load the cold data once and remember the RIDs of the hot rows.  The
	// load is chunked with a checkpoint per chunk so the log's flash
	// footprint stays bounded while the data fills the device.
	var hotRIDs []noftl.RID
	for loaded := 0; loaded < coldRows; {
		chunk := coldRows - loaded
		if chunk > 1000 {
			chunk = 1000
		}
		tx := db.Begin()
		for i := 0; i < chunk; i++ {
			if _, err := cold.Insert(tx, row); err != nil {
				log.Fatal(err)
			}
		}
		if _, err := tx.Commit(); err != nil {
			log.Fatal(err)
		}
		if _, err := db.Checkpoint(db.SimulatedTime()); err != nil {
			log.Fatal(err)
		}
		loaded += chunk
	}
	tx := db.Begin()
	for i := 0; i < hotRows; i++ {
		rid, err := hot.Insert(tx, row)
		if err != nil {
			log.Fatal(err)
		}
		hotRIDs = append(hotRIDs, rid)
	}
	if _, err := tx.Commit(); err != nil {
		log.Fatal(err)
	}
	if _, err := db.FlushAll(db.SimulatedTime()); err != nil {
		log.Fatal(err)
	}
	db.ResetStatistics()

	// Update the hot rows over and over; the cold rows stay untouched.  A
	// checkpoint per round pushes the dirty pages to flash and keeps the
	// write-ahead log bounded.
	for r := 0; r < rounds; r++ {
		tx := db.Begin()
		for _, rid := range hotRIDs {
			row[0] = byte(r)
			if err := hot.Update(tx, rid, row); err != nil {
				log.Fatal(err)
			}
		}
		if _, err := tx.Commit(); err != nil {
			log.Fatal(err)
		}
		if _, err := db.Checkpoint(db.SimulatedTime()); err != nil {
			log.Fatal(err)
		}
	}
	return db.Stats()
}

func main() {
	mixed := runWorkload(false)
	separated := runWorkload(true)

	fmt.Println("Hot/cold separation and garbage collection")
	fmt.Println("-------------------------------------------")
	fmt.Printf("%-28s %15s %15s\n", "", "traditional", "regions")
	fmt.Printf("%-28s %15d %15d\n", "host page writes", mixed.Space.HostWrites, separated.Space.HostWrites)
	fmt.Printf("%-28s %15d %15d\n", "GC copybacks", mixed.Space.GCCopybacks, separated.Space.GCCopybacks)
	fmt.Printf("%-28s %15d %15d\n", "GC erases", mixed.Space.GCErases, separated.Space.GCErases)
	fmt.Printf("%-28s %15.2f %15.2f\n", "write amplification", mixed.WriteAmplification(), separated.WriteAmplification())
	fmt.Printf("%-28s %15.2f %15.2f\n", "mean write latency (us)",
		float64(mixed.WriteLatency.Mean)/1e3, float64(separated.WriteLatency.Mean)/1e3)
	fmt.Println()
	fmt.Println("Separating the frequently updated table into its own region keeps")
	fmt.Println("cold pages out of the garbage collector's victim blocks: fewer")
	fmt.Println("copybacks, fewer erases, better flash longevity.")
}
