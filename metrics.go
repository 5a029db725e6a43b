package noftl

import "strconv"

// MetricsText renders the database's full metric set in the Prometheus text
// exposition format (version 0.0.4).  The counter and histogram families are
// the very children every layer increments on its hot path and computes its
// Stats() from (device, scheduler, regions, buffer pool, WAL, checkpoints,
// transactions, tracer); only the point-in-time gauges are refreshed here.
// To serve it, hand it to an HTTP handler of your own:
//
//	http.HandleFunc("/metrics", func(w http.ResponseWriter, _ *http.Request) {
//	    w.Header().Set("Content-Type", "text/plain; version=0.0.4")
//	    io.WriteString(w, db.MetricsText())
//	})
func (db *DB) MetricsText() string {
	db.scrapeGauges()
	return db.reg.Text()
}

// scrapeGauges refreshes the point-in-time gauges — state that is read, not
// counted — from the layers' snapshot accessors.
func (db *DB) scrapeGauges() {
	reg := db.reg

	reg.Gauge("noftl_up", "Always 1 while the database is open.").With().Set(1)
	reg.Gauge("noftl_simulated_time_nanoseconds",
		"Highest simulated (virtual) time observed so far.").With().Set(int64(db.clock.Now()))

	dieFree := reg.Gauge("noftl_die_free_blocks",
		"Free blocks currently available on each die.", "die")
	for die, free := range db.space.DieFreeBlocks() {
		dieFree.With(strconv.Itoa(die)).Set(int64(free))
	}

	validPages := reg.Gauge("noftl_region_valid_pages",
		"Logical pages currently mapped into each region.", "region")
	capPages := reg.Gauge("noftl_region_capacity_pages",
		"Exported logical capacity of each region in pages.", "region")
	freeBlocks := reg.Gauge("noftl_region_free_blocks",
		"Free blocks across each region's dies.", "region")
	debt := reg.Gauge("noftl_bggc_debt_blocks",
		"Free-block shortfall relative to the background-GC high watermark, per region.", "region")
	inBand := reg.Gauge("noftl_bggc_dies_in_band",
		"Dies at or below the background-GC high watermark, per region.", "region")
	atLow := reg.Gauge("noftl_bggc_dies_at_low_water",
		"Dies at or below the foreground-GC low watermark, per region.", "region")
	victims := reg.Gauge("noftl_bggc_victims_open",
		"Dies with a partially collected background victim, per region.", "region")
	retained := reg.Gauge("noftl_space_retained_pages",
		"Superseded page versions each region keeps on flash for the last checkpoint's image.", "region")
	space := db.space.Stats()
	for _, r := range space.Regions {
		retained.With(r.Name).Set(r.RetainedPages)
		validPages.With(r.Name).Set(r.ValidPages)
		capPages.With(r.Name).Set(r.CapacityPages)
		freeBlocks.With(r.Name).Set(int64(r.FreeBlocks))
		debt.With(r.Name).Set(r.BGDebtBlocks)
		inBand.With(r.Name).Set(int64(r.DiesInBGBand))
		atLow.With(r.Name).Set(int64(r.DiesAtLowWater))
		victims.With(r.Name).Set(int64(r.BGVictimsOpen))
	}

	bp := db.pool.Stats()
	reg.Gauge("noftl_buffer_resident_pages", "Pages currently resident in the buffer pool.").With().Set(int64(bp.Resident))
	reg.Gauge("noftl_buffer_dirty_pages", "Dirty pages currently resident in the buffer pool.").With().Set(int64(bp.Dirty))

	locks := db.txns.LockManager().Stats()
	reg.Gauge("noftl_txn_locks_held",
		"Keys currently locked (shared or exclusive).").With().Set(locks.Held)
	reg.Gauge("noftl_txn_locks_waiting",
		"Transactions currently blocked on a lock.").With().Set(locks.Waiting)

	reg.Gauge("noftl_wal_flushed_lsn", "Highest durable WAL log sequence number.").With().Set(int64(db.log.FlushedLSN()))
	reg.Gauge("noftl_wal_bytes_live",
		"Encoded WAL record bytes held by live log pages (crash-replay upper bound).").With().Set(db.log.BytesLive())
	ck := db.checkpointStats(space.RetainedPages)
	reg.Gauge("noftl_wal_checkpoint_last_lsn",
		"LSN of the last checkpoint's end mark (recovery filters the records after it by commit).").With().Set(int64(ck.LastLSN))
	reg.Gauge("noftl_wal_checkpoint_last_bytes",
		"Encoded size of the last checkpoint's records in bytes.").With().Set(ck.LastBytes)
	reg.Gauge("noftl_wal_checkpoint_last_pages",
		"Dirty pages the last checkpoint flushed.").With().Set(ck.LastPages)
}
