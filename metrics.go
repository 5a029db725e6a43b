package noftl

import (
	"strconv"

	"noftl/internal/metrics"
)

// MetricsText renders the database's full metric set in the Prometheus text
// exposition format (version 0.0.4).  It is written on every call from the
// counts each layer keeps and computes its Stats() from (device, scheduler,
// regions and objects, buffer pool, WAL, checkpoints, transactions, tracer)
// and from the point-in-time gauges, so a dropped region or object is simply
// no longer there.  To serve it, hand it to an HTTP handler of your own:
//
//	http.HandleFunc("/metrics", func(w http.ResponseWriter, _ *http.Request) {
//	    w.Header().Set("Content-Type", "text/plain; version=0.0.4")
//	    io.WriteString(w, db.MetricsText())
//	})
func (db *DB) MetricsText() string {
	db.baton.Lock()
	defer db.baton.Unlock()
	var mt metrics.Text
	db.scrapeGauges(&mt)
	db.dev.WriteMetrics(&mt)
	db.space.Scheduler().WriteMetrics(&mt)
	db.space.WriteMetrics(&mt)
	db.pool.WriteMetrics(&mt)
	db.log.WriteMetrics(&mt)
	mt.Counter("noftl_wal_checkpoints_total",
		"Checkpoints taken (dirty pages flushed, the flash image described at the head of the WAL).").Add(db.ckptCount)
	db.txns.WriteMetrics(&mt)
	db.tracer.WriteMetrics(&mt)
	return mt.String()
}

// scrapeGauges writes the point-in-time gauges — state that is read, not
// counted — from the layers' snapshot accessors.
func (db *DB) scrapeGauges(mt *metrics.Text) {
	mt.Gauge("noftl_up", "Always 1 while the database is open.").Add(1)
	mt.Gauge("noftl_simulated_time_nanoseconds",
		"Highest simulated (virtual) time observed so far.").Add(int64(db.clock.Now()))

	dieFree := mt.Gauge("noftl_die_free_blocks",
		"Free blocks currently available on each die.", "die")
	for die, free := range db.space.DieFreeBlocks() {
		dieFree.Add(int64(free), strconv.Itoa(die))
	}

	validPages := mt.Gauge("noftl_region_valid_pages",
		"Logical pages currently mapped into each region.", "region")
	capPages := mt.Gauge("noftl_region_capacity_pages",
		"Exported logical capacity of each region in pages.", "region")
	freeBlocks := mt.Gauge("noftl_region_free_blocks",
		"Free blocks across each region's dies.", "region")
	debt := mt.Gauge("noftl_bggc_debt_blocks",
		"Free-block shortfall relative to the background-GC high watermark, per region.", "region")
	inBand := mt.Gauge("noftl_bggc_dies_in_band",
		"Dies at or below the background-GC high watermark, per region.", "region")
	atLow := mt.Gauge("noftl_bggc_dies_at_low_water",
		"Dies at or below the foreground-GC low watermark, per region.", "region")
	victims := mt.Gauge("noftl_bggc_victims_open",
		"Dies with a partially collected background victim, per region.", "region")
	retained := mt.Gauge("noftl_space_retained_pages",
		"Superseded page versions each region keeps on flash for the last checkpoint's image.", "region")
	space := db.space.Stats()
	for _, r := range space.Regions {
		retained.Add(r.RetainedPages, r.Name)
		validPages.Add(r.ValidPages, r.Name)
		capPages.Add(r.CapacityPages, r.Name)
		freeBlocks.Add(int64(r.FreeBlocks), r.Name)
		debt.Add(r.BGDebtBlocks, r.Name)
		inBand.Add(int64(r.DiesInBGBand), r.Name)
		atLow.Add(int64(r.DiesAtLowWater), r.Name)
		victims.Add(int64(r.BGVictimsOpen), r.Name)
	}

	bp := db.pool.Stats()
	mt.Gauge("noftl_buffer_resident_pages", "Pages currently resident in the buffer pool.").Add(int64(bp.Resident))
	mt.Gauge("noftl_buffer_dirty_pages", "Dirty pages currently resident in the buffer pool.").Add(int64(bp.Dirty))

	locks := db.txns.LockManager().Stats()
	mt.Gauge("noftl_txn_locks_held",
		"Keys currently locked (shared or exclusive).").Add(locks.Held)
	mt.Gauge("noftl_txn_locks_waiting",
		"Transactions currently blocked on a lock.").Add(locks.Waiting)

	mt.Gauge("noftl_wal_flushed_lsn", "Highest durable WAL log sequence number.").Add(int64(db.log.FlushedLSN()))
	mt.Gauge("noftl_wal_bytes_live",
		"Encoded WAL record bytes held by live log pages (crash-replay upper bound).").Add(db.log.BytesLive())
	ck := db.checkpointStats(space.RetainedPages)
	mt.Gauge("noftl_wal_checkpoint_last_lsn",
		"LSN of the last checkpoint's end mark (recovery filters the records after it by commit).").Add(int64(ck.LastLSN))
	mt.Gauge("noftl_wal_checkpoint_last_bytes",
		"Encoded size of the last checkpoint's records in bytes.").Add(ck.LastBytes)
	mt.Gauge("noftl_wal_checkpoint_last_pages",
		"Dirty pages the last checkpoint flushed.").Add(ck.LastPages)
}
