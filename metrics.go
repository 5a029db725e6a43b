package noftl

import (
	"strconv"

	"noftl/internal/metrics"
)

// MetricsText renders the database's full metric set in the Prometheus text
// exposition format (version 0.0.4).  It is written on every call from one
// Stats() value, so the two views cannot disagree and a dropped region or
// object is simply no longer there; the trace families are there while
// tracing is on.  To serve it, hand it to an HTTP handler of your own:
//
//	http.HandleFunc("/metrics", func(w http.ResponseWriter, _ *http.Request) {
//	    w.Header().Set("Content-Type", "text/plain; version=0.0.4")
//	    io.WriteString(w, db.MetricsText())
//	})
func (db *DB) MetricsText() string {
	st := db.Stats()
	var mt metrics.Text
	gauge := func(name, help string, v int64) { mt.Gauge(name, help).Add(v) }
	counter := func(name, help string, v int64) { mt.Counter(name, help).Add(v) }

	gauge("noftl_up", "Always 1 while the database is open.", 1)
	gauge("noftl_simulated_time_nanoseconds", "Highest simulated (virtual) time observed so far.", int64(st.Simulated))

	reads := mt.Counter("noftl_device_reads_total", "Physical page reads on the flash device.", "die")
	programs := mt.Counter("noftl_device_programs_total", "Physical page programs on the flash device.", "die")
	erases := mt.Counter("noftl_device_erases_total", "Physical block erases on the flash device.", "die")
	for _, d := range st.Device.PerDie {
		die := strconv.Itoa(d.Die)
		reads.Add(d.Reads, die)
		programs.Add(d.Programs, die)
		erases.Add(d.Erases, die)
	}
	dieFree := mt.Gauge("noftl_die_free_blocks", "Free blocks currently available on each die.", "die")
	for die, free := range st.Space.DieFreeBlocks {
		dieFree.Add(int64(free), strconv.Itoa(die))
	}
	counter("noftl_iosched_batches_total", "Request batches dispatched by the I/O scheduler.", st.Scheduler.Batches)

	hostReads := mt.Counter("noftl_region_host_reads_total",
		"Logical host page reads served per region.", "region")
	hostWrites := mt.Counter("noftl_region_host_writes_total",
		"Logical host page writes placed per region.", "region")
	gcCopybacks := mt.Counter("noftl_region_gc_copybacks_total",
		"Valid pages relocated by garbage collection per region.", "region")
	gcErases := mt.Counter("noftl_region_gc_erases_total",
		"Victim blocks erased by garbage collection per region.", "region")
	gcStalls := mt.Counter("noftl_region_gc_stalls_total",
		"Foreground (blocking) collections at the low watermark per region.", "region")
	bgSteps := mt.Counter("noftl_region_bggc_steps_total",
		"Bounded background GC steps per region.", "region")
	wlMoves := mt.Counter("noftl_region_wear_moves_total",
		"Static wear-leveling block relocations per region.", "region")
	readLat := mt.Histogram("noftl_host_read_latency_seconds",
		"End-to-end virtual-time host read latency per region.", "region")
	writeLat := mt.Histogram("noftl_host_write_latency_seconds",
		"End-to-end virtual-time host write latency (including foreground GC) per region.", "region")
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
	for _, r := range st.Space.Regions {
		hostReads.Add(r.HostReads, r.Name)
		hostWrites.Add(r.HostWrites, r.Name)
		gcCopybacks.Add(r.GCCopybacks, r.Name)
		gcErases.Add(r.GCErases, r.Name)
		gcStalls.Add(r.GCStalls, r.Name)
		bgSteps.Add(r.BGGCSteps, r.Name)
		wlMoves.Add(r.WearMoves, r.Name)
		readLat.Histogram(r.ReadLatency, r.Name)
		writeLat.Histogram(r.WriteLatency, r.Name)
		validPages.Add(r.ValidPages, r.Name)
		capPages.Add(r.CapacityPages, r.Name)
		freeBlocks.Add(int64(r.FreeBlocks), r.Name)
		debt.Add(r.BGDebtBlocks, r.Name)
		inBand.Add(int64(r.DiesInBGBand), r.Name)
		atLow.Add(int64(r.DiesAtLowWater), r.Name)
		victims.Add(int64(r.BGVictimsOpen), r.Name)
		retained.Add(r.RetainedPages, r.Name)
	}
	objects := mt.Counter("noftl_object_io_total",
		"Flash commands executed for each database object's pages: host reads, host writes of a new page (write_first) and of a mapped one (write_over), GC copybacks.",
		"object", "kind", "op")
	for _, o := range st.Objects {
		objects.Add(o.Reads, o.Name, o.Kind, "read")
		objects.Add(o.Writes-o.Supersedes, o.Name, o.Kind, "write_first")
		objects.Add(o.Supersedes, o.Name, o.Kind, "write_over")
		objects.Add(o.Copybacks, o.Name, o.Kind, "copyback")
	}

	counter("noftl_buffer_hits_total", "Buffer-pool hits.", st.Buffer.Hits)
	counter("noftl_buffer_misses_total", "Buffer-pool demand misses.", st.Buffer.Misses)
	counter("noftl_buffer_evictions_total", "Buffer-pool frame evictions.", st.Buffer.Evictions)
	counter("noftl_buffer_writebacks_total", "Dirty pages written back by the buffer pool.", st.Buffer.Writebacks)
	gauge("noftl_buffer_resident_pages", "Pages currently resident in the buffer pool.", int64(st.Buffer.Resident))
	gauge("noftl_buffer_dirty_pages", "Dirty pages currently resident in the buffer pool.", int64(st.Buffer.Dirty))

	w := st.WAL
	counter("noftl_wal_appends_total", "WAL records appended.", w.Appended)
	counter("noftl_wal_flushes_total", "WAL flushes that wrote pages.", w.Flushes)
	counter("noftl_wal_bytes_appended_total", "Encoded WAL record bytes appended.", w.BytesAppended)
	counter("noftl_wal_bytes_trimmed_total",
		"Encoded WAL record bytes dropped by checkpoint truncation.", w.BytesTrimmed)
	gauge("noftl_wal_flushed_lsn", "Highest durable WAL log sequence number.", int64(w.FlushedLSN))
	gauge("noftl_wal_bytes_live",
		"Encoded WAL record bytes held by live log pages (crash-replay upper bound).", w.BytesLive)
	counter("noftl_wal_checkpoints_total",
		"Checkpoints taken (dirty pages flushed, the flash image described at the head of the WAL).", w.Checkpoint.Count)
	gauge("noftl_wal_checkpoint_last_lsn",
		"LSN of the last checkpoint's end mark (recovery filters the records after it by commit).", int64(w.Checkpoint.LastLSN))
	gauge("noftl_wal_checkpoint_last_bytes",
		"Encoded size of the last checkpoint's records in bytes.", w.Checkpoint.LastBytes)
	gauge("noftl_wal_checkpoint_last_pages",
		"Dirty pages the last checkpoint flushed.", w.Checkpoint.LastPages)

	counter("noftl_txn_started_total", "Transactions started.", st.TxnStarted)
	counter("noftl_txn_committed_total", "Transactions committed.", st.TxnCommitted)
	counter("noftl_txn_aborted_total", "Transactions aborted.", st.TxnAborted)
	counter("noftl_txn_lock_waits_total", "Lock acquisitions that had to block.", st.Txn.LockWaits)
	counter("noftl_txn_lock_timeouts_total",
		"Lock waits that failed (ErrLockTimeout): at once on a deadlock, or past the virtual-time wait budget.", st.Txn.LockTimeouts)
	gauge("noftl_txn_locks_held", "Keys currently locked (shared or exclusive).", st.Txn.LocksHeld)
	gauge("noftl_txn_locks_waiting", "Transactions currently blocked on a lock.", st.Txn.LockWaiting)

	if db.tracer != nil { // set at open: the families exist while tracing is on, whatever they count
		counter("noftl_trace_events_recorded_total", "Trace events recorded.", st.Trace.Recorded)
		counter("noftl_trace_events_dropped_total",
			"Trace events overwritten after the ring buffer wrapped.", st.Trace.Dropped)
	}
	return mt.String()
}
