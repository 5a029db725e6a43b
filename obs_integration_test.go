package noftl

import (
	"bytes"
	"fmt"
	"io"
	"slices"
	"strings"
	"testing"

	"noftl/internal/core"
	"noftl/internal/flash"
	"noftl/internal/metrics"
	"noftl/internal/obs"
)

// obsConfig returns a deliberately tiny device so an update-heavy workload
// forces garbage collection within a few thousand writes, with background GC
// disabled so every collection is a foreground (blocking) one — the
// interference the trace summary must surface.
func obsConfig() Config {
	cfg := DefaultConfig()
	cfg.Flash.Geometry = flash.Geometry{
		Channels: 2, DiesPerChannel: 2, PlanesPerDie: 1,
		BlocksPerDie: 16, PagesPerBlock: 16, PageSize: 2048,
	}
	cfg.BufferPoolPages = 32
	cfg.Space = core.DefaultOptions()
	cfg.Space.DisableBackgroundGC = true
	// The WAL carries row images now; without a checkpoint trigger the
	// update churn would fill the tiny default region with live log pages.
	cfg.CheckpointEveryBytes = 256 << 10
	return cfg
}

// obsWorkload creates a region-resident table and churns it: insert rows,
// then update every row across several rounds with a checkpoint per round so
// the overwrites actually reach flash and invalidate pages.
func obsWorkload(t *testing.T, db *DB, rows, rounds int) {
	t.Helper()
	err := db.Exec(`
		CREATE REGION rgHot (MAX_CHIPS=2);
		CREATE TABLESPACE tsHot (REGION=rgHot);
		CREATE TABLE H (v VARCHAR(900)) TABLESPACE tsHot;
	`)
	if err != nil {
		t.Fatal(err)
	}
	tbl, _ := db.Table("H")
	row := bytes.Repeat([]byte{'x'}, 900)
	rids := make([]RID, 0, rows)
	err = db.Update(func(tx *Tx) error {
		var err error
		rids, err = tbl.InsertBatch(tx, repeatRows(row, rows))
		return err
	})
	if err != nil {
		t.Fatal(err)
	}
	for round := 0; round < rounds; round++ {
		err = db.Update(func(tx *Tx) error {
			for _, rid := range rids {
				if err := tbl.Update(tx, rid, row); err != nil {
					return err
				}
			}
			return nil
		})
		if err != nil {
			t.Fatal(err)
		}
		if _, err := db.FlushAll(db.SimulatedTime()); err != nil {
			t.Fatal(err)
		}
	}
}

func repeatRows(row []byte, n int) [][]byte {
	out := make([][]byte, n)
	for i := range out {
		out[i] = row
	}
	return out
}

// TestObservabilityEndToEnd boots with tracing on, churns a region until
// foreground GC fires, then (1) validates the exposition MetricsText renders
// with the in-repo linter, and (2) loads the JSONL trace Admin().TraceDump
// writes after Close and checks that the summary reproduces the A6 story —
// host writes that overlap a GC window on their die are slower than clean
// ones.
func TestObservabilityEndToEnd(t *testing.T) {
	db, err := OpenConfig(obsConfig(), WithTraceBuffer(0))
	if err != nil {
		t.Fatal(err)
	}
	obsWorkload(t, db, 150, 14)

	space := db.Stats().Space
	if space.GCRuns == 0 || space.GCStalls == 0 {
		t.Fatalf("workload did not force foreground GC: runs=%d stalls=%d (enlarge the churn)",
			space.GCRuns, space.GCStalls)
	}

	// --- metrics plane ---
	lint := metrics.LintExposition([]byte(db.MetricsText()))
	if !lint.Valid() {
		t.Fatalf("exposition invalid:\n%s", strings.Join(lint.Problems, "\n"))
	}
	if len(lint.Families) < 10 {
		t.Fatalf("want >= 10 metric families, got %d", len(lint.Families))
	}
	if len(lint.LabelValues("die")) == 0 {
		t.Fatal("no die-labeled series in the exposition")
	}
	regions := lint.LabelValues("region")
	found := false
	for _, r := range regions {
		if r == "rgHot" {
			found = true
		}
	}
	if !found {
		t.Fatalf("region label values %v do not include rgHot", regions)
	}

	// Stats surfaces the tracer state.
	st := db.Stats()
	if st.Trace.Recorded == 0 {
		t.Fatal("Stats().Trace.Recorded = 0 with tracing on")
	}

	// --- trace plane ---
	if err := db.Close(); err != nil {
		t.Fatal(err)
	}
	var trace bytes.Buffer
	if _, err := db.Admin().TraceDump(&trace); err != nil {
		t.Fatal(err)
	}
	events, err := obs.LoadJSONL(bytes.NewReader(trace.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	if len(events) == 0 {
		t.Fatal("the trace holds no events")
	}
	sum := obs.Summarize(events)
	if sum.HostWrite.Count == 0 {
		t.Fatal("summary has no host writes")
	}
	if sum.PerClass[obs.ClassGCStep] == 0 || sum.PerClass[obs.ClassGCErase] == 0 {
		t.Fatalf("summary has no GC activity: steps=%d erases=%d",
			sum.PerClass[obs.ClassGCStep], sum.PerClass[obs.ClassGCErase])
	}
	// The A6 story: writes that overlapped a GC window on their die are
	// slower than clean writes.
	if sum.GC.Interfered.Count == 0 {
		t.Fatal("no GC-interfered host writes despite foreground stalls")
	}
	if sum.GC.SlowdownX <= 1 {
		t.Fatalf("GC slowdown %.2fx, want > 1x", sum.GC.SlowdownX)
	}
	report := sum.String()
	for _, want := range []string{"GC interference", "slowdown:"} {
		if !strings.Contains(report, want) {
			t.Fatalf("summary report missing %q:\n%s", want, report)
		}
	}
}

// TestMetricsTextWithTracingOff checks the path without a tracer:
// MetricsText still renders a valid exposition without trace families, and
// the trace facade degrades to no-ops instead of erroring.
func TestMetricsTextWithTracingOff(t *testing.T) {
	db, err := OpenConfig(smallConfig())
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()
	if err := db.Exec("CREATE TABLE P (v VARCHAR(64))"); err != nil {
		t.Fatal(err)
	}
	tbl, _ := db.Table("P")
	err = db.Update(func(tx *Tx) error {
		for i := 0; i < 32; i++ {
			if _, err := tbl.Insert(tx, []byte(fmt.Sprintf("row-%d", i))); err != nil {
				return err
			}
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}

	text := db.MetricsText()
	lint := metrics.LintExposition([]byte(text))
	if !lint.Valid() {
		t.Fatalf("exposition invalid:\n%s", strings.Join(lint.Problems, "\n"))
	}
	if _, ok := lint.Families["noftl_trace_events_recorded_total"]; ok {
		t.Fatal("trace families exported with tracing off")
	}

	n, err := db.Admin().TraceDump(io.Discard)
	if err != nil || n != 0 {
		t.Fatalf("TraceDump without tracer: n=%d err=%v", n, err)
	}
	if st := db.Stats(); st.Trace != (TraceStats{}) {
		t.Fatalf("Trace stats non-zero with tracing off: %+v", st.Trace)
	}
}

// TestTraceBufferWithoutWriter checks WithTraceBuffer alone: tracing is live
// and reachable through Admin().TraceDump mid-run.
func TestTraceBufferWithoutWriter(t *testing.T) {
	db, err := OpenConfig(smallConfig(), WithTraceBuffer(4096))
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()
	if err := db.Exec("CREATE TABLE Q (v VARCHAR(64))"); err != nil {
		t.Fatal(err)
	}
	tbl, _ := db.Table("Q")
	err = db.Update(func(tx *Tx) error {
		_, err := tbl.Insert(tx, []byte("hello"))
		return err
	})
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	n, err := db.Admin().TraceDump(&buf)
	if err != nil || n == 0 {
		t.Fatalf("TraceDump: n=%d err=%v", n, err)
	}
	events, err := obs.LoadJSONL(&buf)
	if err != nil || len(events) != n {
		t.Fatalf("round trip: %d events, err=%v (dumped %d)", len(events), err, n)
	}
}

// checkStatsEqualMetrics asserts that every field Stats() shares with a
// noftl_* family of MetricsText() carries the same value in both views.
func checkStatsEqualMetrics(t *testing.T, db *DB, stage string) Stats {
	t.Helper()
	st := db.Stats()
	lint := metrics.LintExposition([]byte(db.MetricsText()))
	if !lint.Valid() {
		t.Fatalf("%s: exposition invalid:\n%s", stage, strings.Join(lint.Problems, "\n"))
	}
	eq := func(want int64, name string, labels ...string) {
		t.Helper()
		if got := lint.Sum(name, labels...); got != float64(want) {
			t.Errorf("%s: Stats says %d, /metrics says %g for %s%v", stage, want, got, name, labels)
		}
	}

	eq(int64(st.Simulated), "noftl_simulated_time_nanoseconds")
	eq(st.TxnStarted, "noftl_txn_started_total")
	eq(st.TxnCommitted, "noftl_txn_committed_total")
	eq(st.TxnAborted, "noftl_txn_aborted_total")
	eq(st.Txn.LockWaits, "noftl_txn_lock_waits_total")
	eq(st.Txn.LockTimeouts, "noftl_txn_lock_timeouts_total")
	eq(st.Txn.LocksHeld, "noftl_txn_locks_held")
	eq(st.Txn.LockWaiting, "noftl_txn_locks_waiting")

	eq(st.Buffer.Hits, "noftl_buffer_hits_total")
	eq(st.Buffer.Misses, "noftl_buffer_misses_total")
	eq(st.Buffer.Evictions, "noftl_buffer_evictions_total")
	eq(st.Buffer.Writebacks, "noftl_buffer_writebacks_total")
	eq(int64(st.Buffer.Resident), "noftl_buffer_resident_pages")
	eq(int64(st.Buffer.Dirty), "noftl_buffer_dirty_pages")

	sc := st.Scheduler
	eq(sc.Batches, "noftl_iosched_batches_total")
	eq(sc.Requests, "noftl_iosched_requests_total")
	eq(sc.HostReads, "noftl_iosched_requests_total", "priority", "host_read")
	eq(sc.HostWrites, "noftl_iosched_requests_total", "priority", "host_write")
	eq(sc.GC, "noftl_iosched_requests_total", "priority", "gc")
	eq(sc.GCSteps, "noftl_region_bggc_steps_total")
	eq(sc.GCStalls, "noftl_region_gc_stalls_total")
	eq(sc.HostReadLatency.Count, "noftl_iosched_request_latency_seconds_count", "priority", "host_read")
	eq(sc.HostWriteLatency.Count, "noftl_iosched_request_latency_seconds_count", "priority", "host_write")
	eq(sc.GCLatency.Count, "noftl_iosched_request_latency_seconds_count", "priority", "gc")

	sp := st.Space
	eq(sp.HostReads, "noftl_region_host_reads_total")
	eq(sp.HostWrites, "noftl_region_host_writes_total")
	eq(sp.GCCopybacks, "noftl_region_gc_copybacks_total")
	eq(sp.GCErases, "noftl_region_gc_erases_total")
	eq(sp.GCStalls, "noftl_region_gc_stalls_total")
	eq(sp.BGGCSteps, "noftl_region_bggc_steps_total")
	eq(sp.WearMoves, "noftl_region_wear_moves_total")
	eq(st.ReadLatency.Count, "noftl_host_read_latency_seconds_count")
	eq(st.WriteLatency.Count, "noftl_host_write_latency_seconds_count")
	for _, r := range sp.Regions {
		eq(r.HostReads, "noftl_region_host_reads_total", "region", r.Name)
		eq(r.HostWrites, "noftl_region_host_writes_total", "region", r.Name)
		eq(r.GCCopybacks, "noftl_region_gc_copybacks_total", "region", r.Name)
		eq(r.GCErases, "noftl_region_gc_erases_total", "region", r.Name)
		eq(r.GCStalls, "noftl_region_gc_stalls_total", "region", r.Name)
		eq(r.BGGCSteps, "noftl_region_bggc_steps_total", "region", r.Name)
		eq(r.WearMoves, "noftl_region_wear_moves_total", "region", r.Name)
		eq(r.ReadLatency.Count, "noftl_host_read_latency_seconds_count", "region", r.Name)
		eq(r.WriteLatency.Count, "noftl_host_write_latency_seconds_count", "region", r.Name)
		eq(r.RetainedPages, "noftl_space_retained_pages", "region", r.Name)
		eq(r.ValidPages, "noftl_region_valid_pages", "region", r.Name)
		eq(r.CapacityPages, "noftl_region_capacity_pages", "region", r.Name)
		eq(int64(r.FreeBlocks), "noftl_region_free_blocks", "region", r.Name)
		eq(r.BGDebtBlocks, "noftl_bggc_debt_blocks", "region", r.Name)
		eq(int64(r.DiesInBGBand), "noftl_bggc_dies_in_band", "region", r.Name)
		eq(int64(r.DiesAtLowWater), "noftl_bggc_dies_at_low_water", "region", r.Name)
		eq(int64(r.BGVictimsOpen), "noftl_bggc_victims_open", "region", r.Name)
	}

	// The per-object family: Stats().Objects is the scrape, and the objects sum
	// to the regions (every command is charged to exactly one object, the
	// unattributed one included).
	const objFamily = "noftl_object_io_total"
	var objReads, objWrites, objCopybacks int64
	listed := map[string]bool{core.UnattributedObject: true}
	for _, o := range st.Objects {
		listed[o.Name] = true
		eq(o.Reads, objFamily, "object", o.Name, "kind", o.Kind, "op", "read")
		eq(o.Writes-o.Supersedes, objFamily, "object", o.Name, "kind", o.Kind, "op", "write_first")
		eq(o.Supersedes, objFamily, "object", o.Name, "kind", o.Kind, "op", "write_over")
		eq(o.Copybacks, objFamily, "object", o.Name, "kind", o.Kind, "op", "copyback")
		objReads, objWrites, objCopybacks = objReads+o.Reads, objWrites+o.Writes, objCopybacks+o.Copybacks
	}
	for _, name := range lint.LabelValues("object") {
		if !listed[name] {
			t.Errorf("%s: /metrics has object %q, Stats().Objects does not", stage, name)
		}
	}
	if objReads != sp.HostReads || objWrites != sp.HostWrites || objCopybacks != sp.GCCopybacks {
		t.Errorf("%s: objects sum to %d reads, %d writes, %d copybacks; the regions to %d, %d, %d",
			stage, objReads, objWrites, objCopybacks, sp.HostReads, sp.HostWrites, sp.GCCopybacks)
	}
	eq(sp.HostReads, objFamily, "op", "read")
	eq(sp.HostWrites-int64(lint.Sum(objFamily, "op", "write_over")), objFamily, "op", "write_first")
	eq(sp.GCCopybacks, objFamily, "op", "copyback")

	eq(st.Device.Reads, "noftl_device_reads_total")
	eq(st.Device.Programs, "noftl_device_programs_total")
	eq(st.Device.Erases, "noftl_device_erases_total")
	for _, d := range st.Device.PerDie {
		die := fmt.Sprint(d.Die)
		eq(d.Reads, "noftl_device_reads_total", "die", die)
		eq(d.Programs, "noftl_device_programs_total", "die", die)
		eq(d.Erases, "noftl_device_erases_total", "die", die)
	}

	w := st.WAL
	eq(w.Appended, "noftl_wal_appends_total")
	eq(w.Flushes, "noftl_wal_flushes_total")
	eq(int64(w.FlushedLSN), "noftl_wal_flushed_lsn")
	eq(w.GroupedTxns, "noftl_wal_grouped_txns_total")
	eq(w.BytesAppended, "noftl_wal_bytes_appended_total")
	eq(w.BytesTrimmed, "noftl_wal_bytes_trimmed_total")
	eq(w.BytesLive, "noftl_wal_bytes_live")
	eq(w.Checkpoint.Count, "noftl_wal_checkpoints_total")
	eq(int64(w.Checkpoint.LastLSN), "noftl_wal_checkpoint_last_lsn")
	eq(w.Checkpoint.LastBytes, "noftl_wal_checkpoint_last_bytes")
	eq(w.Checkpoint.LastPages, "noftl_wal_checkpoint_last_pages")
	eq(w.Checkpoint.RetainedPages, "noftl_space_retained_pages")

	eq(st.Trace.Recorded, "noftl_trace_events_recorded_total")
	eq(st.Trace.Dropped, "noftl_trace_events_dropped_total")
	return st
}

// TestStatsEqualsMetrics is the single-owner invariant: Stats() and /metrics
// are two views of the same registry children, so every fact they share is
// equal — after a mixed workload with GC, a checkpoint and injected program
// faults (a failed I/O is where the old double bookkeeping drifted apart),
// right after ResetStatistics, and after more work on top of the reset.
func TestStatsEqualsMetrics(t *testing.T) {
	db, err := OpenConfig(obsConfig(), WithTraceBuffer(1<<12))
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()
	db.Admin().ArmFaults(FaultPlan{Seed: 3, FailProgramEvery: 211})
	obsWorkload(t, db, 150, 8)
	tbl, _ := db.Table("H")
	readAll := func() {
		t.Helper()
		err := db.View(func(tx *Tx) error {
			for range tbl.Rows(tx) {
			}
			return tx.Err()
		})
		if err != nil {
			t.Fatal(err)
		}
	}
	readAll()
	if _, err := db.Checkpoint(db.SimulatedTime()); err != nil {
		t.Fatal(err)
	}

	st := checkStatsEqualMetrics(t, db, "after workload")
	if st.Space.GCErases == 0 || st.WAL.Checkpoint.Count == 0 || st.Buffer.Misses == 0 ||
		st.TxnAborted == 0 || st.Trace.Dropped == 0 {
		t.Fatalf("degenerate workload (needs GC, a checkpoint, misses, an abort, a wrapped trace ring): %+v", st)
	}
	for _, name := range []string{"H", "WAL"} {
		i := slices.IndexFunc(st.Objects, func(o ObjectCounters) bool { return o.Name == name })
		if i < 0 || st.Objects[i].Writes == 0 || st.Objects[i].Supersedes == 0 || st.Objects[i].DieTime <= 0 || st.Objects[i].SizePages == 0 {
			t.Fatalf("%s has no device-side record of the churn: %+v", name, st.Objects)
		}
	}
	// Every host-priority program is a WritePage(s) of some region, counted
	// there once it succeeds: the surplus is the injected program faults.
	if st.Scheduler.HostWrites <= st.Space.HostWrites {
		t.Fatalf("no program fault fired: %d host-write requests for %d host writes",
			st.Scheduler.HostWrites, st.Space.HostWrites)
	}

	db.ResetStatistics()
	st = checkStatsEqualMetrics(t, db, "after reset")
	if st.Space.HostWrites != 0 || st.Device.Programs != 0 || st.Scheduler.Requests != 0 ||
		st.WAL.Appended != 0 || st.TxnCommitted != 0 || st.WAL.Checkpoint.Count != 0 {
		t.Fatalf("reset incomplete: %+v", st)
	}

	err = db.Update(func(tx *Tx) error {
		var rids []RID // a scan's body may not write its table: collect first, update after
		for rid := range tbl.Rows(tx) {
			rids = append(rids, rid)
		}
		for _, rid := range rids {
			if err := tbl.Update(tx, rid, bytes.Repeat([]byte{'y'}, 900)); err != nil {
				return err
			}
		}
		return tx.Err()
	})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := db.FlushAll(db.SimulatedTime()); err != nil {
		t.Fatal(err)
	}
	st = checkStatsEqualMetrics(t, db, "after post-reset work")
	if st.Space.HostWrites == 0 || st.TxnCommitted == 0 {
		t.Fatalf("post-reset work left no trace in the counters: %+v", st)
	}

	// Overwrite a few pages of the last checkpoint's image: few enough that the
	// versions they supersede stay retained instead of triggering a checkpoint.
	if _, err := db.Checkpoint(db.SimulatedTime()); err != nil {
		t.Fatal(err)
	}
	err = db.Update(func(tx *Tx) error {
		var rids []RID // a scan's body may not write its table: collect first, update after
		for rid := range tbl.Rows(tx) {
			if rids = append(rids, rid); len(rids) == 8 {
				break
			}
		}
		for _, rid := range rids {
			if err := tbl.Update(tx, rid, bytes.Repeat([]byte{'z'}, 900)); err != nil {
				return err
			}
		}
		return tx.Err()
	})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := db.FlushAll(db.SimulatedTime()); err != nil {
		t.Fatal(err)
	}
	st = checkStatsEqualMetrics(t, db, "after a small overwrite")
	if st.WAL.Checkpoint.RetainedPages == 0 || st.WAL.Checkpoint.RetainedPages != st.Space.RetainedPages {
		t.Fatalf("retained pages: checkpoint stats say %d, space stats %d, want the same and some",
			st.WAL.Checkpoint.RetainedPages, st.Space.RetainedPages)
	}
}

// TestDroppedObjectsLeaveTheStatistics is the regression test for the objects
// the old collector never forgot: a dropped table and its index are gone from
// Stats().Objects and from /metrics, what they cost stays in the sums under the
// unattributed child, and a table re-created under the name counts from zero.
func TestDroppedObjectsLeaveTheStatistics(t *testing.T) {
	db, err := OpenConfig(smallConfig())
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()
	load := func() int64 {
		t.Helper()
		if err := db.Exec(`CREATE TABLE T (v VARCHAR(200)); CREATE INDEX T_IDX ON T (v); CREATE TABLE KEPT (v VARCHAR(200))`); err != nil {
			t.Fatal(err)
		}
		tbl, _ := db.Table("T")
		err := db.Update(func(tx *Tx) error {
			_, err := tbl.InsertBatch(tx, repeatRows(bytes.Repeat([]byte{'r'}, 200), 1000))
			return err
		})
		if err != nil {
			t.Fatal(err)
		}
		if _, err := db.FlushAll(db.SimulatedTime()); err != nil {
			t.Fatal(err)
		}
		for _, o := range checkStatsEqualMetrics(t, db, "loaded").Objects {
			if o.Name == "T" {
				return o.Writes
			}
		}
		t.Fatal("T has no record")
		return 0
	}
	first := load()
	if first == 0 {
		t.Fatal("the load wrote no page of T")
	}
	if err := db.Exec(`DROP TABLE T`); err != nil {
		t.Fatal(err)
	}
	st := checkStatsEqualMetrics(t, db, "dropped")
	text := db.MetricsText()
	for _, name := range []string{"T", "T_IDX"} {
		if slices.ContainsFunc(st.Objects, func(o ObjectCounters) bool { return o.Name == name }) ||
			strings.Contains(text, `object="`+name+`"`) {
			t.Errorf("dropped %s is still in Stats().Objects or /metrics:\n%+v", name, st.Objects)
		}
	}
	if !slices.ContainsFunc(st.Objects, func(o ObjectCounters) bool { return o.Name == "KEPT" }) {
		t.Errorf("the live KEPT is missing from Stats().Objects:\n%+v", st.Objects)
	}
	if err := db.Exec(`DROP TABLE KEPT`); err != nil {
		t.Fatal(err)
	}
	if again := load(); again != first {
		t.Errorf("the re-created T shows %d page writes after the same load, the first T %d: it must count from zero", again, first)
	}
}

// batchIOWorkload bulk-loads rows full pages at a time (WriteThrough), takes
// a checkpoint (group write-back) and reads everything back through a pool
// too small to hold it (FetchMany): all of its host I/O is batched.
func batchIOWorkload(t *testing.T, db *DB, rows int) {
	t.Helper()
	if err := db.Exec(`CREATE TABLE B (v VARCHAR(900))`); err != nil {
		t.Fatal(err)
	}
	tbl, _ := db.Table("B")
	var rids []RID
	err := db.Update(func(tx *Tx) error {
		var err error
		rids, err = tbl.InsertBatch(tx, repeatRows(bytes.Repeat([]byte{'b'}, 900), rows))
		return err
	})
	if err != nil {
		t.Fatalf("InsertBatch: %v", err)
	}
	if _, err := db.Checkpoint(db.SimulatedTime()); err != nil {
		t.Fatalf("Checkpoint: %v", err)
	}
	err = db.View(func(tx *Tx) error {
		const chunk = 50 // pages of one GetBatch must fit the pool together
		for i := 0; i < len(rids); i += chunk {
			got, err := tbl.GetBatch(tx, rids[i:min(i+chunk, len(rids))])
			if err != nil {
				return err
			}
			if len(got) != min(chunk, len(rids)-i) {
				return fmt.Errorf("GetBatch returned %d rows", len(got))
			}
		}
		return nil
	})
	if err != nil {
		t.Fatalf("GetBatch: %v", err)
	}
}

// TestBatchedHostIOIsTraced: every host page read and write is one trace
// event whichever entry carried it, so the batched paths (InsertBatch,
// checkpoint flush, GetBatch) are as visible to the trace as single pages.
func TestBatchedHostIOIsTraced(t *testing.T) {
	cfg := DefaultConfig()
	cfg.BufferPoolPages = 32
	db, err := OpenConfig(cfg, WithTraceBuffer(1<<16))
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()
	batchIOWorkload(t, db, 1000)

	events := map[obs.Class]int64{}
	for _, e := range db.tracer.Events() {
		events[e.Class]++
		if (e.Class == obs.ClassHostRead || e.Class == obs.ClassHostWrite) && (e.Die < 0 || e.End <= e.Start || e.A == 0) {
			t.Fatalf("host I/O event without die, duration or LPN: %+v", e)
		}
	}
	st := db.Stats()
	if st.Trace.Dropped != 0 {
		t.Fatalf("trace ring wrapped (%d dropped): the counts below would be short", st.Trace.Dropped)
	}
	if st.Buffer.GroupFlushes < 2 || st.Space.HostWrites < 200 || st.Space.HostReads < 200 {
		t.Fatalf("workload was not batched I/O: %+v %+v", st.Buffer, st.Space)
	}
	if events[obs.ClassHostWrite] != st.Space.HostWrites {
		t.Errorf("%d host-write events for %d host writes", events[obs.ClassHostWrite], st.Space.HostWrites)
	}
	if events[obs.ClassHostRead] != st.Space.HostReads {
		t.Errorf("%d host-read events for %d host reads", events[obs.ClassHostRead], st.Space.HostReads)
	}
}

// TestBatchedWritesSurviveProgramFaults: an injected transient program fault
// is retried inside the batch, so a bulk insert and a checkpoint flush
// succeed under it exactly as single-page writes do.
func TestBatchedWritesSurviveProgramFaults(t *testing.T) {
	cfg := DefaultConfig()
	cfg.BufferPoolPages = 32
	db, err := OpenConfig(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()
	db.Admin().ArmFaults(FaultPlan{FailProgramEvery: 13})
	batchIOWorkload(t, db, 1000)
	st := db.Stats()
	if st.Scheduler.HostWrites <= st.Space.HostWrites {
		t.Fatalf("no program fault fired: %d host-write requests for %d host writes",
			st.Scheduler.HostWrites, st.Space.HostWrites)
	}
}
