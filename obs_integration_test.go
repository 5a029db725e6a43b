package noftl

import (
	"bytes"
	"cmp"
	"fmt"
	"io"
	"math"
	"slices"
	"strconv"
	"strings"
	"testing"
	"time"

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
// the trace facade degrades to no-ops instead of erroring.  A tracer that has
// recorded nothing yet still has its families.
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

	// With tracing on, the trace families are there before the first event.
	traced, err := OpenConfig(smallConfig(), WithTraceBuffer(16))
	if err != nil {
		t.Fatal(err)
	}
	defer traced.Close()
	lint = metrics.LintExposition([]byte(traced.MetricsText()))
	if _, ok := lint.Families["noftl_trace_events_recorded_total"]; !ok || traced.Stats().Trace.Recorded != 0 {
		t.Fatalf("a tracer that recorded %d events exports the families %v", traced.Stats().Trace.Recorded, lint.Families)
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

// expositionQuantile returns the q-quantile metrics.Histogram.Quantile gives
// for one histogram holding the observations of every region's sample of the
// family: the bound of the first bucket whose cumulative count, summed over
// the samples, reaches ceil(q·count), clamped to the largest observation.
// The exposition lists only the buckets a sample filled, so a sample's
// cumulative count at a bound is the one it lists at the largest bound at or
// below it.
func expositionQuantile(lint metrics.LintResult, family string, regions []core.RegionStats,
	q float64, count int64, maxLat time.Duration) time.Duration {
	les := lint.LabelValues("le")
	bound := func(le string) float64 {
		b, err := strconv.ParseFloat(le, 64)
		if err != nil {
			panic(err)
		}
		return b
	}
	slices.SortFunc(les, func(a, b string) int { return cmp.Compare(bound(a), bound(b)) })
	target := max(int64(q*float64(count)+0.9999999), 1)
	cum := make([]float64, len(regions))
	for _, le := range les {
		var total float64
		for i, r := range regions {
			cum[i] = max(cum[i], lint.Sum(family+"_bucket", "region", r.Name, "le", le))
			total += cum[i]
		}
		if total >= float64(target) {
			if b := bound(le); !math.IsInf(b, 1) {
				return min(time.Duration(math.Round(b*1e9)), maxLat)
			}
			break
		}
	}
	return maxLat
}

// checkStatsEqualMetrics asserts that every field Stats() shares with a
// noftl_* family of MetricsText() carries the same value in both views, and
// that every counter and histogram family of the exposition is compared.
func checkStatsEqualMetrics(t *testing.T, db *DB, stage string) Stats {
	t.Helper()
	st := db.Stats()
	lint := metrics.LintExposition([]byte(db.MetricsText()))
	if !lint.Valid() {
		t.Fatalf("%s: exposition invalid:\n%s", stage, strings.Join(lint.Problems, "\n"))
	}
	compared := map[string]bool{}
	eq := func(want int64, name string, labels ...string) {
		t.Helper()
		compared[strings.TrimSuffix(name, "_count")] = true
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

	// The scheduler counts batches; its command counts are the device's.
	sc := st.Scheduler
	eq(sc.Batches, "noftl_iosched_batches_total")
	eq(sc.HostReads, "noftl_device_reads_total")
	eq(sc.HostWrites, "noftl_device_programs_total")
	if gc := st.Device.Copybacks + st.Device.Erases; sc.GC != gc || sc.Requests != sc.HostReads+sc.HostWrites+gc {
		t.Errorf("%s: scheduler GC %d and requests %d, the device's copybacks + erases %d and their sum with reads and programs %d",
			stage, sc.GC, sc.Requests, gc, sc.HostReads+sc.HostWrites+gc)
	}
	eq(sc.GCSteps, "noftl_region_bggc_steps_total")
	eq(sc.GCStalls, "noftl_region_gc_stalls_total")

	sp := st.Space
	eq(sp.HostReads, "noftl_region_host_reads_total")
	eq(sp.HostWrites, "noftl_region_host_writes_total")
	eq(sp.GCCopybacks, "noftl_region_gc_copybacks_total")
	eq(sp.GCErases, "noftl_region_gc_erases_total")
	eq(sp.GCStalls, "noftl_region_gc_stalls_total")
	eq(sp.BGGCSteps, "noftl_region_bggc_steps_total")
	eq(sp.WearMoves, "noftl_region_wear_moves_total")
	// The aggregate latencies summarise one histogram holding every region's
	// observations: the count, the sum and the P99 of the family's samples
	// merged.
	for _, h := range []struct {
		family string
		snap   metrics.Snapshot
		max    func(core.RegionStats) time.Duration
	}{
		{"noftl_host_read_latency_seconds", st.ReadLatency,
			func(r core.RegionStats) time.Duration { return r.ReadLatency.Max }},
		{"noftl_host_write_latency_seconds", st.WriteLatency,
			func(r core.RegionStats) time.Duration { return r.WriteLatency.Max }},
	} {
		eq(h.snap.Count, h.family+"_count")
		if h.snap.Count == 0 {
			continue
		}
		sum := int64(math.Round(lint.Sum(h.family+"_sum") * 1e9))
		if mean := time.Duration(sum / h.snap.Count); h.snap.Mean != mean {
			t.Errorf("%s: Stats says mean %v, /metrics says %v for %s", stage, h.snap.Mean, mean, h.family)
		}
		var maxLat time.Duration
		for _, r := range sp.Regions {
			maxLat = max(maxLat, h.max(r))
		}
		if h.snap.Max != maxLat {
			t.Errorf("%s: Stats says max %v, the regions %v for %s", stage, h.snap.Max, maxLat, h.family)
		}
		if p99 := expositionQuantile(lint, h.family, sp.Regions, 0.99, h.snap.Count, maxLat); h.snap.P99 != p99 {
			t.Errorf("%s: Stats says P99 %v, /metrics says %v for %s", stage, h.snap.P99, p99, h.family)
		}
	}
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
	for name, kind := range lint.Families {
		if (kind == "counter" || kind == "histogram") && !compared[name] {
			t.Errorf("%s: /metrics exports the %s %s, which no Stats() field is compared with", stage, kind, name)
		}
	}
	return st
}

// TestStatsEqualsMetrics is the single-owner invariant: Stats() and /metrics
// are two views of the same fields of the layers, so every fact they share is
// equal — after a mixed workload with GC, a checkpoint and injected program
// faults (a failed I/O is where the old double bookkeeping drifted apart),
// right after ResetStatistics, and after more work on top of the reset.
func TestStatsEqualsMetrics(t *testing.T) {
	db, err := OpenConfig(obsConfig(), WithTraceBuffer(1<<12))
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()
	const failEvery = 211
	db.Admin().ArmFaults(FaultPlan{FailProgramEvery: failEvery})
	armed := db.Stats().Device
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
	requireProgramFault(t, armed, st.Device, failEvery)

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

// TestReopenStartsTheCounts: the flash device outlives Crash and Reopen, and
// the reopened database counts from zero on it (the crashed instance's
// commands and the recovery scan's reads are not its own), busy time
// included, while the die timelines keep their virtual times.  The wanted
// counts are those the database printed before its counts became plain
// fields of the layers (the same workload, Crash and Reopen, rendered by
// reopenCounts); recovery's simulated times and every count must not move.
// A die's busy time is what its commands since the reopen cost: die 2's is one
// program, 4 erases and 58 copybacks (0.35 + 6 + 58 × 0.39 ms).
func TestReopenStartsTheCounts(t *testing.T) {
	db, err := OpenConfig(obsConfig())
	if err != nil {
		t.Fatal(err)
	}
	obsWorkload(t, db, 150, 8)
	if db, err = Reopen(db.Crash()); err != nil {
		t.Fatal(err)
	}
	defer db.Close()
	const want = `device reads=0 programs=1 erases=4 copybacks=58 bad=0
die 0 reads=0 programs=0 erases=0 copybacks=0 busy=0s wear=9 free=3
die 1 reads=0 programs=0 erases=0 copybacks=0 busy=0s wear=9 free=3
die 2 reads=0 programs=1 erases=4 copybacks=58 busy=28.97ms wear=13 free=2
die 3 reads=0 programs=0 erases=0 copybacks=0 busy=0s wear=9 free=3
region DEFAULT reads=0 writes=1 copybacks=58 erases=4 runs=4 stalls=1 bgsteps=0 wear=0 spills=0 valid=1 retained=0 read=0/0s write=1/47.445ms
region rgHot reads=0 writes=0 copybacks=0 erases=0 runs=0 stalls=0 bgsteps=0 wear=0 spills=0 valid=75 retained=0 read=0/0s write=0/0s
scheduler {Batches:9 Requests:63 MaxBatch:15 HostReads:0 HostWrites:1 GC:62 GCSteps:0 GCStalls:1}
buffer {Frames:32 Resident:0 Dirty:0 Hits:0 Misses:0 NewPages:0 Evictions:0 Writebacks:0 Prefetches:0 PrefetchHits:0 GroupFlushes:0}
wal {Appended:6 Flushes:1 Pages:1 FlushedLSN:1436 GroupCommits:0 BytesAppended:610 BytesTrimmed:0 BytesLive:610 PagesTrimmed:0 Checkpoint:{Count:1 LastLSN:1436 LastBytes:610 LastPages:0 RetainedPages:0 LastAt:343.630ms}}
`
	if got := reopenCounts(checkStatsEqualMetrics(t, db, "reopened")); got != want {
		t.Errorf("the reopened database counts\n%s\nwant\n%s", got, want)
	}
}

// reopenCounts renders the counts of Stats().Device, .Space, .Scheduler,
// .Buffer and .WAL, one line per die, per region and per section.
func reopenCounts(st Stats) string {
	var b strings.Builder
	d := st.Device
	fmt.Fprintf(&b, "device reads=%d programs=%d erases=%d copybacks=%d bad=%d\n",
		d.Reads, d.Programs, d.Erases, d.Copybacks, d.BadBlocks)
	for _, pd := range d.PerDie {
		fmt.Fprintf(&b, "die %d reads=%d programs=%d erases=%d copybacks=%d busy=%v wear=%d free=%d\n",
			pd.Die, pd.Reads, pd.Programs, pd.Erases, pd.Copybacks, pd.BusyTime, pd.TotalWear, pd.FreeBlocks)
	}
	for _, r := range st.Space.Regions {
		fmt.Fprintf(&b, "region %s reads=%d writes=%d copybacks=%d erases=%d runs=%d stalls=%d bgsteps=%d wear=%d spills=%d valid=%d retained=%d read=%d/%v write=%d/%v\n",
			r.Name, r.HostReads, r.HostWrites, r.GCCopybacks, r.GCErases, r.GCRuns, r.GCStalls, r.BGGCSteps,
			r.WearMoves, r.SpilledWrites, r.ValidPages, r.RetainedPages,
			r.ReadLatency.Count, r.ReadLatency.Mean, r.WriteLatency.Count, r.WriteLatency.Mean)
	}
	sc, w := st.Scheduler, st.WAL
	fmt.Fprintf(&b, "scheduler {Batches:%d Requests:%d MaxBatch:%d HostReads:%d HostWrites:%d GC:%d GCSteps:%d GCStalls:%d}\nbuffer %+v\n",
		sc.Batches, sc.Requests, sc.MaxBatch, sc.HostReads, sc.HostWrites, sc.GC, sc.GCSteps, sc.GCStalls, st.Buffer)
	fmt.Fprintf(&b, "wal {Appended:%d Flushes:%d Pages:%d FlushedLSN:%d GroupCommits:%d BytesAppended:%d BytesTrimmed:%d BytesLive:%d PagesTrimmed:%d Checkpoint:%+v}\n",
		w.Appended, w.Flushes, w.Pages, w.FlushedLSN, w.GroupCommits, w.BytesAppended, w.BytesTrimmed, w.BytesLive, w.PagesTrimmed, w.Checkpoint)
	return b.String()
}

// TestDroppedObjectsLeaveTheStatistics is the regression test for the objects
// and regions the old collector never forgot: a dropped table and its index
// are gone from Stats().Objects and from /metrics, what they cost stays in the
// sums under the unattributed record, and a table re-created under the name
// counts from zero.  A dropped region leaves /metrics the same way, so the
// noftl_region_* sums stay those of Stats().Space, and a region re-created
// under the name counts from zero.
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
		st := checkStatsEqualMetrics(t, db, "loaded")
		requireExposed(t, "loaded", db.MetricsText(), st.Objects, "T", "T_IDX", "KEPT")
		for _, o := range st.Objects {
			if o.Name == "T" {
				return o.Writes
			}
		}
		t.Fatal("T has no record")
		return 0
	}
	if err := db.Exec(`CREATE REGION rgX (MAX_CHIPS=2); CREATE TABLESPACE tsX (REGION=rgX); CREATE TABLE X (v VARCHAR(200)) TABLESPACE tsX`); err != nil {
		t.Fatal(err)
	}
	x, _ := db.Table("X")
	err = db.Update(func(tx *Tx) error {
		_, err := x.InsertBatch(tx, repeatRows(bytes.Repeat([]byte{'x'}, 200), 50))
		return err
	})
	if err != nil {
		t.Fatal(err)
	}
	checkStatsEqualMetrics(t, db, "rgX loaded") // rgX's gauges are exported once
	if err := db.Exec(`DROP TABLE X; DROP TABLESPACE tsX`); err != nil {
		t.Fatal(err)
	}
	space := db.Stats().Space
	if rgX, _ := space.RegionByName("rgX"); rgX.HostWrites == 0 || rgX.WriteLatency.Count == 0 {
		t.Fatalf("rgX has no host writes to leave behind: %+v", rgX)
	}
	if err := db.Exec(`DROP REGION rgX`); err != nil {
		t.Fatal(err)
	}
	st := checkStatsEqualMetrics(t, db, "rgX dropped")
	if text := db.MetricsText(); strings.Contains(text, `region="rgX"`) {
		t.Errorf("the dropped rgX is still in /metrics:\n%s", text)
	}
	// The default region takes the dies back, and with them what rgX counted.
	if len(st.Space.Regions) != 1 || st.Space.HostWrites < space.HostWrites || st.WriteLatency.Count < space.Regions[0].WriteLatency.Count+space.Regions[1].WriteLatency.Count {
		t.Errorf("after the drop Space lists %+v, before it %+v", st.Space, space)
	}
	if err := db.Exec(`CREATE REGION rgX (MAX_CHIPS=2)`); err != nil {
		t.Fatal(err)
	}
	st = checkStatsEqualMetrics(t, db, "rgX re-created")
	if rgX, _ := st.Space.RegionByName("rgX"); rgX.HostWrites != 0 || rgX.WriteLatency.Count != 0 || rgX.GCRuns != 0 {
		t.Errorf("the re-created rgX must count from zero: %+v", rgX)
	}

	first := load()
	if first == 0 {
		t.Fatal("the load wrote no page of T")
	}
	if err := db.Exec(`DROP TABLE T`); err != nil {
		t.Fatal(err)
	}
	st = checkStatsEqualMetrics(t, db, "dropped")
	text := db.MetricsText()
	requireExposed(t, "dropped", text, st.Objects, "KEPT", core.UnattributedObject)
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

// requireExposed fails unless each of names is in objects, and every object
// of objects, counted or not, has its samples in the exposition text.
func requireExposed(t *testing.T, stage, text string, objects []ObjectCounters, names ...string) {
	t.Helper()
	for _, name := range names {
		if !slices.ContainsFunc(objects, func(o ObjectCounters) bool { return o.Name == name }) {
			t.Errorf("%s: %s is missing from Stats().Objects:\n%+v", stage, name, objects)
		}
	}
	for _, o := range objects {
		if !strings.Contains(text, `noftl_object_io_total{object="`+o.Name+`",kind="`+o.Kind+`"`) {
			t.Errorf("%s: %s is in Stats().Objects but not in /metrics", stage, o.Name)
		}
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
	const failEvery = 13
	db.Admin().ArmFaults(FaultPlan{FailProgramEvery: failEvery})
	armed := db.Stats().Device
	batchIOWorkload(t, db, 1000)
	requireProgramFault(t, armed, db.Stats().Device, failEvery)
}

// requireProgramFault fails the test unless a plan refusing every failEvery-th
// program or copyback attempt since arming (the device at armed) refused one:
// the device counts only the commands it carried out, so at least failEvery of
// them since arming means the failEvery-th attempt came and was refused.
func requireProgramFault(t *testing.T, armed, now flash.Stats, failEvery int64) {
	t.Helper()
	if n := now.Programs + now.Copybacks - armed.Programs - armed.Copybacks; n < failEvery {
		t.Fatalf("no program fault fired: %d programs and copybacks since arming, the plan refuses every %dth", n, failEvery)
	}
}
