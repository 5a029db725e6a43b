package main

import (
	"math"

	"noftl"
)

// layerStats accumulates Stats() deltas over one or more measured windows.
// Counters add up across windows (TPC-C resets the statistics between
// rounds); gauges keep the value seen at the end of the last window.
type layerStats struct {
	counters map[string]float64
	gauges   map[string]float64
	// Per-region host writes and GC copybacks by region name, and per-die
	// busy time by die index, accumulated like the counters.
	regionWrites    map[string]float64
	regionCopybacks map[string]float64
	dieBusyNs       []float64
}

func newLayerStats() *layerStats {
	return &layerStats{
		counters:        make(map[string]float64),
		gauges:          make(map[string]float64),
		regionWrites:    make(map[string]float64),
		regionCopybacks: make(map[string]float64),
	}
}

// flattenCounters names every monotonic counter of a snapshot.  Latency
// histograms are carried as (sum, count) so means stay exact across windows.
func flattenCounters(st noftl.Stats) map[string]float64 {
	return map[string]float64{
		"sim_ns":            float64(st.Simulated),
		"txn.commits":       float64(st.TxnCommitted),
		"txn.aborts":        float64(st.TxnAborted),
		"txn.lock_waits":    float64(st.Txn.LockWaits),
		"txn.lock_timeouts": float64(st.Txn.LockTimeouts),

		"wal.records":       float64(st.WAL.Appended),
		"wal.bytes":         float64(st.WAL.BytesAppended),
		"wal.flushes":       float64(st.WAL.Flushes),
		"wal.group_commits": float64(st.WAL.GroupCommits),
		"wal.checkpoints":   float64(st.WAL.Checkpoint.Count),
		"wal.pages_trimmed": float64(st.WAL.PagesTrimmed),

		"buffer.hits":          float64(st.Buffer.Hits),
		"buffer.misses":        float64(st.Buffer.Misses),
		"buffer.evictions":     float64(st.Buffer.Evictions),
		"buffer.writebacks":    float64(st.Buffer.Writebacks),
		"buffer.group_flushes": float64(st.Buffer.GroupFlushes),
		"buffer.prefetches":    float64(st.Buffer.Prefetches),
		"buffer.prefetch_hits": float64(st.Buffer.PrefetchHits),

		"core.host_reads":    float64(st.Space.HostReads),
		"core.host_writes":   float64(st.Space.HostWrites),
		"core.gc_copybacks":  float64(st.Space.GCCopybacks),
		"core.gc_erases":     float64(st.Space.GCErases),
		"core.gc_runs":       float64(st.Space.GCRuns),
		"core.gc_stalls":     float64(st.Space.GCStalls),
		"core.bggc_steps":    float64(st.Space.BGGCSteps),
		"core.wear_moves":    float64(st.Space.WearMoves),
		"core.read_lat_ns":   float64(st.ReadLatency.Mean) * float64(st.ReadLatency.Count),
		"core.read_lat_n":    float64(st.ReadLatency.Count),
		"core.write_lat_ns":  float64(st.WriteLatency.Mean) * float64(st.WriteLatency.Count),
		"core.write_lat_n":   float64(st.WriteLatency.Count),
		"iosched.batches":    float64(st.Scheduler.Batches),
		"iosched.requests":   float64(st.Scheduler.Requests),
		"iosched.host_reads": float64(st.Scheduler.HostReads),
		"iosched.host_write": float64(st.Scheduler.HostWrites),
		"iosched.gc":         float64(st.Scheduler.GC),
		"iosched.gc_stalls":  float64(st.Scheduler.GCStalls),

		"flash.reads":     float64(st.Device.Reads),
		"flash.programs":  float64(st.Device.Programs),
		"flash.erases":    float64(st.Device.Erases),
		"flash.copybacks": float64(st.Device.Copybacks),
	}
}

// accumulate adds the window [before, after] to the totals.
func (l *layerStats) accumulate(before, after noftl.Stats) {
	b := flattenCounters(before)
	for k, v := range flattenCounters(after) {
		l.counters[k] += v - b[k]
	}
	for _, r := range after.Space.Regions {
		prev, _ := before.Space.RegionByName(r.Name)
		l.regionWrites[r.Name] += float64(r.HostWrites - prev.HostWrites)
		l.regionCopybacks[r.Name] += float64(r.GCCopybacks - prev.GCCopybacks)
	}
	if l.dieBusyNs == nil {
		l.dieBusyNs = make([]float64, len(after.Device.PerDie))
	}
	for i, d := range after.Device.PerDie {
		l.dieBusyNs[i] += float64(d.BusyTime - before.Device.PerDie[i].BusyTime)
	}
	l.gauges["wal.checkpoint_bytes_last"] = float64(after.WAL.Checkpoint.LastBytes)
	l.gauges["wal.live_bytes"] = float64(after.WAL.BytesLive)
	l.gauges["flash.bad_blocks"] = float64(after.Device.BadBlocks)
	l.gauges["iosched.max_batch"] = math.Max(l.gauges["iosched.max_batch"], float64(after.Scheduler.MaxBatch))
	var wear int64
	for _, d := range after.Device.PerDie {
		wear = max(wear, d.MaxWear)
	}
	l.gauges["flash.wear_max"] = float64(wear)
}

// ratio is a/b, 0 when b is 0.
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// writeAmp is (host writes + copybacks) / host writes, 0 without host writes.
func writeAmp(hostWrites, copybacks float64) float64 {
	return ratio(hostWrites+copybacks, hostWrites)
}

// metrics derives the Stats()-backed per-layer metrics for ops operations.
func (l *layerStats) metrics(ops float64, out map[string]float64) {
	c, g := l.counters, l.gauges
	simNs := c["sim_ns"]

	out["txn.commits"] = c["txn.commits"]
	out["txn.aborts"] = c["txn.aborts"]
	out["txn.lock_waits"] = c["txn.lock_waits"]
	out["txn.lock_timeouts"] = c["txn.lock_timeouts"]

	out["wal.records_per_op"] = ratio(c["wal.records"], ops)
	out["wal.bytes_per_op"] = ratio(c["wal.bytes"], ops)
	out["wal.flushes_per_op"] = ratio(c["wal.flushes"], ops)
	out["wal.group_commits"] = c["wal.group_commits"]
	out["wal.checkpoints"] = c["wal.checkpoints"]
	out["wal.pages_trimmed"] = c["wal.pages_trimmed"]
	out["wal.checkpoint_mb_last"] = g["wal.checkpoint_bytes_last"] / 1e6
	out["wal.live_mb_end"] = g["wal.live_bytes"] / 1e6

	out["buffer.hit_ratio"] = ratio(c["buffer.hits"], c["buffer.hits"]+c["buffer.misses"])
	out["buffer.misses_per_op"] = ratio(c["buffer.misses"], ops)
	out["buffer.evictions_per_op"] = ratio(c["buffer.evictions"], ops)
	out["buffer.writebacks_per_op"] = ratio(c["buffer.writebacks"], ops)
	out["buffer.group_flushes"] = c["buffer.group_flushes"]
	out["buffer.prefetches"] = c["buffer.prefetches"]
	out["buffer.prefetch_hits"] = c["buffer.prefetch_hits"]

	out["core.host_reads_per_op"] = ratio(c["core.host_reads"], ops)
	out["core.host_writes_per_op"] = ratio(c["core.host_writes"], ops)
	out["core.gc_copybacks_per_op"] = ratio(c["core.gc_copybacks"], ops)
	out["core.gc_erases"] = c["core.gc_erases"]
	out["core.gc_runs"] = c["core.gc_runs"]
	out["core.gc_stalls"] = c["core.gc_stalls"]
	out["core.bggc_steps"] = c["core.bggc_steps"]
	out["core.wear_moves"] = c["core.wear_moves"]
	out["core.read_4k_mean_us"] = ratio(c["core.read_lat_ns"], c["core.read_lat_n"]) / 1e3
	out["core.write_4k_mean_us"] = ratio(c["core.write_lat_ns"], c["core.write_lat_n"]) / 1e3
	out["core.write_amp"] = writeAmp(c["core.host_writes"], c["core.gc_copybacks"])
	out["core.gc_erases_per_kop"] = ratio(c["core.gc_erases"], ops) * 1e3
	waMin, waMax := 0.0, 0.0
	for region, hw := range l.regionWrites {
		if hw == 0 {
			continue
		}
		wa := writeAmp(hw, l.regionCopybacks[region])
		if waMin == 0 || wa < waMin {
			waMin = wa
		}
		waMax = math.Max(waMax, wa)
	}
	out["core.region_write_amp_max"] = waMax
	out["core.region_write_amp_min"] = waMin

	out["iosched.batches_per_op"] = ratio(c["iosched.batches"], ops)
	out["iosched.requests_per_batch"] = ratio(c["iosched.requests"], c["iosched.batches"])
	out["iosched.max_batch"] = g["iosched.max_batch"]
	out["iosched.host_read_reqs"] = c["iosched.host_reads"]
	out["iosched.host_write_reqs"] = c["iosched.host_write"]
	out["iosched.gc_reqs"] = c["iosched.gc"]
	out["iosched.gc_watermark_stalls"] = c["iosched.gc_stalls"]

	out["flash.reads"] = c["flash.reads"]
	out["flash.programs"] = c["flash.programs"]
	out["flash.erases"] = c["flash.erases"]
	out["flash.copybacks"] = c["flash.copybacks"]
	out["flash.writes_per_op"] = ratio(c["flash.programs"]+c["flash.copybacks"], ops)
	var busySum, busyMax float64
	for _, b := range l.dieBusyNs {
		busySum += b
		busyMax = math.Max(busyMax, b)
	}
	out["flash.die_busy_mean_pct"] = 100 * ratio(busySum, simNs*float64(len(l.dieBusyNs)))
	out["flash.die_busy_max_pct"] = 100 * ratio(busyMax, simNs)
	out["flash.wear_max"] = g["flash.wear_max"]
	out["flash.bad_blocks"] = g["flash.bad_blocks"]
}
