package main

import (
	"encoding/json"
	"strings"
)

// metricDef is one entry of BENCHMARK.json's end_to_end or per_layer list.
// Bound is the share of the parent's median by which the metric may worsen
// before a change counts as a regression (end-to-end metrics only).
type metricDef struct {
	Name   string
	Unit   string
	Better string
	Bound  float64
}

// Units ending in a sim_ prefix are on the simulated clock; every other time
// unit is host wall clock.
const (
	unitSimMs = "sim_ms"
	unitSimUs = "sim_us"
	lower     = "lower"
	higher    = "higher"
)

// workloadDef names one workload and records why it exists.
type workloadDef struct {
	Name string
	Why  string
}

var workloads = []workloadDef{
	{wlTPCCRegions, "TPC-C on a 64-die high-utilisation device with the paper's multi-region placement: region placement and foreground GC decide simulated time"},
	{wlTPCCTraditional, "same TPC-C with traditional placement: bypasses region placement, so a placement-only change must leave it unchanged"},
	{wlKVReadFit, "read-only KV whose table fits the buffer pool (hit ratio 1): pure host cost of btree/buffer/storage/txn, no device I/O"},
	{wlKVMixedDurable, "50/50 read/update KV over 2x the pool with WAL, snapshot checkpoints and crash recovery: the only workload where wal/checkpoint/recovery dominate"},
}

const (
	wlTPCCRegions     = "tpcc-regions"
	wlTPCCTraditional = "tpcc-traditional"
	wlKVReadFit       = "kv-read-fit"
	wlKVMixedDurable  = "kv-mixed-durable"
)

// runSeconds is the --seconds value BENCHMARK.json asks the driver to pass.
const runSeconds = 10

// endToEnd lists the metrics a user of the engine sees, reported by the
// untraced run of every workload.  Only metrics that are defined and
// non-zero on all four workloads can live here; the device-level paper
// metrics (4 KB latencies, write amplification, erases) are zero or undefined
// on kv-read-fit and are therefore reported per layer (core.*, flash.*).
var endToEnd = []metricDef{
	{"setup_s", "s", lower, 0.25},
	{"sim_ops_per_s", "1/sim_s", higher, 0.15},
	{"sim_lat_mean_ms", unitSimMs, lower, 0.15},
	{"wall_ops_per_s", "1/s", higher, 0.25},
	{"allocs_per_op", "count", lower, 0.09},
	{"alloc_kb_per_op", "KB", lower, 0.22},
	{"host_mem_mb", "MB", lower, 0.10},
}

// drillNames are the single-layer loops of drills.go; each reports _ns and
// _allocs per operation.
var drillNames = []string{
	"btree.search", "btree.insert", "btree.range100",
	"storage.heap_insert", "storage.heap_get", "storage.heap_update",
	"buffer.fetch_hit", "buffer.fetch_miss",
	"wal.append", "wal.commit",
	"txn.begin_lock_commit",
	"core.write_page", "core.read_page", "core.write_batch64",
	"iosched.submit_batch64",
	"flash.program",
}

// perLayer lists the metrics of single layers, reported by the traced run.
var perLayer = buildPerLayer()

func buildPerLayer() []metricDef {
	var out []metricDef
	add := func(prefix, unit, better string, names ...string) {
		for _, n := range names {
			out = append(out, metricDef{Name: prefix + n, Unit: unit, Better: better})
		}
	}
	add("txn.", "count", higher, "commits")
	add("txn.", "count", lower, "aborts", "lock_waits", "lock_timeouts")

	add("wal.", "1/op", lower, "records_per_op", "flushes_per_op")
	add("wal.", "B/op", lower, "bytes_per_op")
	add("wal.", "count", higher, "group_commits")
	add("wal.", "count", lower, "checkpoints", "pages_trimmed")
	add("wal.", "MB", lower, "checkpoint_mb_last", "live_mb_end")

	add("buffer.", "ratio", higher, "hit_ratio")
	add("buffer.", "1/op", lower, "misses_per_op", "evictions_per_op", "writebacks_per_op")
	add("buffer.", "count", lower, "group_flushes", "prefetches")
	add("buffer.", "count", higher, "prefetch_hits")

	add("core.", "1/op", lower, "host_reads_per_op", "host_writes_per_op", "gc_copybacks_per_op")
	add("core.", "count", lower, "gc_erases", "gc_runs", "gc_stalls", "bggc_steps", "wear_moves")
	add("core.", unitSimUs, lower, "read_4k_mean_us", "write_4k_mean_us")
	add("core.", "ratio", lower, "region_write_amp_max", "region_write_amp_min", "write_amp")
	add("core.", "1/kop", lower, "gc_erases_per_kop")

	add("iosched.", "1/op", lower, "batches_per_op")
	add("iosched.", "ratio", higher, "requests_per_batch")
	add("iosched.", "count", higher, "max_batch")
	add("iosched.", "count", lower, "host_read_reqs", "host_write_reqs", "gc_reqs", "gc_watermark_stalls")

	add("flash.", "count", lower, "reads", "programs", "erases", "copybacks")
	add("flash.", "%", lower, "die_busy_mean_pct", "die_busy_max_pct")
	add("flash.", "count", lower, "wear_max", "bad_blocks")
	add("flash.", "1/op", lower, "writes_per_op")

	add("obs.", "count", higher, "events_recorded")
	add("obs.", "count", lower, "events_dropped")
	add("obs.", "%", lower, "trace_overhead_pct")
	add("obs.", unitSimUs, lower, "host_write_us_p50", "host_write_us_p99", "host_read_us_p50", "host_read_us_p99")
	add("obs.", "ratio", lower, "gc_interference_slowdown")

	add("tpcc.", unitSimMs, lower, "neworder_mean_ms", "payment_mean_ms", "orderstatus_mean_ms",
		"delivery_mean_ms", "stocklevel_mean_ms", "neworder_p99_bucket_ms")
	add("tpcc.", "count", lower, "rollbacks", "retries")

	add("noftl.", "ns", lower, "lookup_wall_ns_p50", "get_wall_ns_p50", "range_wall_ns_p50",
		"update_wall_ns_p50", "commit_wall_ns_p50")
	add("noftl.", unitSimUs, lower, "commit_sim_us_mean", "read_sim_us_p50", "read_sim_us_p99",
		"update_sim_us_p50", "update_sim_us_p99")
	add("noftl.", "ms", lower, "checkpoint_wall_ms_mean", "reopen_wall_ms")
	add("noftl.", unitSimMs, lower, "checkpoint_sim_ms_mean")
	add("noftl.", "KB", lower, "reopen_replayed_kb")
	add("noftl.", "MB", lower, "recovery_mb")

	add("cpu.", "%", lower, "noftl_pct", "tpcc_pct", "txn_pct", "wal_pct", "btree_pct", "storage_pct",
		"buffer_pct", "core_pct", "iosched_pct", "flash_pct", "metrics_obs_pct", "runtime_gc_pct", "other_pct")

	for _, d := range drillNames {
		out = append(out, metricDef{Name: d + "_ns", Unit: "ns", Better: lower})
		out = append(out, metricDef{Name: d + "_allocs", Unit: "count", Better: lower})
	}
	return out
}

// benchmarkJSON renders BENCHMARK.json from the definitions above, so the
// file and the program cannot name different metrics (bench_test.go checks
// the committed file against it).
func benchmarkJSON() []byte {
	type wl struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	}
	type e2e struct {
		Name   string  `json:"name"`
		Unit   string  `json:"unit"`
		Better string  `json:"better"`
		Bound  float64 `json:"bound"`
	}
	type layer struct {
		Name   string `json:"name"`
		Unit   string `json:"unit"`
		Better string `json:"better"`
	}
	doc := struct {
		Command    []string `json:"command"`
		Paths      []string `json:"paths"`
		RunSeconds int      `json:"run_seconds"`
		Workloads  []wl     `json:"workloads"`
		EndToEnd   []e2e    `json:"end_to_end"`
		PerLayer   []layer  `json:"per_layer"`
	}{
		Command:    []string{"bash", "bench/run.sh"},
		Paths:      []string{"bench"},
		RunSeconds: runSeconds,
	}
	for _, w := range workloads {
		doc.Workloads = append(doc.Workloads, wl{w.Name, w.Why})
	}
	for _, m := range endToEnd {
		doc.EndToEnd = append(doc.EndToEnd, e2e{m.Name, m.Unit, m.Better, m.Bound})
	}
	for _, m := range perLayer {
		doc.PerLayer = append(doc.PerLayer, layer{m.Name, m.Unit, m.Better})
	}
	var b strings.Builder
	enc := json.NewEncoder(&b)
	enc.SetIndent("", "  ")
	_ = enc.Encode(doc) // plain structs of strings and numbers cannot fail to encode
	return []byte(b.String())
}
