package main

import (
	"bytes"
	"fmt"
	"runtime/pprof"
	"strings"

	"noftl"
	"noftl/internal/obs"
)

// cpuProfile is a CPU profile collected in memory, so a run writes nothing
// unless --out asks for the file.
type cpuProfile struct{ buf bytes.Buffer }

func startCPUProfile() (*cpuProfile, error) {
	p := &cpuProfile{}
	if err := pprof.StartCPUProfile(&p.buf); err != nil {
		return nil, fmt.Errorf("start CPU profile: %w", err)
	}
	return p, nil
}

func (p *cpuProfile) stop() []byte {
	pprof.StopCPUProfile()
	return p.buf.Bytes()
}

// traceMetrics reads the engine's event trace: what the ring recorded and
// dropped, exact host I/O latency percentiles over the retained events, and
// the GC-interference slowdown of obs.Summarize.
func traceMetrics(db *noftl.DB, out map[string]float64) {
	st := db.Stats().Trace
	out["obs.events_recorded"] = float64(st.Recorded)
	out["obs.events_dropped"] = float64(st.Dropped)
	var dump bytes.Buffer
	if _, err := db.Admin().TraceDump(&dump); err != nil {
		return // a bytes.Buffer cannot fail a write; an empty trace reads as zeros
	}
	events, err := obs.LoadJSONL(&dump)
	if err != nil {
		return
	}
	var writes, reads []float64
	for _, e := range events {
		switch e.Class {
		case obs.ClassHostWrite:
			writes = append(writes, float64(e.Latency())/1e3)
		case obs.ClassHostRead:
			reads = append(reads, float64(e.Latency())/1e3)
		}
	}
	out["obs.host_write_us_p50"] = median(writes)
	out["obs.host_write_us_p99"] = percentile(writes, 99)
	out["obs.host_read_us_p50"] = median(reads)
	out["obs.host_read_us_p99"] = percentile(reads, 99)
	out["obs.gc_interference_slowdown"] = obs.Summarize(events).GC.SlowdownX
}

// cpuLayers maps an import-path prefix of a stack frame's function to the
// cpu.<layer>_pct metric it is charged to.  Order matters: the first match
// wins, and the root package must come last.
var cpuLayers = []struct{ prefix, layer string }{
	{"noftl/internal/tpcc.", "tpcc"},
	{"noftl/internal/txn.", "txn"},
	{"noftl/internal/wal.", "wal"},
	{"noftl/internal/btree.", "btree"},
	{"noftl/internal/storage.", "storage"},
	{"noftl/internal/buffer.", "buffer"},
	{"noftl/internal/core.", "core"},
	{"noftl/internal/iosched.", "iosched"},
	{"noftl/internal/flash.", "flash"},
	{"noftl/internal/metrics.", "metrics_obs"},
	{"noftl/internal/obs.", "metrics_obs"},
	{"noftl/internal/sim.", "noftl"},
	{"noftl/internal/catalog.", "noftl"},
	{"noftl.", "noftl"},
}

// cpuLayerOf charges one profile sample (innermost frame first) to a layer:
// the innermost frame that belongs to an engine package pays for everything
// it called in the runtime and the standard library; the garbage collector's
// own goroutines are runtime_gc; the benchmark's frames and the rest are
// other.
func cpuLayerOf(stack []string) string {
	for _, fn := range stack {
		for _, l := range cpuLayers {
			if strings.HasPrefix(fn, l.prefix) {
				return l.layer
			}
		}
	}
	for _, fn := range stack {
		if strings.HasPrefix(fn, "runtime.gcBgMarkWorker") || strings.HasPrefix(fn, "runtime.bgsweep") ||
			strings.HasPrefix(fn, "runtime.bgscavenge") {
			return "runtime_gc"
		}
	}
	return "other"
}

// cpuShareMetrics turns a CPU profile into the cpu.*_pct metrics.
func cpuShareMetrics(profile []byte, out map[string]float64) error {
	samples, err := decodeProfile(profile)
	if err != nil {
		return fmt.Errorf("decode CPU profile: %w", err)
	}
	share := make(map[string]float64)
	var total float64
	for _, s := range samples {
		share[cpuLayerOf(s.stack)] += float64(s.value)
		total += float64(s.value)
	}
	for _, layer := range []string{"noftl", "tpcc", "txn", "wal", "btree", "storage", "buffer", "core",
		"iosched", "flash", "metrics_obs", "runtime_gc", "other"} {
		out["cpu."+layer+"_pct"] = 100 * ratio(share[layer], total)
	}
	return nil
}
