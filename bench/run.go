package main

import (
	"fmt"
	"runtime"
	"time"

	"noftl"
	"noftl/internal/flash"
)

// sizes pins every geometry and workload literal of the benchmark, so an
// engine change cannot move the workload.  fullSizes is what BENCHMARK.json
// measures; smokeSizes (about 100x smaller) only proves the plumbing in
// bench_test.go.
type sizes struct {
	// An untraced run times at least setupRepeats set-ups and reports their
	// median as setup_s; cheap set-ups are repeated up to setupMax times
	// while they have used less than setupBudget seconds in total.
	setupRepeats int
	setupMax     int
	setupBudget  float64
	traceEvents  int // trace ring capacity of the traced run
	drillIters   int // iterations of each layer drill

	// TPC-C: the paper-scale literals of the Figure 3 experiment.
	tpccGeometry    flash.Geometry
	tpccPool        int
	tpccWarehouses  int
	tpccCustomers   int
	tpccItems       int
	tpccTerminals   int
	tpccWarmup      int
	tpccCheckpoint  int
	tpccRoundSim    time.Duration // simulated length of one round; a run is --seconds rounds
	tpccLockTimeout time.Duration

	// KV: default 8-die device, 2048-frame pool, 200-byte rows.
	kvPool         int
	kvRowBytes     int
	kvLoadBatch    int
	readRows       int
	readWindowOps  int // read transactions per window; a run is --seconds windows
	readRangeLen   int
	mixedRows      int
	mixedWindowOps int
	mixedCkptOps   int // transactions between two Checkpoint calls (about half are updates)
	mixedTailOps   int // transactions between the last checkpoint and the crash, which recovery replays
}

var fullSizes = sizes{
	setupRepeats: 3,
	setupMax:     9,
	setupBudget:  3,
	traceEvents:  1 << 17,
	drillIters:   20000,

	tpccGeometry: flash.Geometry{
		Channels: 8, DiesPerChannel: 8, PlanesPerDie: 2,
		BlocksPerDie: 22, PagesPerBlock: 64, PageSize: 4096,
	},
	tpccPool:        12288,
	tpccWarehouses:  8,
	tpccCustomers:   600,
	tpccItems:       5000,
	tpccTerminals:   32,
	tpccWarmup:      10000,
	tpccCheckpoint:  500,
	tpccRoundSim:    4 * time.Second,
	tpccLockTimeout: 60 * time.Second,

	kvPool:         2048,
	kvRowBytes:     200,
	kvLoadBatch:    1000,
	readRows:       20000,
	readWindowOps:  300000,
	readRangeLen:   50,
	mixedRows:      100000,
	mixedWindowOps: 30000,
	mixedCkptOps:   10000,
	mixedTailOps:   5000,
}

var smokeSizes = sizes{
	setupRepeats: 2,
	setupMax:     2,
	traceEvents:  1 << 12,
	drillIters:   200,

	tpccGeometry: flash.Geometry{
		Channels: 4, DiesPerChannel: 2, PlanesPerDie: 1,
		BlocksPerDie: 16, PagesPerBlock: 32, PageSize: 4096,
	},
	tpccPool:        192,
	tpccWarehouses:  1,
	tpccCustomers:   60,
	tpccItems:       300,
	tpccTerminals:   4,
	tpccWarmup:      100,
	tpccCheckpoint:  100,
	tpccRoundSim:    100 * time.Millisecond,
	tpccLockTimeout: 60 * time.Second,

	kvPool:         64,
	kvRowBytes:     200,
	kvLoadBatch:    100,
	readRows:       500,
	readWindowOps:  1500,
	readRangeLen:   50,
	mixedRows:      3000,
	mixedWindowOps: 300,
	mixedCkptOps:   100,
	mixedTailOps:   50,
}

// runOptions is one invocation of one workload.
type runOptions struct {
	workload string
	seed     uint64
	seconds  int // number of fixed-work windows measured (see README: run length)
	trace    bool
	sz       sizes
}

// result is what one run reports.  Metrics holds every end-to-end metric of
// an untraced run or every per-layer metric of a traced run; Extra carries
// numbers outside the metric lists (window quartiles, the raw counters the
// fidelity table needs, the environment).
type result struct {
	Workload  string             `json:"workload"`
	Seed      uint64             `json:"seed"`
	Seconds   int                `json:"seconds"`
	Trace     bool               `json:"trace"`
	Correct   bool               `json:"correct"`
	Attempted int64              `json:"attempted"`
	Failed    int64              `json:"failed"`
	Metrics   map[string]float64 `json:"metrics"`
	Extra     map[string]float64 `json:"extra"`
	// CPUProfile is the raw pprof profile of the traced measured phase.
	CPUProfile []byte `json:"-"`
}

// workload is one of the four benchmark workloads.  setup builds a fresh,
// loaded and warmed database; window runs one fixed unit of measured work;
// finish runs the output checks (and, for kv-mixed-durable, the crash drill)
// and adds the workload's own per-layer metrics.
type workload interface {
	setup() error
	db() *noftl.DB
	window(i int, m *measurement) error
	finish(m *measurement, perLayer map[string]float64) error
	close()
}

// measurement accumulates the measured phase of one run.
type measurement struct {
	ops       int64   // operations that count for throughput (committed / completed)
	attempted int64   // operations started
	failed    int64   // operations that failed (spec rollbacks and retries are not failures)
	latNs     float64 // summed simulated response time of the counted operations
	mallocs   uint64
	allocated uint64
	winOps    []int64
	winSecs   []float64
	layers    *layerStats
	liveHeap  uint64   // heap still in use after a collection at the end of the measured phase
	hostSys   uint64   // memory obtained from the OS at that point (MemStats.Sys)
	problems  []string // output-check failures
}

func (m *measurement) problem(format string, args ...any) {
	if len(m.problems) < 20 {
		m.problems = append(m.problems, fmt.Sprintf(format, args...))
	}
}

// windowResult is what one window's work reports back.
type windowResult struct {
	ops, attempted, failed int64
	latNs                  float64
}

// measure runs work as one window: Stats() and MemStats are read outside the
// timed region, so the snapshots themselves cost the workload nothing.
func (m *measurement) measure(db *noftl.DB, work func() (windowResult, error)) error {
	before := db.Stats()
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	t0 := time.Now()
	wr, err := work()
	wall := time.Since(t0)
	runtime.ReadMemStats(&m1)
	if err != nil {
		return err
	}
	m.layers.accumulate(before, db.Stats())
	m.ops += wr.ops
	m.attempted += wr.attempted
	m.failed += wr.failed
	m.latNs += wr.latNs
	m.mallocs += m1.Mallocs - m0.Mallocs
	m.allocated += m1.TotalAlloc - m0.TotalAlloc
	m.winOps = append(m.winOps, wr.ops)
	m.winSecs = append(m.winSecs, wall.Seconds())
	return nil
}

func newWorkload(o runOptions, traced bool) (workload, error) {
	switch o.workload {
	case wlTPCCRegions, wlTPCCTraditional:
		return &tpccWorkload{opts: o, traced: traced, regions: o.workload == wlTPCCRegions}, nil
	case wlKVReadFit:
		return &kvWorkload{opts: o, traced: traced, mixed: false}, nil
	case wlKVMixedDurable:
		return &kvWorkload{opts: o, traced: traced, mixed: true}, nil
	}
	return nil, fmt.Errorf("unknown workload %q", o.workload)
}

// timedSetup sets a workload up and returns how long that took.
func timedSetup(w workload) (float64, error) {
	runtime.GC()
	t0 := time.Now()
	err := w.setup()
	return time.Since(t0).Seconds(), err
}

// measuredPhase runs the fixed work of one run: o.seconds windows.
func measuredPhase(w workload, o runOptions) (*measurement, error) {
	m := &measurement{layers: newLayerStats()}
	runtime.GC()
	for i := 0; i < o.seconds; i++ {
		if err := w.window(i, m); err != nil {
			return nil, fmt.Errorf("window %d: %w", i, err)
		}
	}
	// Two collections: the first only moves sync.Pool contents (encoding/json
	// keeps checkpoint-sized buffers there) to the victim cache.
	runtime.GC()
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	m.liveHeap, m.hostSys = ms.HeapAlloc, ms.Sys
	return m, nil
}

// wallRate is the median of the windows' operations per wall second.
func (m *measurement) wallRate() float64 {
	return median(windowRates(m.winOps, m.winSecs))
}

// runWorkload executes one run of one workload and returns its metrics.
func runWorkload(o runOptions) (*result, error) {
	if o.seconds < 1 {
		return nil, fmt.Errorf("--seconds must be at least 1")
	}
	res := &result{
		Workload: o.workload, Seed: o.seed, Seconds: o.seconds, Trace: o.trace,
		Metrics: make(map[string]float64), Extra: make(map[string]float64),
	}
	res.Extra["nproc"] = float64(runtime.NumCPU())
	res.Extra["gomaxprocs"] = float64(runtime.GOMAXPROCS(0))

	// Untraced pass: end-to-end numbers.  The traced run repeats it once, as
	// the reference its tracing overhead is measured against.
	minSetups, maxSetups := o.sz.setupRepeats, o.sz.setupMax
	if o.trace {
		minSetups, maxSetups = 1, 1
	}
	var w workload
	defer func() {
		if w != nil {
			w.close()
		}
	}()
	var setups []float64
	var setupTotal float64
	for i := 0; i < minSetups || (i < maxSetups && setupTotal < o.sz.setupBudget); i++ {
		if w != nil {
			w.close()
		}
		var err error
		if w, err = newWorkload(o, false); err != nil {
			return nil, err
		}
		secs, err := timedSetup(w)
		if err != nil {
			return nil, fmt.Errorf("setup: %w", err)
		}
		setups = append(setups, secs)
		setupTotal += secs
	}
	m, err := measuredPhase(w, o)
	if err != nil {
		return nil, err
	}
	untracedRate := m.wallRate()

	if !o.trace {
		if err := w.finish(m, map[string]float64{}); err != nil {
			return nil, err
		}
		endToEndMetrics(res, m, setups)
		return res, finishResult(res, m)
	}
	w.close()

	// Traced pass: same workload with the event tracer and a CPU profile.
	if w, err = newWorkload(o, true); err != nil {
		return nil, err
	}
	if _, err := timedSetup(w); err != nil {
		return nil, fmt.Errorf("traced setup: %w", err)
	}
	prof, err := startCPUProfile()
	if err != nil {
		return nil, err
	}
	m, err = measuredPhase(w, o)
	res.CPUProfile = prof.stop()
	if err != nil {
		return nil, err
	}
	m.layers.metrics(float64(m.ops), res.Metrics)
	traceMetrics(w.db(), res.Metrics)
	res.Metrics["obs.trace_overhead_pct"] = 100 * ratio(untracedRate-m.wallRate(), untracedRate)
	if err := cpuShareMetrics(res.CPUProfile, res.Metrics); err != nil {
		return nil, err
	}
	if err := w.finish(m, res.Metrics); err != nil {
		return nil, err
	}
	if err := runDrills(o.sz.drillIters, res.Metrics); err != nil {
		return nil, err
	}
	known := make(map[string]bool, len(perLayer))
	for _, d := range perLayer { // metrics that do not apply to this workload read 0
		known[d.Name] = true
		if _, ok := res.Metrics[d.Name]; !ok {
			res.Metrics[d.Name] = 0
		}
	}
	for name := range res.Metrics {
		if !known[name] {
			return nil, fmt.Errorf("metric %s is measured but not listed in spec.go", name)
		}
	}
	return res, finishResult(res, m)
}

// endToEndMetrics fills the untraced run's metric set.
func endToEndMetrics(res *result, m *measurement, setups []float64) {
	simSecs := m.layers.counters["sim_ns"] / 1e9
	ops := float64(m.ops)
	rates := windowRates(m.winOps, m.winSecs)

	res.Metrics["setup_s"] = median(setups)
	res.Metrics["sim_ops_per_s"] = ratio(ops, simSecs)
	res.Metrics["sim_lat_mean_ms"] = ratio(m.latNs, ops) / 1e6
	res.Metrics["wall_ops_per_s"] = median(rates)
	res.Metrics["allocs_per_op"] = ratio(float64(m.mallocs), ops)
	res.Metrics["alloc_kb_per_op"] = ratio(float64(m.allocated), ops) / 1024
	res.Metrics["host_mem_mb"] = float64(m.liveHeap) / 1e6

	q1, q3 := quartiles(rates)
	res.Extra["wall_ops_per_s_q1"] = q1
	res.Extra["wall_ops_per_s_q3"] = q3
	res.Extra["wall_windows"] = float64(len(rates))
	res.Extra["setup_s_min"] = sorted(setups)[0]
	res.Extra["sim_seconds"] = simSecs
	res.Extra["host_sys_mb"] = float64(m.hostSys) / 1e6
}

// finishResult copies the counts and the raw counters the fidelity table
// uses, and turns output-check failures into an incorrect result.
func finishResult(res *result, m *measurement) error {
	res.Attempted = m.attempted
	res.Failed = m.failed
	res.Correct = m.failed == 0 && len(m.problems) == 0
	c := m.layers.counters
	res.Extra["ops"] = float64(m.ops)
	res.Extra["host_ios"] = c["core.host_reads"] + c["core.host_writes"]
	res.Extra["gc_copybacks"] = c["core.gc_copybacks"]
	res.Extra["gc_erases"] = c["core.gc_erases"]
	res.Extra["sim_read_4k_us"] = ratio(c["core.read_lat_ns"], c["core.read_lat_n"]) / 1e3
	res.Extra["sim_write_4k_us"] = ratio(c["core.write_lat_ns"], c["core.write_lat_n"]) / 1e3
	res.Extra["sim_ops_per_s"] = ratio(float64(m.ops), c["sim_ns"]/1e9)
	if !res.Correct {
		return fmt.Errorf("%s: output checks failed (%d of %d operations failed): %v",
			res.Workload, m.failed, m.attempted, m.problems)
	}
	return nil
}
