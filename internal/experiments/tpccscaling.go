package experiments

import (
	"fmt"
	"runtime"
	"strings"
	"text/tabwriter"
	"time"

	"noftl"
	"noftl/internal/tpcc"
)

// TPCCScalingRun is one measured TPC-C run of the scaling experiment at a
// fixed worker count.  The virtual-time metrics (TPS, simulated duration)
// are workload-driven; between worker counts they move only with how the
// goroutines interleave (lock waits, shared log forces).
type TPCCScalingRun struct {
	Workers         int
	Committed       int64
	WallTime        time.Duration
	WallTPS         float64
	TPS             float64 // committed per simulated second
	LockWaits       int64
	LockTimeouts    int64
	WALFlushes      int64
	WALGroupCommits int64
	WALGroupedTxns  int64
}

// TPCCScalingResult is the outcome of the concurrency-scaling experiment:
// the same TPC-C workload executed on fresh, identical databases with 1
// driver goroutine and with N driver goroutines.  Scaling is the wall-clock
// throughput ratio WallTPS(N) / WallTPS(1); it is reported, not gated (the
// CI scaling job gates the 1-worker virtual TPS against the baseline).
type TPCCScalingResult struct {
	Scale    Scale
	NumCPU   int
	Baseline TPCCScalingRun // Workers = 1
	Parallel TPCCScalingRun // Workers = N
	Scaling  float64
}

// Table renders the side-by-side comparison.
func (r TPCCScalingResult) Table() string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "TPC-C concurrency scaling (%s scale, %d CPUs)\n", r.Scale, r.NumCPU)
	w := tabwriter.NewWriter(&sb, 0, 0, 2, ' ', 0)
	fmt.Fprintf(w, "Metric\t%d worker\t%d workers\n", r.Baseline.Workers, r.Parallel.Workers)
	value := func(name string, b, p float64) { fmt.Fprintf(w, "%s\t%.2f\t%.2f\n", name, b, p) }
	count := func(name string, b, p int64) { fmt.Fprintf(w, "%s\t%d\t%d\n", name, b, p) }
	b, p := r.Baseline, r.Parallel
	value("Wall-clock TPS", b.WallTPS, p.WallTPS)
	value("Wall-clock time (s)", b.WallTime.Seconds(), p.WallTime.Seconds())
	value("Virtual TPS", b.TPS, p.TPS)
	count("Committed", b.Committed, p.Committed)
	count("Lock waits", b.LockWaits, p.LockWaits)
	count("Lock timeouts", b.LockTimeouts, p.LockTimeouts)
	count("WAL flushes", b.WALFlushes, p.WALFlushes)
	count("WAL group commits", b.WALGroupCommits, p.WALGroupCommits)
	count("WAL grouped txns", b.WALGroupedTxns, p.WALGroupedTxns)
	value("Wall-clock scaling", 1.0, r.Scaling)
	w.Flush()
	return sb.String()
}

func (r TPCCScalingResult) String() string {
	return fmt.Sprintf("tpcc scaling: %.1f wall tx/s @1 worker -> %.1f wall tx/s @%d workers = %.2fx (on %d CPUs)",
		r.Baseline.WallTPS, r.Parallel.WallTPS, r.Parallel.Workers, r.Scaling, r.NumCPU)
}

// RunTPCCScaling executes the scaling experiment: one TPC-C run with a
// single driver goroutine and one with `workers` goroutines, on fresh
// databases with identical configuration.  The virtual-time
// multiprogramming level (Terminals) is the same in both runs, so the virtual
// metrics remain comparable and only wall-clock parallelism differs; the
// parallel run's committers share a log force only when they meet at one.
func RunTPCCScaling(scale Scale, workers int) (TPCCScalingResult, error) {
	if workers < 2 {
		workers = 2
	}
	res := TPCCScalingResult{Scale: scale, NumCPU: runtime.NumCPU()}

	one := func(w int) (TPCCScalingRun, error) {
		setup := TPCCSetup(scale)
		// The logical terminal count must cover the worker count, and must
		// be identical across runs so the virtual-time plane is comparable.
		if setup.TPCC.Terminals < workers {
			setup.TPCC.Terminals = workers
		}
		setup.TPCC.Workers = w
		db, err := noftl.OpenConfig(setup.DB)
		if err != nil {
			return TPCCScalingRun{}, err
		}
		defer db.Close()
		r, err := tpcc.LoadAndRun(db, setup.TPCC)
		if err != nil {
			return TPCCScalingRun{}, err
		}
		return TPCCScalingRun{
			Workers:         r.Workers,
			Committed:       r.Committed,
			WallTime:        r.WallTime,
			WallTPS:         r.WallTPS,
			TPS:             r.TPS,
			LockWaits:       r.LockWaits,
			LockTimeouts:    r.LockTimeouts,
			WALFlushes:      r.WALFlushes,
			WALGroupCommits: r.WALGroupCommits,
			WALGroupedTxns:  r.WALGroupedTxns,
		}, nil
	}

	var err error
	if res.Baseline, err = one(1); err != nil {
		return res, fmt.Errorf("tpcc scaling baseline (1 worker): %w", err)
	}
	if res.Parallel, err = one(workers); err != nil {
		return res, fmt.Errorf("tpcc scaling parallel (%d workers): %w", workers, err)
	}
	if res.Baseline.WallTPS > 0 {
		res.Scaling = res.Parallel.WallTPS / res.Baseline.WallTPS
	}
	return res, nil
}
