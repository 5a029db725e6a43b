package main

import (
	"fmt"
	"math"

	"noftl"
	"noftl/internal/core"
	"noftl/internal/tpcc"
)

// tpccWorkload is tpcc-regions or tpcc-traditional: the paper's Figure 3
// experiment, driven by one goroutine so its simulated statistics repeat.
// The literals are pinned in sizes; experiments.TPCCSetup is deliberately not
// used, so a later change to it cannot move this workload.
type tpccWorkload struct {
	opts    runOptions
	traced  bool
	regions bool

	store *noftl.DB
	sch   *tpcc.Schema
	cfg   tpcc.Config

	// Response-time sums per transaction type over all rounds.
	typeCount [5]float64
	typeSumNs [5]float64
	p99Bucket float64 // largest NewOrder p99 bucket bound seen in any round, ns
	rollbacks int64
	retries   int64
}

var tpccTypes = [5]tpcc.TxnType{tpcc.TxnNewOrder, tpcc.TxnPayment, tpcc.TxnOrderStatus, tpcc.TxnDelivery, tpcc.TxnStockLevel}

func (w *tpccWorkload) db() *noftl.DB { return w.store }

func (w *tpccWorkload) close() {
	if w.store != nil {
		w.store.Close() // teardown; a failed final flush changes no reported number
		w.store = nil
	}
}

func (w *tpccWorkload) setup() error {
	sz := w.opts.sz
	cfg := noftl.DefaultConfig()
	cfg.Flash.Geometry = sz.tpccGeometry
	cfg.BufferPoolPages = sz.tpccPool
	// Light checkpoints and foreground GC: the regime of the paper's Figure 3
	// (snapshot checkpoints do not fit this deliberately full device).
	cfg.DisableSnapshotCheckpoints = true
	cfg.Space.DisableBackgroundGC = true
	cfg.LockTimeout = sz.tpccLockTimeout
	if w.traced {
		cfg.TraceBufferEvents = sz.traceEvents
	}
	w.cfg = tpcc.Config{
		Warehouses:               sz.tpccWarehouses,
		CustomersPerDistrict:     sz.tpccCustomers,
		ItemCount:                sz.tpccItems,
		InitialOrdersPerDistrict: sz.tpccCustomers,
		Placement:                tpcc.PlacementRegions,
		Terminals:                sz.tpccTerminals,
		Workers:                  1,
		Seed:                     w.opts.seed,
		CheckpointEvery:          sz.tpccCheckpoint,
	}
	if !w.regions {
		w.cfg.Placement = tpcc.PlacementTraditional
		cfg.Space.Mode = core.PlacementTraditional
	}
	db, err := noftl.OpenConfig(cfg)
	if err != nil {
		return err
	}
	w.store = db
	if w.sch, err = tpcc.Setup(db, w.cfg); err != nil {
		return err
	}
	if err := tpcc.Load(db, w.sch, w.cfg); err != nil {
		return err
	}
	db.ResetStatistics()
	warm := w.cfg
	warm.Transactions = sz.tpccWarmup
	warm.Seed = w.roundSeed(-1)
	if _, err := tpcc.Run(db, w.sch, warm); err != nil {
		return fmt.Errorf("warm-up: %w", err)
	}
	return nil
}

// roundSeed gives every round (and the warm-up, round -1) its own terminal
// random streams, all derived from --seed.
func (w *tpccWorkload) roundSeed(round int) uint64 {
	return w.opts.seed*1000003 + uint64(round+2)*7919
}

// window runs one round: a fixed simulated duration from a reset clock.
func (w *tpccWorkload) window(i int, m *measurement) error {
	w.store.ResetStatistics()
	round := w.cfg
	round.Duration = w.opts.sz.tpccRoundSim
	round.Seed = w.roundSeed(i)
	return m.measure(w.store, func() (windowResult, error) {
		res, err := tpcc.Run(w.store, w.sch, round)
		if err != nil {
			return windowResult{}, err
		}
		wr := windowResult{
			ops:       res.Committed,
			attempted: res.Committed + res.Aborted + res.Retried + res.Failed,
			failed:    res.Failed,
		}
		for i, ty := range tpccTypes {
			s := res.ResponseTimes[ty]
			w.typeCount[i] += float64(s.Count)
			w.typeSumNs[i] += float64(s.Mean) * float64(s.Count)
			wr.latNs += float64(s.Mean) * float64(s.Count)
		}
		w.p99Bucket = math.Max(w.p99Bucket, float64(res.ResponseTimes[tpcc.TxnNewOrder].P99))
		w.rollbacks += res.Aborted
		w.retries += res.Retried
		return wr, nil
	})
}

func (w *tpccWorkload) finish(m *measurement, out map[string]float64) error {
	for i, name := range []string{"neworder", "payment", "orderstatus", "delivery", "stocklevel"} {
		out["tpcc."+name+"_mean_ms"] = ratio(w.typeSumNs[i], w.typeCount[i]) / 1e6
	}
	// An upper bound only: tpcc.Results exposes power-of-two histogram
	// buckets, not per-transaction samples.
	out["tpcc.neworder_p99_bucket_ms"] = w.p99Bucket / 1e6
	out["tpcc.rollbacks"] = float64(w.rollbacks)
	out["tpcc.retries"] = float64(w.retries)
	if err := w.store.Admin().VerifyIntegrity(); err != nil {
		m.problem("VerifyIntegrity: %v", err)
	}
	return nil
}
