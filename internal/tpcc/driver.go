package tpcc

import (
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"noftl"
	"noftl/internal/metrics"
	"noftl/internal/sim"
	"noftl/internal/txn"
)

// Results is what the driver counts in a measured TPC-C run: the committed,
// aborted, retried and failed transactions, their response times by type, and
// the throughput over the simulated time the run covers.  What the database
// counted is its Stats, for the caller to read.
type Results struct {
	Placement     PlacementKind
	SimulatedTime time.Duration
	Committed     int64
	Aborted       int64
	Retried       int64 // lock-timeout victims that were retried
	Failed        int64
	TPS           float64
	ResponseTimes map[TxnType]metrics.Snapshot
}

// Run executes the configured workload against an already loaded database
// and returns the measured results.  Warm-up transactions run first; all
// statistics are reset before the measured phase.
func Run(db *noftl.DB, sch *Schema, cfg Config) (Results, error) {
	cfg = cfg.withDefaults()
	if l := &sch.locks; cfg.Warehouses > len(l.warehouse) || cfg.DistrictsPerWarehouse > l.districts ||
		cfg.CustomersPerDistrict > l.customers || cfg.ItemCount > l.items {
		return Results{}, errors.New("tpcc: the run's scale exceeds the scale the schema was set up for")
	}

	if cfg.WarmupTransactions > 0 {
		warmCfg := cfg
		warmCfg.Transactions = cfg.WarmupTransactions
		warmCfg.WarmupTransactions = 0
		warmCfg.Duration = 0 // the warm-up is always transaction-count based
		warmCfg.Seed = cfg.Seed + 1
		if _, err := runPhase(db, sch, warmCfg); err != nil {
			return Results{}, fmt.Errorf("tpcc warmup: %w", err)
		}
		db.ResetStatistics()
	}
	return runPhase(db, sch, cfg)
}

// termState is one logical closed-loop terminal: its workload generator plus
// its private virtual-time cursor.  A worker goroutine drives one or more
// terminals round-robin, so the virtual-time multiprogramming level is always
// cfg.Terminals regardless of how many OS-level workers execute them.
type termState struct {
	t      *terminal
	cursor *noftl.TimeCursor
}

// runPhase executes one closed-loop phase of cfg.Transactions transactions.
// cfg.Workers goroutines drive cfg.Terminals logical terminals; the driver's
// own bookkeeping is all atomics, so the workers share only the database.
func runPhase(db *noftl.DB, sch *Schema, cfg Config) (Results, error) {
	var (
		committed atomic.Int64
		aborted   atomic.Int64
		retried   atomic.Int64
		failed    atomic.Int64
		issued    atomic.Int64
		perType   = make(map[TxnType]*metrics.Histogram)
	)
	for ty := TxnType(0); ty < txnTypeCount; ty++ {
		perType[ty] = metrics.NewHistogram()
	}
	// claim reserves the next transaction slot.  In transaction-count mode
	// the closed loop stops once every slot is claimed; in fixed-duration
	// mode it stops when the terminal's simulated clock passes the duration
	// (with a generous hard cap as a safety net).
	const durationModeCap = 10_000_000
	claim := func(terminalNow sim.Time) bool {
		if cfg.Duration > 0 {
			if terminalNow >= sim.Time(cfg.Duration) {
				return false
			}
			if issued.Add(1) > durationModeCap {
				issued.Add(-1)
				return false
			}
			return true
		}
		if issued.Add(1) > int64(cfg.Transactions) {
			issued.Add(-1)
			return false
		}
		return true
	}

	terminals := make([]*termState, cfg.Terminals)
	for termID := range terminals {
		terminals[termID] = &termState{
			t: newTerminal(db, sch, cfg, cfg.Seed+uint64(termID)*7919,
				termID%cfg.Warehouses+1, termID%cfg.DistrictsPerWarehouse+1),
			cursor: db.TimeCursor(),
		}
	}

	var wg sync.WaitGroup
	errCh := make(chan error, cfg.Workers)
	for w := 0; w < cfg.Workers; w++ {
		wg.Add(1)
		go func(workerID int) {
			defer wg.Done()
			// Worker w owns terminals w, w+Workers, w+2*Workers, ...
			var owned []*termState
			for termID := workerID; termID < cfg.Terminals; termID += cfg.Workers {
				owned = append(owned, terminals[termID])
			}
			for i := 0; ; i++ {
				ts := owned[i%len(owned)]
				t, cursor := ts.t, ts.cursor
				if !claim(cursor.Now()) {
					return
				}
				typ := t.pickType()
				tx := db.BeginAt(cursor.Now())
				err := t.run(typ, tx)
				switch {
				case err == nil:
					end, cerr := tx.Commit()
					if cerr != nil {
						// Release the transaction's locks before bailing out:
						// a failed commit leaves the txn active, and exiting
						// with locks held would stall every other terminal
						// that waits for one of them.
						tx.Abort()
						failed.Add(1)
						errCh <- cerr
						return
					}
					cursor.AdvanceTo(end)
					perType[typ].Observe(tx.ResponseTime())
					if committed.Add(1)%int64(cfg.CheckpointEvery) == 0 {
						// Periodic checkpoint: flush dirty pages and truncate
						// the WAL so the log's footprint in the metadata
						// region stays bounded.  The checkpoint cost is
						// charged to this terminal's virtual clock.
						ckEnd, ckErr := db.Checkpoint(cursor.Now())
						if ckErr != nil {
							errCh <- fmt.Errorf("tpcc checkpoint: %w", ckErr)
							return
						}
						cursor.AdvanceTo(ckEnd)
					}
				case errors.Is(err, errRollback):
					end := tx.Abort()
					cursor.AdvanceTo(end)
					aborted.Add(1)
				case errors.Is(err, txn.ErrLockTimeout):
					// Deadlock-victim handling: abort and carry on, like a
					// real TPC-C driver would retry the transaction.
					end := tx.Abort()
					cursor.AdvanceTo(end)
					retried.Add(1)
				default:
					end := tx.Abort()
					cursor.AdvanceTo(end)
					failed.Add(1)
					errCh <- fmt.Errorf("tpcc %s: %w", typ, err)
					return
				}
			}
		}(w)
	}
	wg.Wait()
	close(errCh)
	for err := range errCh {
		if err != nil {
			return Results{}, err
		}
	}

	res := Results{
		Placement:     cfg.Placement,
		SimulatedTime: time.Duration(db.SimulatedTime()),
		Committed:     committed.Load(),
		Aborted:       aborted.Load(),
		Retried:       retried.Load(),
		Failed:        failed.Load(),
		ResponseTimes: make(map[TxnType]metrics.Snapshot),
	}
	if secs := res.SimulatedTime.Seconds(); secs > 0 {
		res.TPS = float64(res.Committed) / secs
	}
	for ty, h := range perType {
		res.ResponseTimes[ty] = h.Snapshot()
	}
	return res, nil
}

// LoadAndRun is the one-call harness used by benchmarks and the command-line
// tool: set up the schema with the configured placement, load the data, run
// the workload and return the results.
func LoadAndRun(db *noftl.DB, cfg Config) (Results, error) {
	sch, err := Setup(db, cfg)
	if err != nil {
		return Results{}, err
	}
	if err := Load(db, sch, cfg); err != nil {
		return Results{}, err
	}
	// The load is not part of the measurement.
	db.ResetStatistics()
	return Run(db, sch, cfg)
}
