// Benchmarks regenerating the paper's evaluation artifacts.
//
// One benchmark exists per table/figure of the paper (Figure 2, Figure 3 and
// the abstract's headline metrics; README "Reproducing the paper's results")
// plus a set of micro-benchmarks for the core public API.
//
// The Figure benches run the small scale so that `go test -bench=.` finishes
// in seconds; `cmd/noftl-bench -scale paper` runs the full 64-die
// configuration and prints the same tables.
package noftl_test

import (
	"runtime"
	"testing"

	"noftl"
	"noftl/internal/core"
	"noftl/internal/experiments"
	"noftl/internal/flash"
	"noftl/internal/tpcc"
)

// benchDB opens a small database for the micro-benchmarks.
func benchDB(b *testing.B) *noftl.DB {
	b.Helper()
	cfg := noftl.DefaultConfig()
	cfg.Flash.Geometry = flash.Geometry{
		Channels: 4, DiesPerChannel: 2, PlanesPerDie: 1,
		BlocksPerDie: 256, PagesPerBlock: 64, PageSize: 4096,
	}
	cfg.BufferPoolPages = 1024
	db, err := noftl.OpenConfig(cfg)
	if err != nil {
		b.Fatal(err)
	}
	b.Cleanup(func() { _ = db.Close() })
	return db
}

// BenchmarkFigure2 reproduces Figure 2: a TPC-C statistics run, Figure 2's
// view of it and the multi-region placement tpcc.Setup plans, its groups and
// their dies.
func BenchmarkFigure2(b *testing.B) {
	for i := 0; i < b.N; i++ {
		run, err := experiments.RunTPCC(experiments.ScaleTiny, tpcc.PlacementTraditional)
		if err != nil {
			b.Fatal(err)
		}
		f2 := run.Figure2
		if i == 0 {
			b.Logf("\n%s", f2.Table())
		}
		b.ReportMetric(float64(len(f2.Planned.Groups)), "regions")
		b.ReportMetric(float64(f2.Planned.TotalDies), "dies")
	}
}

// BenchmarkFigure3Traditional runs the TPC-C experiment under traditional
// data placement (the left column of Figure 3).
func BenchmarkFigure3Traditional(b *testing.B) {
	benchmarkFigure3Run(b, tpcc.PlacementTraditional)
}

// BenchmarkFigure3Regions runs the TPC-C experiment under the multi-region
// placement (the right column of Figure 3).
func BenchmarkFigure3Regions(b *testing.B) {
	benchmarkFigure3Run(b, tpcc.PlacementRegions)
}

func benchmarkFigure3Run(b *testing.B, placement tpcc.PlacementKind) {
	for i := 0; i < b.N; i++ {
		res, err := experiments.RunTPCC(experiments.ScaleSmall, placement)
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(res.TPS, "tps")
		b.ReportMetric(float64(res.GCCopybacks), "copybacks")
		b.ReportMetric(float64(res.GCErases), "erases")
		b.ReportMetric(res.WriteAmp, "write-amp")
		b.ReportMetric(float64(res.ReadLatency.Mean.Microseconds()), "read-us")
		b.ReportMetric(float64(res.WriteLatency.Mean.Microseconds()), "write-us")
	}
}

// BenchmarkFigure3Comparison runs both placements back to back and reports
// the headline deltas of the abstract (experiment E3).
func BenchmarkFigure3Comparison(b *testing.B) {
	for i := 0; i < b.N; i++ {
		f3, err := experiments.RunFigure3(experiments.ScaleSmall)
		if err != nil {
			b.Fatal(err)
		}
		if i == 0 {
			b.Logf("\n%s\n%s", f3.Table(), f3.Headline().String())
		}
		h := f3.Headline()
		b.ReportMetric(h.TPSDeltaPct, "tps-delta-%")
		b.ReportMetric(h.CopybacksDeltaPct, "copyback-delta-%")
		b.ReportMetric(h.ErasesDeltaPct, "erase-delta-%")
	}
}

// ---- micro-benchmarks of the public API ----

// BenchmarkTableInsert measures heap inserts through the public API
// (including WAL logging and index-free path).  Outside the timer, a
// checkpoint after each commit of 1 000 rows truncates the log of their
// images, and the table is dropped and created again every 500 000 rows
// (about 50 MB of its pages): either would otherwise fill the device in a
// run of a few million rows.
func BenchmarkTableInsert(b *testing.B) {
	db := benchDB(b)
	const create = "CREATE TABLE BENCH (v VARCHAR(100))"
	if err := db.Exec(create); err != nil {
		b.Fatal(err)
	}
	tbl, _ := db.Table("BENCH")
	row := make([]byte, 100)
	tx := db.Begin()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := tbl.Insert(tx, row); err != nil {
			b.Fatal(err)
		}
		if i%1000 == 999 {
			if _, err := tx.Commit(); err != nil {
				b.Fatal(err)
			}
			b.StopTimer()
			if i%500_000 == 499_999 {
				if err := db.Exec("DROP TABLE BENCH; " + create); err != nil {
					b.Fatal(err)
				}
				tbl, _ = db.Table("BENCH")
			}
			if _, err := db.Checkpoint(db.SimulatedTime()); err != nil {
				b.Fatal(err)
			}
			b.StartTimer()
			tx = db.Begin()
		}
	}
	b.StopTimer()
	if _, err := tx.Commit(); err != nil {
		b.Fatal(err)
	}
}

// BenchmarkIndexInsertLookup measures B+-tree insert plus point lookup.
func BenchmarkIndexInsertLookup(b *testing.B) {
	db := benchDB(b)
	if err := db.Exec("CREATE TABLE T (k INTEGER); CREATE UNIQUE INDEX T_IDX ON T (k)"); err != nil {
		b.Fatal(err)
	}
	tbl, _ := db.Table("T")
	idx, _ := db.Index("T_IDX")
	tx := db.Begin()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		rid, err := tbl.Insert(tx, noftl.Key(uint32(i)))
		if err != nil {
			b.Fatal(err)
		}
		if err := idx.Insert(tx, noftl.Key(uint32(i)), rid); err != nil {
			b.Fatal(err)
		}
		if _, found, err := idx.Lookup(tx, noftl.Key(uint32(i/2))); err != nil || !found {
			b.Fatalf("lookup failed: %v", err)
		}
		if i%1000 == 999 {
			if _, err := tx.Commit(); err != nil {
				b.Fatal(err)
			}
			tx = db.Begin()
		}
	}
	b.StopTimer()
	if _, err := tx.Commit(); err != nil {
		b.Fatal(err)
	}
}

// BenchmarkGetBatch measures Table.GetBatch over a resident 20 000-row table,
// in the orders its callers send: 50 rows in key order (kv-read-fit's range)
// and 256 rids in insertion order (a batch_dml chunk).
func BenchmarkGetBatch(b *testing.B) {
	db := benchDB(b)
	tbl, err := db.CreateTable("T", "", nil)
	if err != nil {
		b.Fatal(err)
	}
	rows := make([][]byte, 20000)
	for i := range rows {
		rows[i] = make([]byte, 100)
		rows[i][0] = byte(i)
	}
	var rids []noftl.RID
	if err := db.Update(func(tx *noftl.Tx) error {
		rids, err = tbl.InsertBatch(tx, rows)
		return err
	}); err != nil {
		b.Fatal(err)
	}
	tx := db.Begin()
	defer tx.Abort()
	if _, err := tbl.GetBatch(tx, rids); err != nil { // make every page resident
		b.Fatal(err)
	}
	for _, c := range []struct {
		name string
		rids []noftl.RID
	}{{"range50", rids[10000:10050]}, {"chunk256", rids[10240:10496]}} {
		b.Run(c.name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := tbl.GetBatch(tx, c.rids); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkFlashWritePath measures the raw NoFTL write path (space manager +
// flash model) without the database layers on top.
func BenchmarkFlashWritePath(b *testing.B) {
	dev, err := flash.NewDevice(flash.DefaultConfig())
	if err != nil {
		b.Fatal(err)
	}
	mgr := core.NewManager(dev, core.DefaultOptions())
	payload := make([]byte, dev.Geometry().PageSize)
	lpns := mgr.AllocateLPNs(4096)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		lpn := lpns + noftl.LPN(i%4096)
		if _, err := mgr.WritePage(0, lpn, payload, noftl.Hint{}); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkTPCCTransactionBatch measures the end-to-end cost of a batch of
// 500 TPC-C transactions (standard mix) on a freshly loaded tiny database;
// database setup and loading are excluded from the timing.  The reported
// simulated-tps metric is the throughput in simulated time, allocs/txn the
// heap allocations per committed transaction (internal/tpcc
// TestAllocationsPerTransaction caps them, per transaction type and for the
// mix).
func BenchmarkTPCCTransactionBatch(b *testing.B) {
	const batch = 500
	var (
		lastTPS   float64
		mallocs   uint64
		committed int64
	)
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		db, sch, cfg := tinyTPCC(b, batch)
		var res tpcc.Results
		var err error
		mallocs += mallocsDuring(func() {
			b.StartTimer()
			res, err = tpcc.Run(db, sch, cfg)
			b.StopTimer()
		})
		if err != nil {
			b.Fatal(err)
		}
		lastTPS = res.TPS
		committed += res.Committed
		_ = db.Close()
		b.StartTimer()
	}
	b.ReportMetric(lastTPS, "simulated-tps")
	b.ReportMetric(batch, "txns/op")
	b.ReportMetric(float64(mallocs)/float64(committed), "allocs/txn")
}

// tinyTPCC opens and loads the tiny-scale TPC-C database under multi-region
// placement and returns it with a workload of n transactions, no warm-up.
func tinyTPCC(tb testing.TB, n int) (*noftl.DB, *tpcc.Schema, tpcc.Config) {
	tb.Helper()
	setup := experiments.TPCCSetup(experiments.ScaleTiny)
	setup.TPCC.Placement = tpcc.PlacementRegions
	db, err := noftl.OpenConfig(setup.DB)
	if err != nil {
		tb.Fatal(err)
	}
	sch, err := tpcc.Setup(db, setup.TPCC)
	if err != nil {
		tb.Fatal(err)
	}
	if err := tpcc.Load(db, sch, setup.TPCC); err != nil {
		tb.Fatal(err)
	}
	cfg := setup.TPCC
	cfg.Transactions = n
	cfg.WarmupTransactions = 0
	cfg.Duration = 0
	return db, sch, cfg
}

// mallocsDuring returns the heap allocations the process made while fn ran.
func mallocsDuring(fn func()) uint64 {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	before := ms.Mallocs
	fn()
	runtime.ReadMemStats(&ms)
	return ms.Mallocs - before
}
