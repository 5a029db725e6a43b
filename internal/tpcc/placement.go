package tpcc

import "noftl/internal/core"

// Die allocation for the multi-region placement configuration.
//
// The paper distributes the 64 dies over the six regions of Figure 2 "based
// on sizes of objects and their I/O rate".  Because the reproduction scales
// the TPC-C cardinalities, the die shares are recomputed for the configured
// scale from the expected footprint of each object group (initial size plus
// the growth caused by the measured transactions), instead of hard-coding
// the paper's 2/11/10/29/6/6 split, which reflects their 100+ warehouse
// database.

const (
	heapFillFactor  = 0.90
	indexFillFactor = 0.65
	indexEntryExtra = 10 + 6 // RID value + per-entry slot overhead
	pageHeaderBytes = 48
)

// What the engine does per TPC-C transaction at the device, measured on the
// 64-die configuration with this plan in effect (bench workload tpcc-regions,
// traced): a transaction logs 3.6 KB of row images and its commit programs the
// log pages that filled up plus the current one; for the data groups the
// device executes 5.0 write-backs, 1.0 demand reads, 3.7 GC copybacks and 0.2
// erases.  The transaction mix fixes these figures, the scale does not move
// them much (a run that fills the device further collects more: 5.7 copybacks).
const (
	walBytesPerTxn  = 3650
	logWritesPerTxn = 2.0
	dataIOsPerTxn   = 9.8
)

// groupIOWeights are the relative I/O rates of the six Figure-2 groups per
// executed transaction; they play the role of the "I/O rate" input the paper's
// DBA used when distributing dies over regions.  Groups 1-5 count logical
// accesses from the TPC-C transaction profile (e.g. every NewOrder touches ~10
// STOCK rows and ~10 OL_IDX entries, every StockLevel scans ~200 order lines
// and their stock rows); buffer pool and garbage collector turn those 47
// accesses into dataIOsPerTxn device commands.  The log bypasses both, so its
// weight is its device traffic in the same unit, logWritesPerTxn at the data
// groups' accesses per command: 9.6, a sixth of what the device executes.
// HISTORY, the other tenant of group 0, adds the half access per transaction
// of its appends.
//
// Blended with the footprint this puts the log on 7 of 64 dies, the middle of
// the plateau a sweep of the weight measured on tpcc-regions (transactions per
// simulated second by dies of group 0: 2 dies 2202, 3: 3171, 5: 3441, 7: 3559,
// 8: 3520, 10: 3596, 12: 2774 — past 10 the data groups' garbage collection
// misses the dies more than the log gains from them).
var groupIOWeights = []float64{
	0.5 + dataAccessesPerTxn*logWritesPerTxn/dataIOsPerTxn, // group 0: DBMS metadata, WAL, HISTORY appends
	10.0, // group 1: ORDERLINE
	3.0,  // group 2: CUSTOMER
	22.0, // group 3: OL_IDX + STOCK
	5.0,  // group 4: NEW_ORDER/ORDER and their indexes
	7.0,  // group 5: lookup tables and read-mostly indexes
}

// dataAccessesPerTxn is the sum of the weights of groups 1-5.
const dataAccessesPerTxn = 10.0 + 3.0 + 22.0 + 5.0 + 7.0

// walLivePages is the capacity the live log needs: what the transactions of
// one checkpoint interval append (a checkpoint truncates everything below its
// begin mark; a shorter run never gets that far), plus a quarter for pages
// sealed before they are full and for the commits that land between a
// checkpoint's trigger and its truncation.
func walLivePages(cfg Config, pageSize int) int64 {
	txns := min(cfg.CheckpointEvery, cfg.Transactions+cfg.WarmupTransactions)
	return int64(txns)*walBytesPerTxn*5/4/int64(pageSize) + 1
}

func heapPages(rows int64, rowSize int, pageSize int) int64 {
	perPage := int64(float64(pageSize-pageHeaderBytes) * heapFillFactor / float64(rowSize+4))
	if perPage < 1 {
		perPage = 1
	}
	return (rows + perPage - 1) / perPage
}

func indexPages(entries int64, keySize int, pageSize int) int64 {
	perPage := int64(float64(pageSize-pageHeaderBytes) * indexFillFactor / float64(keySize+indexEntryExtra))
	if perPage < 1 {
		perPage = 1
	}
	return (entries + perPage - 1) / perPage
}

// estimateGroupPages returns the expected page footprint of each Figure-2
// group for the given configuration, including the growth produced by the
// warm-up and measured transactions.
func estimateGroupPages(cfg Config, pageSize int) []int64 {
	cfg = cfg.withDefaults()
	var (
		w          = int64(cfg.Warehouses)
		districts  = w * int64(cfg.DistrictsPerWarehouse)
		customers  = districts * int64(cfg.CustomersPerDistrict)
		items      = int64(cfg.ItemCount)
		stock      = w * items
		initOrders = districts * int64(cfg.InitialOrdersPerDistrict)
		totalTxns  = int64(cfg.Transactions + cfg.WarmupTransactions)
		newOrders  = totalTxns * 45 / 100
		payments   = totalTxns * 43 / 100
		orders     = initOrders + newOrders
		orderLines = orders * 10
		history    = customers + payments
		newOrderQ  = initOrders/3 + newOrders/10 // undelivered backlog
	)

	group0 := heapPages(history, historySize, pageSize) + walLivePages(cfg, pageSize)
	group1 := heapPages(orderLines, orderLineSize, pageSize)
	group2 := heapPages(customers, customerSize, pageSize)
	group3 := indexPages(orderLines, 16, pageSize) + heapPages(stock, stockSize, pageSize)
	group4 := heapPages(newOrderQ, newOrderSize, pageSize) +
		heapPages(orders, orderSize, pageSize) +
		indexPages(newOrderQ, 12, pageSize) +
		indexPages(orders, 12, pageSize) +
		indexPages(orders, 16, pageSize)
	group5 := indexPages(customers, 12, pageSize) +
		indexPages(items, 4, pageSize) +
		indexPages(stock, 8, pageSize) +
		indexPages(w, 4, pageSize) +
		indexPages(customers, 28, pageSize) +
		heapPages(items, itemSize, pageSize) +
		indexPages(districts, 8, pageSize) +
		heapPages(w, warehouseSize, pageSize) +
		heapPages(districts, districtSize, pageSize)
	return []int64{group0, group1, group2, group3, group4, group5}
}

// Plan is the multi-region configuration Setup builds on a device of totalDies
// dies: the groups of the paper's Figure 2 with the dies the Region Advisor's
// allocator gives them on their a-priori demand — the estimated footprints and
// groupIOWeights of a database that does not exist yet.
func Plan(cfg Config, totalDies, pagesPerDie int) core.PlacementPlan {
	return core.NewPlan(Figure2Groups(), estimateGroupPages(cfg, 4096), groupIOWeights, totalDies, pagesPerDie)
}
