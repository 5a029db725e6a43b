package tpcc

import (
	"fmt"
	"strings"

	"noftl/internal/core"
	"noftl/internal/flash"
	"noftl/internal/storage"
)

// Die allocation for the multi-region placement configuration.  The paper
// distributes the 64 dies over the six regions of Figure 2 "based on sizes of
// objects and their I/O rate"; its 2/11/10/29/6/6 reflects a 100+ warehouse
// database.  The reproduction scales the TPC-C cardinalities, so the sizes are
// estimated for the configured scale (initial size plus the growth of the
// configured transactions) and the I/O rate is RecordedDemand.

// ObjectDemand is what one object asks of the device per committed
// transaction: host page reads and host page programs.
type ObjectDemand struct {
	Object          string
	Reads, Programs float64
}

// RecordedDemand is what the engine's per-object counters
// (noftl_object_io_total) measured per committed transaction under traditional
// placement at the paper scale — a profile no plan has shaped — the log's line
// out of the same run.  Garbage collection's copybacks are left out: under
// traditional placement their share follows how far the run has filled the
// device (ORDERLINE 10 % of the die time in the first 4 s, 30 % in the last),
// the host commands' does not.  `noftl-bench -experiment figure2 -scale paper`
// prints this block and fails once a group's share has drifted from it; paste
// its output here to record again.
var RecordedDemand = []ObjectDemand{
	{"STOCK", 0.1254, 2.3504},
	{"ORDERLINE", 0.1930, 0.4808},
	{"CUSTOMER", 0.4461, 0.7918},
	{"OL_IDX", 0.1118, 0.2937},
	{"WAL", 0.0000, 1.9587},
	{"O_CUST_IDX", 0.1111, 0.4086},
	{"NO_IDX", 0.0057, 0.3141},
	{"O_IDX", 0.0057, 0.1628},
	{"ORDER", 0.0324, 0.1384},
	{"HISTORY", 0.0000, 0.0089},
	{"NEW_ORDER", 0.0020, 0.0747},
	{"C_NAME_IDX", 0.0839, 0.0000},
	{"C_IDX", 0.0217, 0.0000},
	{"S_IDX", 0.0007, 0.0000},
	{"ITEM", 0.0001, 0.0000},
	{"DISTRICT", 0.0000, 0.0040},
	{"I_IDX", 0.0000, 0.0000},
	{"WAREHOUSE", 0.0000, 0.0020},
	{"W_IDX", 0.0000, 0.0000},
	{"D_IDX", 0.0000, 0.0000},
}

// DemandTable renders rows as the Go literal RecordedDemand is kept in.
func DemandTable(rows []ObjectDemand) string {
	var b strings.Builder
	b.WriteString("var RecordedDemand = []ObjectDemand{\n")
	for _, r := range rows {
		fmt.Fprintf(&b, "\t{%q, %.4f, %.4f},\n", r.Object, r.Reads, r.Programs)
	}
	return b.String() + "}\n"
}

// GroupDemand sums rows over the groups of Figure 2, as die time per
// transaction at t; an object no group lists (the log) lives in the default
// region with group 0.
func GroupDemand(rows []ObjectDemand, t flash.Timing) []float64 {
	plan := core.PlacementPlan{Groups: Figure2Groups()}
	out := make([]float64, len(plan.Groups))
	for _, r := range rows {
		out[max(plan.GroupOf(r.Object), 0)] += r.Reads*float64(t.ReadPage) + r.Programs*float64(t.ProgramPage)
	}
	return out
}

// walBytesPerTxn is what a transaction logs in row images, measured on the
// 64-die configuration (bench workload tpcc-regions, traced).
const walBytesPerTxn = 3650

// walLivePages is the capacity the live log needs: what the transactions of
// one checkpoint interval append (a checkpoint truncates everything below its
// begin mark; a shorter run never gets that far), plus a quarter for pages
// sealed before they are full and for the commits that land between a
// checkpoint's trigger and its truncation.
func walLivePages(cfg Config, pageSize int) int64 {
	txns := min(cfg.CheckpointEvery, cfg.Transactions+cfg.WarmupTransactions)
	return int64(txns)*walBytesPerTxn*5/4/int64(pageSize) + 1
}

// What storage and btree pack into a page.  A full leaf splits in half: keys
// arriving in ascending order (most of TPC-C's: ids count up within their
// district) never revisit the left half, so those leaves stay half full; the
// two indexes keyed by customer take theirs in a shuffled order.
const (
	heapSlotBytes   = 4                           // slot directory entry of a heap record
	leafHeaderBytes = storage.PageHeaderSize + 16 // page header + node header
	indexEntryExtra = 10 + 6                      // RID value + cell header and offset
	ascendingFill   = 0.5
	shuffledFill    = 0.6
)

// estimateGroupPages returns the expected page footprint of each Figure-2
// group for the given configuration, including the growth produced by the
// warm-up and measured transactions.  Neither a heap nor an index gives pages
// back, so NEW_ORDER grows with every order ever entered, delivered or not.
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
		newOrderQ  = initOrders - initOrders*2/3 + newOrders
	)
	pagesOf := func(n int64, perPage int) int64 {
		perPage = max(perPage, 1)
		return (n + int64(perPage) - 1) / int64(perPage)
	}
	heap := func(rows int64, rowSize int) int64 {
		return pagesOf(rows, (pageSize-storage.PageHeaderSize)/(rowSize+heapSlotBytes))
	}
	index := func(entries int64, keySize int, fill float64) int64 {
		return pagesOf(entries, int(float64((pageSize-leafHeaderBytes)/(keySize+indexEntryExtra))*fill))
	}
	pages := map[string]int64{
		TableHistory:   heap(customers+payments, historySize),
		TableOrderLine: heap(orderLines, orderLineSize),
		TableCustomer:  heap(customers, customerSize),
		TableStock:     heap(stock, stockSize),
		TableNewOrder:  heap(newOrderQ, newOrderSize),
		TableOrder:     heap(orders, orderSize),
		TableItem:      heap(items, itemSize),
		TableWarehouse: heap(w, warehouseSize),
		TableDistrict:  heap(districts, districtSize),
		IndexOrderLine: index(orderLines, 16, ascendingFill),
		IndexNewOrder:  index(newOrderQ, 12, ascendingFill),
		IndexOrder:     index(orders, 12, ascendingFill),
		IndexOrderCust: index(orders, 16, shuffledFill),
		IndexCustomer:  index(customers, 12, ascendingFill),
		IndexCustName:  index(customers, 28, shuffledFill),
		IndexItem:      index(items, 4, ascendingFill),
		IndexStock:     index(stock, 8, ascendingFill),
		IndexWarehouse: index(w, 4, ascendingFill),
		IndexDistrict:  index(districts, 8, ascendingFill),
	}
	groups := Figure2Groups()
	out := make([]int64, len(groups))
	for i, g := range groups {
		for _, o := range g.Objects {
			out[i] += pages[o]
		}
	}
	out[0] += walLivePages(cfg, pageSize)
	return out
}

// Plan is the multi-region configuration Setup builds on a device of geometry
// geo: the groups of the paper's Figure 2 with the dies core.NewPlan gives them
// on the estimated footprints of a database that does not exist yet and on
// RecordedDemand, weighed at the timing of the run that recorded it.
func Plan(cfg Config, geo flash.Geometry) core.PlacementPlan {
	return core.NewPlan(Figure2Groups(), estimateGroupPages(cfg, geo.PageSize),
		GroupDemand(RecordedDemand, flash.DefaultTiming()), geo.Dies(), geo.PagesPerDie())
}
