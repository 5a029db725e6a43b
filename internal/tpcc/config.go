// Package tpcc implements the TPC-C workload used by the paper's evaluation:
// the nine-table schema, a deterministic data loader, the five transaction
// types with the standard mix, and a closed-loop multi-terminal driver.
//
// Two data-placement configurations are provided, mirroring the paper's
// Figure 2 and Figure 3 experiment:
//
//   - Traditional: every object lives in one tablespace on the default
//     region (uniform striping over all dies, no object separation).
//   - Regions: objects are divided into six regions according to their I/O
//     properties, with the flash dies distributed over the regions based on
//     object size and I/O rate.
package tpcc

import (
	"time"
)

// PlacementKind selects the data placement configuration for a run.
type PlacementKind int

const (
	// PlacementTraditional puts every object into a single tablespace in the
	// default region — the paper's "traditional data placement".
	PlacementTraditional PlacementKind = iota
	// PlacementRegions applies the paper's multi-region configuration
	// (Figure 2): six regions with dies distributed by object size and I/O
	// rate.
	PlacementRegions
)

func (p PlacementKind) String() string {
	if p == PlacementRegions {
		return "regions"
	}
	return "traditional"
}

// Config controls scale, placement and driver behaviour.
type Config struct {
	// Warehouses is the TPC-C scale factor W.
	Warehouses int
	// DistrictsPerWarehouse is 10 in the specification.
	DistrictsPerWarehouse int
	// CustomersPerDistrict is 3000 in the specification; the reproduction
	// scales it down so the database fits the simulated device.
	CustomersPerDistrict int
	// ItemCount is 100000 in the specification; scaled down here.
	ItemCount int
	// InitialOrdersPerDistrict seeds the ORDER/ORDER_LINE/NEW_ORDER tables.
	InitialOrdersPerDistrict int
	// Placement selects traditional vs multi-region placement.
	Placement PlacementKind
	// Terminals is the number of concurrent closed-loop terminals.
	Terminals int
	// Workers overrides the number of goroutines driving the terminals.
	// Zero (the default) runs one goroutine per terminal.  One worker makes a
	// run a pure function of its seed; with more, the goroutines' interleaving
	// decides which transaction meets which lock or log force first.
	Workers int
	// Transactions is the total number of transactions to execute in the
	// measured phase (ignored when Duration is set).
	Transactions int
	// Duration, when non-zero, runs the measured phase for a fixed simulated
	// duration instead of a fixed transaction count.  The paper's runs are
	// fixed-duration, which is why the faster configuration also completes
	// more transactions and serves more host I/Os.
	Duration time.Duration
	// WarmupTransactions are executed (and not measured) before counters are
	// reset, so the buffer pool and flash device reach steady state.
	WarmupTransactions int
	// Seed makes runs reproducible.
	Seed uint64
	// CheckpointEvery triggers a checkpoint (flush dirty pages + truncate
	// the WAL) every N committed transactions, bounding the log's footprint
	// in the metadata region.  Zero selects 1000.
	CheckpointEvery int
}

// DefaultConfig returns a laptop-scale configuration: 2 warehouses at
// roughly 1/10 of the spec cardinalities, 8 terminals.
func DefaultConfig() Config {
	return Config{
		Warehouses:               2,
		DistrictsPerWarehouse:    10,
		CustomersPerDistrict:     300,
		ItemCount:                1000,
		InitialOrdersPerDistrict: 300,
		Placement:                PlacementRegions,
		Terminals:                8,
		Transactions:             2000,
		WarmupTransactions:       500,
		Seed:                     42,
	}
}

// TinyConfig returns the smallest useful configuration, for unit tests.
func TinyConfig() Config {
	cfg := DefaultConfig()
	cfg.Warehouses = 1
	cfg.CustomersPerDistrict = 30
	cfg.ItemCount = 100
	cfg.InitialOrdersPerDistrict = 30
	cfg.Terminals = 4
	cfg.Transactions = 200
	cfg.WarmupTransactions = 0
	return cfg
}

func (c Config) withDefaults() Config {
	if c.Warehouses <= 0 {
		c.Warehouses = 1
	}
	if c.DistrictsPerWarehouse <= 0 {
		c.DistrictsPerWarehouse = 10
	}
	if c.CustomersPerDistrict <= 0 {
		c.CustomersPerDistrict = 300
	}
	if c.ItemCount <= 0 {
		c.ItemCount = 1000
	}
	if c.InitialOrdersPerDistrict <= 0 {
		c.InitialOrdersPerDistrict = c.CustomersPerDistrict
	}
	if c.InitialOrdersPerDistrict > c.CustomersPerDistrict {
		c.InitialOrdersPerDistrict = c.CustomersPerDistrict
	}
	if c.Terminals <= 0 {
		c.Terminals = 4
	}
	if c.Workers <= 0 {
		c.Workers = c.Terminals
	}
	if c.Workers > c.Terminals {
		c.Workers = c.Terminals
	}
	if c.Transactions <= 0 {
		c.Transactions = 1000
	}
	if c.Seed == 0 {
		c.Seed = 42
	}
	if c.CheckpointEvery <= 0 {
		c.CheckpointEvery = 1000
	}
	return c
}

// Table names of the TPC-C schema plus the index names used by the paper's
// Figure 2.
const (
	TableWarehouse = "WAREHOUSE"
	TableDistrict  = "DISTRICT"
	TableCustomer  = "CUSTOMER"
	TableHistory   = "HISTORY"
	TableNewOrder  = "NEW_ORDER"
	TableOrder     = "ORDER"
	TableOrderLine = "ORDERLINE"
	TableItem      = "ITEM"
	TableStock     = "STOCK"

	IndexWarehouse = "W_IDX"
	IndexDistrict  = "D_IDX"
	IndexCustomer  = "C_IDX"
	IndexCustName  = "C_NAME_IDX"
	IndexItem      = "I_IDX"
	IndexStock     = "S_IDX"
	IndexNewOrder  = "NO_IDX"
	IndexOrder     = "O_IDX"
	IndexOrderCust = "O_CUST_IDX"
	IndexOrderLine = "OL_IDX"
)
