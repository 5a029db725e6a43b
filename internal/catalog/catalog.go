// Package catalog holds the entry types of the schema — regions, tablespaces,
// tables, indexes and their columns: the JSON bodies of a checkpoint's schema
// marks and the elements of noftl.Schema.  It keeps no state.  Each fact has
// one owner in the running engine (core.Manager the regions, the DB its
// tablespaces, a table or index handle its own entry), and these types are how
// the owners describe themselves.
package catalog

import "noftl/internal/core"

// Column describes one table column (name and a free-form SQL type).
type Column struct {
	Name string
	Type string
}

// Region is the catalog entry of a NoFTL region.
type Region struct {
	Name         string
	ID           core.RegionID
	MaxChips     int
	MaxChannels  int
	MaxSizeBytes int64
	// GC is the region's garbage-collection policy (victim selection,
	// background step size, hot/cold separation), fixed when the region is
	// created; CREATE REGION's GC_POLICY clause chooses the victim selection.
	GC core.GCPolicy
}

// Tablespace is the catalog entry of a tablespace.
type Tablespace struct {
	Name        string
	Region      string
	ExtentPages int
}

// Table is the catalog entry of a table.
type Table struct {
	Name       string
	ObjectID   uint32
	Tablespace string
	Columns    []Column
}

// Index is the catalog entry of an index.
type Index struct {
	Name       string
	ObjectID   uint32
	Table      string
	Columns    []string
	Unique     bool
	Tablespace string
}
