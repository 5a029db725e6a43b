package tpcc

import (
	"fmt"

	"noftl"
	"noftl/internal/core"
)

// Figure2Groups is the multi-region data placement configuration of the
// paper's Figure 2 (which gives the groups 2/11/10/29/6/6 of its 64 dies): six
// regions by name with the objects placed in them.  Group 0 is the
// metadata/HISTORY group and stays in the default region, which also holds the
// catalog and the WAL.
func Figure2Groups() []core.PlacementGroup {
	return []core.PlacementGroup{
		{Objects: []string{TableHistory}},
		{Name: "rgOrderline", Objects: []string{TableOrderLine}},
		{Name: "rgCustomer", Objects: []string{TableCustomer}},
		{Name: "rgStock", Objects: []string{IndexOrderLine, TableStock}},
		{Name: "rgOrders", Objects: []string{
			TableNewOrder, TableOrder, IndexNewOrder, IndexOrder, IndexOrderCust}},
		{Name: "rgLookup", Objects: []string{
			IndexCustomer, IndexItem, IndexStock, IndexWarehouse,
			IndexCustName, TableItem, IndexDistrict, TableWarehouse, TableDistrict}},
	}
}

// Schema holds handles to every TPC-C table and index after setup.
type Schema struct {
	Warehouse *noftl.Table
	District  *noftl.Table
	Customer  *noftl.Table
	History   *noftl.Table
	NewOrder  *noftl.Table
	Order     *noftl.Table
	OrderLine *noftl.Table
	Item      *noftl.Table
	Stock     *noftl.Table

	WIdx      *noftl.Index
	DIdx      *noftl.Index
	CIdx      *noftl.Index
	CNameIdx  *noftl.Index
	IIdx      *noftl.Index
	SIdx      *noftl.Index
	NOIdx     *noftl.Index
	OIdx      *noftl.Index
	OCustIdx  *noftl.Index
	OLIdx     *noftl.Index
	Placement PlacementKind
	locks     lockNames
}

// tableColumns returns an abbreviated column list for the catalog (the row
// codecs in rows.go define the physical layout).
func tableColumns(names ...string) string {
	out := ""
	for i, n := range names {
		if i > 0 {
			out += ", "
		}
		out += n + " INTEGER"
	}
	return out
}

// Setup creates regions (for the multi-region configuration), tablespaces,
// tables and indexes.  It returns handles to all objects.
func Setup(db *noftl.DB, cfg Config) (*Schema, error) {
	cfg = cfg.withDefaults()
	placement := map[string]string{} // object -> tablespace

	switch cfg.Placement {
	case PlacementTraditional:
		// One tablespace for everything, in the default region.
		if err := db.CreateTablespace("tsAll", "", 0); err != nil {
			return nil, err
		}
		for _, g := range Figure2Groups() {
			for _, obj := range g.Objects {
				placement[obj] = "tsAll"
			}
		}
	case PlacementRegions:
		// Distribute the dies over the six groups "based on sizes of objects
		// and their I/O rate" (paper §3): by the estimated footprint of each
		// group for this configuration's scale and its recorded device demand,
		// at least one die per group.  Group 0 keeps its dies as the (shrunken)
		// default region, which also holds the catalog and the WAL.
		groups := Plan(cfg, db.Geometry()).Groups
		if groups[0].Dies == 0 {
			return nil, fmt.Errorf("tpcc: device has too few dies (%d) for the multi-region configuration", db.Geometry().Dies())
		}
		for _, g := range groups[1:] {
			if err := db.CreateRegion(core.RegionSpec{Name: g.Name, MaxChips: g.Dies}); err != nil {
				return nil, fmt.Errorf("tpcc: create region %s (%d dies): %w", g.Name, g.Dies, err)
			}
			tsName := "ts" + g.Name[2:]
			if err := db.CreateTablespace(tsName, g.Name, 0); err != nil {
				return nil, err
			}
			for _, obj := range g.Objects {
				placement[obj] = tsName
			}
		}
		// Group 0 (metadata + HISTORY) stays in the default region via a
		// dedicated tablespace bound to DEFAULT.
		if err := db.CreateTablespace("tsMeta", "", 0); err != nil {
			return nil, err
		}
		for _, obj := range groups[0].Objects {
			placement[obj] = "tsMeta"
		}
	}

	sch := &Schema{Placement: cfg.Placement, locks: newLockNames(cfg)}

	createTable := func(name, cols string) (*noftl.Table, error) {
		ts := placement[name]
		ddl := fmt.Sprintf("CREATE TABLE %s (%s)", name, cols)
		if ts != "" {
			ddl += " TABLESPACE " + ts
		}
		if err := db.Exec(ddl); err != nil {
			return nil, fmt.Errorf("tpcc: %s: %w", ddl, err)
		}
		t, _ := db.Table(name)
		return t, nil
	}
	createIndex := func(name, table, cols string, unique bool) (*noftl.Index, error) {
		ts := placement[name]
		u := ""
		if unique {
			u = "UNIQUE "
		}
		ddl := fmt.Sprintf("CREATE %sINDEX %s ON %s (%s)", u, name, table, cols)
		if ts != "" {
			ddl += " TABLESPACE " + ts
		}
		if err := db.Exec(ddl); err != nil {
			return nil, fmt.Errorf("tpcc: %s: %w", ddl, err)
		}
		i, _ := db.Index(name)
		return i, nil
	}

	var err error
	if sch.Warehouse, err = createTable(TableWarehouse, tableColumns("w_id", "w_ytd")); err != nil {
		return nil, err
	}
	if sch.District, err = createTable(TableDistrict, tableColumns("d_id", "d_w_id", "d_next_o_id")); err != nil {
		return nil, err
	}
	if sch.Customer, err = createTable(TableCustomer, tableColumns("c_id", "c_d_id", "c_w_id", "c_balance")); err != nil {
		return nil, err
	}
	if sch.History, err = createTable(TableHistory, tableColumns("h_c_id", "h_amount")); err != nil {
		return nil, err
	}
	if sch.NewOrder, err = createTable(TableNewOrder, tableColumns("no_o_id", "no_d_id", "no_w_id")); err != nil {
		return nil, err
	}
	if sch.Order, err = createTable(TableOrder, tableColumns("o_id", "o_d_id", "o_w_id", "o_c_id")); err != nil {
		return nil, err
	}
	if sch.OrderLine, err = createTable(TableOrderLine, tableColumns("ol_o_id", "ol_d_id", "ol_w_id", "ol_number")); err != nil {
		return nil, err
	}
	if sch.Item, err = createTable(TableItem, tableColumns("i_id", "i_price")); err != nil {
		return nil, err
	}
	if sch.Stock, err = createTable(TableStock, tableColumns("s_i_id", "s_w_id", "s_quantity")); err != nil {
		return nil, err
	}

	if sch.WIdx, err = createIndex(IndexWarehouse, TableWarehouse, "w_id", true); err != nil {
		return nil, err
	}
	if sch.DIdx, err = createIndex(IndexDistrict, TableDistrict, "d_w_id, d_id", true); err != nil {
		return nil, err
	}
	if sch.CIdx, err = createIndex(IndexCustomer, TableCustomer, "c_w_id, c_d_id, c_id", true); err != nil {
		return nil, err
	}
	if sch.CNameIdx, err = createIndex(IndexCustName, TableCustomer, "c_w_id, c_d_id, c_last, c_id", false); err != nil {
		return nil, err
	}
	if sch.IIdx, err = createIndex(IndexItem, TableItem, "i_id", true); err != nil {
		return nil, err
	}
	if sch.SIdx, err = createIndex(IndexStock, TableStock, "s_w_id, s_i_id", true); err != nil {
		return nil, err
	}
	if sch.NOIdx, err = createIndex(IndexNewOrder, TableNewOrder, "no_w_id, no_d_id, no_o_id", true); err != nil {
		return nil, err
	}
	if sch.OIdx, err = createIndex(IndexOrder, TableOrder, "o_w_id, o_d_id, o_id", true); err != nil {
		return nil, err
	}
	if sch.OCustIdx, err = createIndex(IndexOrderCust, TableOrder, "o_w_id, o_d_id, o_c_id, o_id", false); err != nil {
		return nil, err
	}
	if sch.OLIdx, err = createIndex(IndexOrderLine, TableOrderLine, "ol_w_id, ol_d_id, ol_o_id, ol_number", true); err != nil {
		return nil, err
	}
	return sch, nil
}
