package tpcc

import (
	"errors"
	"fmt"
	"maps"
	"math"
	"slices"

	"noftl"
)

// Check verifies a loaded TPC-C database, after a run or a recovery: the space
// manager's invariants, that every index and its table exist and the table
// has rows (NEW_ORDER may be emptied by Delivery), one index entry per row,
// and the consistency conditions of the specification (clause 3.3.2.1-4):
//
//  1. a warehouse's W_YTD is the sum of its districts' D_YTD;
//  2. a district's D_NEXT_O_ID - 1 is its largest O_ID and, while it has
//     undelivered orders, its largest NO_O_ID;
//  3. a district's NEW_ORDER rows hold every O_ID from its smallest to its
//     largest, where it has any;
//  4. a district's O_OL_CNT sum to its number of ORDER_LINE rows.
func Check(db *noftl.DB) error {
	if err := db.Admin().VerifyIntegrity(); err != nil {
		return err
	}
	for _, meta := range db.Schema().Indexes {
		idx, ok1 := db.Index(meta.Name)
		tbl, ok2 := db.Table(meta.Table)
		if !ok1 || !ok2 {
			return fmt.Errorf("tpcc: index %s on %s: found %v/%v", meta.Name, meta.Table, ok1, ok2)
		}
		if n := tbl.RowCount(); idx.Entries() != n || (n == 0 && meta.Table != TableNewOrder) {
			return fmt.Errorf("tpcc: index %s has %d entries, table %s has %d rows", meta.Name, idx.Entries(), meta.Table, n)
		}
	}
	type district struct {
		w, d                                                        uint32
		nextOID, maxOID, minNO, maxNO, newOrders, olCnt, orderLines int64
	}
	ytd := map[uint32]int64{} // W_YTD less the sum of D_YTD
	dists := map[uint64]*district{}
	at := func(w, d uint32) *district {
		k := uint64(w)<<32 | uint64(d)
		if dists[k] == nil {
			dists[k] = &district{w: w, d: d, minNO: math.MaxInt64}
		}
		return dists[k]
	}
	err := db.View(func(tx *noftl.Tx) error {
		return errors.Join(
			scan(db, tx, TableWarehouse, DecodeWarehouse, func(w Warehouse) { ytd[w.WID] += w.YTD }),
			scan(db, tx, TableDistrict, DecodeDistrict, func(d District) {
				ytd[d.WID] -= d.YTD
				at(d.WID, d.DID).nextOID = int64(d.NextOID)
			}),
			scan(db, tx, TableOrder, DecodeOrder, func(o Order) {
				d := at(o.WID, o.DID)
				d.maxOID, d.olCnt = max(d.maxOID, int64(o.OID)), d.olCnt+int64(o.OLCount)
			}),
			scan(db, tx, TableNewOrder, DecodeNewOrder, func(no NewOrder) {
				d := at(no.WID, no.DID)
				d.minNO, d.maxNO, d.newOrders = min(d.minNO, int64(no.OID)), max(d.maxNO, int64(no.OID)), d.newOrders+1
			}),
			scan(db, tx, TableOrderLine, DecodeOrderLine, func(ol OrderLine) { at(ol.WID, ol.DID).orderLines++ }))
	})
	if err != nil {
		return err
	}
	if len(ytd) == 0 {
		return errors.New("tpcc: no warehouse")
	}
	for _, w := range slices.Sorted(maps.Keys(ytd)) {
		if ytd[w] != 0 {
			return fmt.Errorf("tpcc: warehouse %d breaks condition 1: W_YTD is %d off the sum of D_YTD", w, ytd[w])
		}
	}
	for _, k := range slices.Sorted(maps.Keys(dists)) {
		d := dists[k]
		for i, holds := range []bool{
			d.nextOID-1 == d.maxOID && (d.newOrders == 0 || d.maxNO == d.maxOID),
			d.newOrders == 0 || d.maxNO-d.minNO+1 == d.newOrders,
			d.olCnt == d.orderLines,
		} {
			if !holds {
				return fmt.Errorf("tpcc: district (%d,%d) breaks condition %d: %+v", d.w, d.d, i+2, *d)
			}
		}
	}
	return nil
}

// scan decodes every row of table and hands it to use.
func scan[T any](db *noftl.DB, tx *noftl.Tx, table string, decode func([]byte) (T, error), use func(T)) error {
	tbl, ok := db.Table(table)
	if !ok {
		return fmt.Errorf("tpcc: no table %s", table)
	}
	for _, row := range tbl.Rows(tx) {
		v, err := decode(row)
		if err != nil {
			return err
		}
		use(v)
	}
	return tx.Err()
}
