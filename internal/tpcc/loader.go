package tpcc

import (
	"fmt"

	"noftl"
)

// Load populates the TPC-C database according to the configuration.  The
// loader follows clause 4.3 of the specification with the cardinalities
// scaled by the configuration.  It commits in batches so the WAL and buffer
// pool behave as they would for a bulk load.
func Load(db *noftl.DB, sch *Schema, cfg Config) error {
	cfg = cfg.withDefaults()
	r := newRNG(cfg.Seed)

	if err := loadItems(db, sch, cfg, r); err != nil {
		return fmt.Errorf("tpcc load items: %w", err)
	}
	// Checkpoints between loading steps keep the WAL footprint bounded so
	// the (small) metadata region never fills up during the bulk load.
	if _, err := db.Checkpoint(db.SimulatedTime()); err != nil {
		return fmt.Errorf("tpcc load checkpoint: %w", err)
	}
	for w := 1; w <= cfg.Warehouses; w++ {
		if err := loadWarehouse(db, sch, cfg, r, w); err != nil {
			return fmt.Errorf("tpcc load warehouse %d: %w", w, err)
		}
	}
	// Push the load onto flash so the measured run starts from a clean
	// buffer-pool state.
	if _, err := db.Checkpoint(db.SimulatedTime()); err != nil {
		return fmt.Errorf("tpcc load checkpoint: %w", err)
	}
	return nil
}

const loadBatch = 200

// address fills the name and address fields of a warehouse or district.
func address(r *rng, name, street, city, state, zip []byte) {
	r.aText(name, 6, 10)
	r.aText(street, 10, 20)
	r.aText(city, 10, 20)
	r.aText(state, 2, 2)
	r.zipText(zip)
}

// newScratch returns a row and a key buffer for a loader to reuse: the
// engine copies what it keeps of a row or a key.
func newScratch() (enc, key []byte) { return make([]byte, 0, maxRowSize), make([]byte, 0, maxKeySize) }

func loadItems(db *noftl.DB, sch *Schema, cfg Config, r *rng) error {
	enc, key := newScratch()
	tx := db.Begin()
	for i := 1; i <= cfg.ItemCount; i++ {
		item := Item{IID: uint32(i), ImID: uint32(r.uniform(1, 10000))}
		r.aText(item.Name[:], 14, 24)
		item.Price = int64(r.uniform(100, 10000))
		r.dataText(item.Data[:])
		if _, err := insertRow(tx, sch.Item, item.Encode(enc[:0]), sch.IIdx, itemKey(key[:0], i)); err != nil {
			return err
		}
		if i%loadBatch == 0 {
			if _, err := tx.Commit(); err != nil {
				return err
			}
			tx = db.Begin()
		}
	}
	_, err := tx.Commit()
	return err
}

func loadWarehouse(db *noftl.DB, sch *Schema, cfg Config, r *rng, w int) error {
	enc, key := newScratch()
	tx := db.Begin()
	wh := Warehouse{WID: uint32(w), YTD: 30000000}
	address(r, wh.Name[:], wh.Street[:], wh.City[:], wh.State[:], wh.Zip[:])
	wh.Tax = int64(r.uniform(0, 2000))
	if _, err := insertRow(tx, sch.Warehouse, wh.Encode(enc[:0]), sch.WIdx, warehouseKey(key[:0], w)); err != nil {
		return err
	}
	// Stock.
	for i := 1; i <= cfg.ItemCount; i++ {
		st := Stock{IID: uint32(i), WID: uint32(w), Quantity: uint32(r.uniform(10, 100))}
		r.dataText(st.Data[:])
		for d := range st.Dists {
			r.aText(st.Dists[d][:], 24, 24)
		}
		if _, err := insertRow(tx, sch.Stock, st.Encode(enc[:0]), sch.SIdx, stockKey(key[:0], w, i)); err != nil {
			return err
		}
		if i%loadBatch == 0 {
			if _, err := tx.Commit(); err != nil {
				return err
			}
			tx = db.Begin()
		}
	}
	if _, err := tx.Commit(); err != nil {
		return err
	}
	if _, err := db.Checkpoint(db.SimulatedTime()); err != nil {
		return err
	}
	// Districts, customers, history and initial orders.
	for d := 1; d <= cfg.DistrictsPerWarehouse; d++ {
		if err := loadDistrict(db, sch, cfg, r, w, d); err != nil {
			return err
		}
		if _, err := db.Checkpoint(db.SimulatedTime()); err != nil {
			return err
		}
	}
	return nil
}

func loadDistrict(db *noftl.DB, sch *Schema, cfg Config, r *rng, w, d int) error {
	enc, key := newScratch()
	tx := db.Begin()
	dist := District{DID: uint32(d), WID: uint32(w), YTD: 3000000, NextOID: uint32(cfg.InitialOrdersPerDistrict + 1)}
	address(r, dist.Name[:], dist.Street[:], dist.City[:], dist.State[:], dist.Zip[:])
	dist.Tax = int64(r.uniform(0, 2000))
	if _, err := insertRow(tx, sch.District, dist.Encode(enc[:0]), sch.DIdx, districtKey(key[:0], w, d)); err != nil {
		return err
	}

	// Customers and their history rows.
	for c := 1; c <= cfg.CustomersPerDistrict; c++ {
		credit := "GC"
		if r.Intn(10) == 0 {
			credit = "BC"
		}
		last := lastName((c - 1) % 1000)
		if cfg.CustomersPerDistrict < 1000 {
			last = lastName((c - 1) % cfg.CustomersPerDistrict)
		}
		cust := Customer{
			CID: uint32(c), DID: uint32(d), WID: uint32(w), Since: 1, CreditLimit: 5000000,
			Balance: -1000, YTDPayment: 1000, PaymentCnt: 1,
		}
		r.aText(cust.First[:], 8, 16)
		setText(cust.Middle[:], "OE")
		setText(cust.Last[:], last)
		r.aText(cust.Street[:], 10, 20)
		r.aText(cust.City[:], 10, 20)
		r.aText(cust.State[:], 2, 2)
		r.zipText(cust.Zip[:])
		r.nText(cust.Phone[:], 16)
		setText(cust.Credit[:], credit)
		cust.Discount = int64(r.uniform(0, 5000))
		r.aText(cust.Data[:], 100, 250)
		crid, err := insertRow(tx, sch.Customer, cust.Encode(enc[:0]), sch.CIdx, customerKey(key[:0], w, d, c))
		if err != nil {
			return err
		}
		if err := sch.CNameIdx.Insert(tx, customerNameKey(key[:0], w, d, last, c), crid); err != nil {
			return err
		}
		hist := History{CID: uint32(c), CDID: uint32(d), CWID: uint32(w), DID: uint32(d), WID: uint32(w), Date: 1, Amount: 1000}
		r.aText(hist.Data[:], 12, 24)
		if _, err := sch.History.Insert(tx, hist.Encode(enc[:0])); err != nil {
			return err
		}
		if c%loadBatch == 0 {
			if _, err := tx.Commit(); err != nil {
				return err
			}
			tx = db.Begin()
		}
	}
	if _, err := tx.Commit(); err != nil {
		return err
	}

	// Initial orders: each of the first InitialOrdersPerDistrict customers
	// (in a shuffled permutation) has one existing order; the most recent
	// third is still undelivered (NEW_ORDER rows), per clause 4.3.3.1.
	tx = db.Begin()
	perm := r.Perm(cfg.CustomersPerDistrict)
	for o := 1; o <= cfg.InitialOrdersPerDistrict; o++ {
		cid := perm[(o-1)%len(perm)] + 1
		olCnt := r.uniform(5, 15)
		delivered := o <= cfg.InitialOrdersPerDistrict*2/3
		carrier := uint32(0)
		if delivered {
			carrier = uint32(r.uniform(1, 10))
		}
		ord := Order{
			OID: uint32(o), DID: uint32(d), WID: uint32(w), CID: uint32(cid),
			EntryDate: 1, CarrierID: carrier, OLCount: uint32(olCnt), AllLocal: 1,
		}
		orid, err := insertRow(tx, sch.Order, ord.Encode(enc[:0]), sch.OIdx, orderKey(key[:0], w, d, o))
		if err != nil {
			return err
		}
		if err := sch.OCustIdx.Insert(tx, orderCustKey(key[:0], w, d, cid, o), orid); err != nil {
			return err
		}
		if !delivered {
			no := NewOrder{OID: uint32(o), DID: uint32(d), WID: uint32(w)}
			if _, err := insertRow(tx, sch.NewOrder, no.Encode(enc[:0]), sch.NOIdx, newOrderKey(key[:0], w, d, o)); err != nil {
				return err
			}
		}
		for n := 1; n <= olCnt; n++ {
			ol := OrderLine{
				OID: uint32(o), DID: uint32(d), WID: uint32(w), Number: uint32(n),
				ItemID: uint32(r.uniform(1, cfg.ItemCount)), SupplyWID: uint32(w),
				Quantity: 5, Amount: int64(r.uniform(1, 999999)),
			}
			r.aText(ol.DistInfo[:], 24, 24)
			if delivered {
				ol.DeliveryDate = 1
				ol.Amount = 0
			}
			if _, err := insertRow(tx, sch.OrderLine, ol.Encode(enc[:0]), sch.OLIdx, orderLineKey(key[:0], w, d, o, n)); err != nil {
				return err
			}
		}
		if o%50 == 0 {
			if _, err := tx.Commit(); err != nil {
				return err
			}
			tx = db.Begin()
		}
	}
	_, err := tx.Commit()
	return err
}
