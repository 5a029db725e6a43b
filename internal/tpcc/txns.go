package tpcc

import (
	"errors"
	"fmt"
	"slices"
	"strconv"

	"noftl"
)

// TxnType identifies one of the five TPC-C transaction types.
type TxnType int

// The five TPC-C transactions.
const (
	TxnNewOrder TxnType = iota
	TxnPayment
	TxnOrderStatus
	TxnDelivery
	TxnStockLevel
	txnTypeCount
)

func (t TxnType) String() string {
	switch t {
	case TxnNewOrder:
		return "NewOrder"
	case TxnPayment:
		return "Payment"
	case TxnOrderStatus:
		return "OrderStatus"
	case TxnDelivery:
		return "Delivery"
	case TxnStockLevel:
		return "StockLevel"
	default:
		return "Unknown"
	}
}

// errRollback marks the intentional 1 % NewOrder rollback (invalid item).
var errRollback = errors.New("tpcc: intentional rollback")

// terminal is one closed-loop TPC-C terminal bound to a home warehouse and
// district.
type terminal struct {
	db  *noftl.DB
	sch *Schema
	cfg Config
	r   *rng
	wID int
	dID int

	// Scratch the terminal's transactions fill and throw away, one
	// transaction at a time: the row read last, the row encoded last (both
	// with room for the widest row; the encoded one also Payment's C_DATA),
	// two buffers for index keys, for a Range needs both of its bounds at
	// once, the RIDs a scan collects before they are read, and Stock-Level's
	// distinct items.  The engine copies what it keeps of them.  A key buffer
	// is not rewritten while an iterator that was handed it runs.
	row, enc []byte
	key, hi  [maxKeySize]byte
	rids     []noftl.RID
	items    []uint32
	seen     map[uint32]bool
}

// maxRowSize is the size of the widest row, CUSTOMER; maxKeySize holds every
// index key of the configured scales.  An order has at most maxOrderLines
// lines, and Stock-Level reads those of the last stockLevelOrders orders.
const (
	maxRowSize       = customerSize
	maxKeySize       = 40
	maxOrderLines    = 15
	stockLevelOrders = 20
)

// newTerminal returns a terminal whose scratch is sized once, from TPC-C's
// bounds, so that no transaction grows it: the widest row, the RIDs of an
// order's lines or of the customers who share a last name, and the distinct
// items of Stock-Level's orders.
func newTerminal(db *noftl.DB, sch *Schema, cfg Config, seed uint64, wID, dID int) *terminal {
	sameName := (cfg.CustomersPerDistrict + 999) / 1000 // names repeat every 1 000 customers
	return &terminal{
		db: db, sch: sch, cfg: cfg, r: newRNG(seed), wID: wID, dID: dID,
		row:   make([]byte, 0, maxRowSize),
		enc:   make([]byte, 0, maxRowSize),
		rids:  make([]noftl.RID, 0, max(maxOrderLines, sameName)),
		items: make([]uint32, 0, stockLevelOrders*maxOrderLines),
		seen:  make(map[uint32]bool, stockLevelOrders*maxOrderLines),
	}
}

// read returns the row stored under rid in the terminal's row buffer, which
// the next read overwrites.
func (t *terminal) read(tx *noftl.Tx, tbl *noftl.Table, rid noftl.RID) ([]byte, error) {
	row, err := tbl.GetAppend(tx, rid, t.row[:0])
	t.row = row
	return row, err
}

// fetch looks key up in idx and reads the row it names, as read does.
func (t *terminal) fetch(tx *noftl.Tx, idx *noftl.Index, tbl *noftl.Table, key []byte) ([]byte, noftl.RID, error) {
	rid, found, err := idx.Lookup(tx, key)
	if err != nil || !found {
		return nil, rid, fmt.Errorf("%s key %x: found=%v %w", idx.Name(), key, found, err)
	}
	row, err := t.read(tx, tbl, rid)
	return row, rid, err
}

// insertRow inserts row into tbl and indexes it under key in idx.
func insertRow(tx *noftl.Tx, tbl *noftl.Table, row []byte, idx *noftl.Index, key []byte) (noftl.RID, error) {
	rid, err := tbl.Insert(tx, row)
	if err != nil {
		return rid, err
	}
	return rid, idx.Insert(tx, key, rid)
}

// pickType draws a transaction type following the standard mix
// (45/43/4/4/4).
func (t *terminal) pickType() TxnType {
	v := t.r.uniform(1, 100)
	switch {
	case v <= 45:
		return TxnNewOrder
	case v <= 88:
		return TxnPayment
	case v <= 92:
		return TxnOrderStatus
	case v <= 96:
		return TxnDelivery
	default:
		return TxnStockLevel
	}
}

// run executes one transaction of the given type and returns whether it
// committed.
func (t *terminal) run(typ TxnType, tx *noftl.Tx) error {
	switch typ {
	case TxnNewOrder:
		return t.newOrder(tx)
	case TxnPayment:
		return t.payment(tx)
	case TxnOrderStatus:
		return t.orderStatus(tx)
	case TxnDelivery:
		return t.delivery(tx)
	case TxnStockLevel:
		return t.stockLevel(tx)
	default:
		return fmt.Errorf("tpcc: unknown transaction type %d", typ)
	}
}

// ---- row access helpers ----

func (t *terminal) getWarehouse(tx *noftl.Tx, w int) (Warehouse, noftl.RID, error) {
	row, rid, err := t.fetch(tx, t.sch.WIdx, t.sch.Warehouse, warehouseKey(t.key[:0], w))
	if err != nil {
		return Warehouse{}, rid, err
	}
	wh, err := DecodeWarehouse(row)
	return wh, rid, err
}

func (t *terminal) getDistrict(tx *noftl.Tx, w, d int) (District, noftl.RID, error) {
	row, rid, err := t.fetch(tx, t.sch.DIdx, t.sch.District, districtKey(t.key[:0], w, d))
	if err != nil {
		return District{}, rid, err
	}
	dist, err := DecodeDistrict(row)
	return dist, rid, err
}

func (t *terminal) getCustomerByID(tx *noftl.Tx, w, d, c int) (Customer, noftl.RID, error) {
	row, rid, err := t.fetch(tx, t.sch.CIdx, t.sch.Customer, customerKey(t.key[:0], w, d, c))
	if err != nil {
		return Customer{}, rid, err
	}
	cust, err := DecodeCustomer(row)
	return cust, rid, err
}

// getCustomerByName selects the middle customer (per clause 2.5.2.2) among
// those sharing the last name.
func (t *terminal) getCustomerByName(tx *noftl.Tx, w, d int, last string) (Customer, noftl.RID, error) {
	rids := t.rids[:0]
	for _, rid := range t.sch.CNameIdx.Prefix(tx, customerNamePrefix(t.key[:0], w, d, last)) {
		rids = append(rids, rid)
	}
	t.rids = rids
	if err := tx.Err(); err != nil {
		return Customer{}, noftl.RID{}, err
	}
	if len(rids) == 0 {
		// The scaled name space may not contain this name; fall back to a
		// uniformly chosen customer id so the transaction still does work.
		return t.getCustomerByID(tx, w, d, t.r.uniform(1, t.cfg.CustomersPerDistrict))
	}
	rid := rids[len(rids)/2]
	row, err := t.read(tx, t.sch.Customer, rid)
	if err != nil {
		return Customer{}, noftl.RID{}, err
	}
	cust, err := DecodeCustomer(row)
	return cust, rid, err
}

// ---- the five transactions ----

// newOrder implements the New-Order transaction (clause 2.4).
func (t *terminal) newOrder(tx *noftl.Tx) error {
	w := t.wID
	d := t.r.uniform(1, t.cfg.DistrictsPerWarehouse)
	c := t.r.customerID(t.cfg.CustomersPerDistrict)
	olCnt := t.r.uniform(5, maxOrderLines)
	rollback := t.r.uniform(1, 100) == 1

	// Choose the items up front and lock them in canonical order (sorted by
	// item id) so concurrent NewOrders cannot deadlock.
	var itemBuf, lockBuf [maxOrderLines]int
	items := itemBuf[:olCnt]
	for i := range items {
		items[i] = t.r.itemID(t.cfg.ItemCount)
	}
	lockOrder := append(lockBuf[:0], items...)
	slices.Sort(lockOrder)

	// The district row is the serialization point (O_ID assignment).
	if err := tx.Lock(t.sch.locks.districtLock(w, d), noftl.Exclusive); err != nil {
		return err
	}
	for _, it := range lockOrder {
		if err := tx.Lock(t.sch.locks.stockLock(w, it), noftl.Exclusive); err != nil {
			return err
		}
	}

	wh, _, err := t.getWarehouse(tx, w)
	if err != nil {
		return err
	}
	dist, drid, err := t.getDistrict(tx, w, d)
	if err != nil {
		return err
	}
	cust, _, err := t.getCustomerByID(tx, w, d, c)
	if err != nil {
		return err
	}
	_ = wh
	_ = cust

	if rollback {
		// Clause 2.4.1.4: roughly 1 % of NewOrder transactions are rolled
		// back because of an unused (invalid) item number.  An abort has no
		// undo, so the rollback comes before the first update: taking the
		// O_ID would leave a hole in the district's orders.
		return errRollback
	}

	oID := int(dist.NextOID)
	dist.NextOID++
	if err := t.sch.District.Update(tx, drid, dist.Encode(t.enc[:0])); err != nil {
		return err
	}

	ord := Order{
		OID: uint32(oID), DID: uint32(d), WID: uint32(w), CID: uint32(c),
		EntryDate: int64(tx.Now()), OLCount: uint32(olCnt), AllLocal: 1,
	}
	orid, err := insertRow(tx, t.sch.Order, ord.Encode(t.enc[:0]), t.sch.OIdx, orderKey(t.key[:0], w, d, oID))
	if err != nil {
		return err
	}
	if err := t.sch.OCustIdx.Insert(tx, orderCustKey(t.key[:0], w, d, c, oID), orid); err != nil {
		return err
	}
	no := NewOrder{OID: uint32(oID), DID: uint32(d), WID: uint32(w)}
	if _, err := insertRow(tx, t.sch.NewOrder, no.Encode(t.enc[:0]), t.sch.NOIdx, newOrderKey(t.key[:0], w, d, oID)); err != nil {
		return err
	}

	for n, itemID := range items {
		// Item lookup (read only).
		irow, _, err := t.fetch(tx, t.sch.IIdx, t.sch.Item, itemKey(t.key[:0], itemID))
		if err != nil {
			return err
		}
		item, err := DecodeItem(irow)
		if err != nil {
			return err
		}
		// Stock update.
		srow, srid, err := t.fetch(tx, t.sch.SIdx, t.sch.Stock, stockKey(t.key[:0], w, itemID))
		if err != nil {
			return err
		}
		st, err := DecodeStock(srow)
		if err != nil {
			return err
		}
		qty := uint32(t.r.uniform(1, 10))
		if st.Quantity >= qty+10 {
			st.Quantity -= qty
		} else {
			st.Quantity = st.Quantity - qty + 91
		}
		st.YTD += int64(qty)
		st.OrderCnt++
		if err := t.sch.Stock.Update(tx, srid, st.Encode(t.enc[:0])); err != nil {
			return err
		}
		// Order line insert.
		ol := OrderLine{
			OID: uint32(oID), DID: uint32(d), WID: uint32(w), Number: uint32(n + 1),
			ItemID: uint32(itemID), SupplyWID: uint32(w), Quantity: qty,
			Amount:   int64(qty) * item.Price,
			DistInfo: st.Dists[(d-1)%10],
		}
		if _, err := insertRow(tx, t.sch.OrderLine, ol.Encode(t.enc[:0]), t.sch.OLIdx, orderLineKey(t.key[:0], w, d, oID, n+1)); err != nil {
			return err
		}
	}
	return nil
}

// payment implements the Payment transaction (clause 2.5).
func (t *terminal) payment(tx *noftl.Tx) error {
	w := t.wID
	d := t.r.uniform(1, t.cfg.DistrictsPerWarehouse)
	amount := int64(t.r.uniform(100, 500000))

	if err := tx.Lock(t.sch.locks.warehouseLock(w), noftl.Exclusive); err != nil {
		return err
	}
	if err := tx.Lock(t.sch.locks.districtLock(w, d), noftl.Exclusive); err != nil {
		return err
	}

	wh, wrid, err := t.getWarehouse(tx, w)
	if err != nil {
		return err
	}
	wh.YTD += amount
	if err := t.sch.Warehouse.Update(tx, wrid, wh.Encode(t.enc[:0])); err != nil {
		return err
	}

	dist, drid, err := t.getDistrict(tx, w, d)
	if err != nil {
		return err
	}
	dist.YTD += amount
	if err := t.sch.District.Update(tx, drid, dist.Encode(t.enc[:0])); err != nil {
		return err
	}

	// 60 % of payments select the customer by last name.
	var cust Customer
	var crid noftl.RID
	if t.r.uniform(1, 100) <= 60 {
		cust, crid, err = t.getCustomerByName(tx, w, d, t.r.lastNameRun(t.cfg.CustomersPerDistrict))
	} else {
		cust, crid, err = t.getCustomerByID(tx, w, d, t.r.customerID(t.cfg.CustomersPerDistrict))
	}
	if err != nil {
		return err
	}
	if err := tx.Lock(t.sch.locks.customerLock(w, d, int(cust.CID)), noftl.Exclusive); err != nil {
		return err
	}
	cust.Balance -= amount
	cust.YTDPayment += amount
	cust.PaymentCnt++
	if string(cust.Credit[:]) == "BC" {
		setText(cust.Data[:], creditData(t.enc[:0], &cust, d, w, amount))
	}
	if err := t.sch.Customer.Update(tx, crid, cust.Encode(t.enc[:0])); err != nil {
		return err
	}

	hist := History{
		CID: cust.CID, CDID: cust.DID, CWID: cust.WID,
		DID: uint32(d), WID: uint32(w), Date: int64(tx.Now()), Amount: amount,
	}
	n := copy(hist.Data[:], text(wh.Name[:])) // H_DATA: W_NAME, four spaces, D_NAME
	n += copy(hist.Data[n:], "    ")
	copy(hist.Data[n:], text(dist.Name[:]))
	_, err = t.sch.History.Insert(tx, hist.Encode(t.enc[:0]))
	return err
}

// creditData appends to dst the C_DATA of a bad-credit customer c after a
// payment of amount to district d of warehouse w (clause 2.5.2.2): the ids and
// the amount, then the old C_DATA.
func creditData(dst []byte, c *Customer, d, w int, amount int64) []byte {
	for _, id := range [...]int64{int64(c.CID), int64(c.DID), int64(c.WID), int64(d), int64(w)} {
		dst = append(strconv.AppendInt(dst, id, 10), ' ')
	}
	dst = append(strconv.AppendInt(dst, amount, 10), '|')
	return append(dst, text(c.Data[:])...)
}

// orderStatus implements the Order-Status transaction (clause 2.6).
func (t *terminal) orderStatus(tx *noftl.Tx) error {
	w := t.wID
	d := t.r.uniform(1, t.cfg.DistrictsPerWarehouse)

	var cust Customer
	var err error
	if t.r.uniform(1, 100) <= 60 {
		cust, _, err = t.getCustomerByName(tx, w, d, t.r.lastNameRun(t.cfg.CustomersPerDistrict))
	} else {
		cust, _, err = t.getCustomerByID(tx, w, d, t.r.customerID(t.cfg.CustomersPerDistrict))
	}
	if err != nil {
		return err
	}

	// Most recent order of the customer.
	var lastOrderRID noftl.RID
	found := false
	for _, rid := range t.sch.OCustIdx.Prefix(tx, orderCustPrefix(t.key[:0], w, d, int(cust.CID))) {
		lastOrderRID = rid
		found = true
	}
	if err := tx.Err(); err != nil {
		return err
	}
	if !found {
		return nil // customer has no orders yet
	}
	orow, err := t.read(tx, t.sch.Order, lastOrderRID)
	if err != nil {
		return err
	}
	ord, err := DecodeOrder(orow)
	if err != nil {
		return err
	}
	// Read its order lines.
	for _, rid := range t.sch.OLIdx.Prefix(tx, orderLinePrefix(t.key[:0], w, d, int(ord.OID))) {
		if _, err := t.read(tx, t.sch.OrderLine, rid); err != nil {
			return err
		}
	}
	return tx.Err()
}

// delivery implements the Delivery transaction (clause 2.7), processing all
// districts of the warehouse in one database transaction (the deferred
// queue of the specification is folded into the transaction, as most
// research prototypes do).
func (t *terminal) delivery(tx *noftl.Tx) error {
	w := t.wID
	carrier := uint32(t.r.uniform(1, 10))
	for d := 1; d <= t.cfg.DistrictsPerWarehouse; d++ {
		if err := tx.Lock(t.sch.locks.deliveryLock(w, d), noftl.Exclusive); err != nil {
			return err
		}
		// Oldest undelivered order.
		var noKey []byte
		var noRID noftl.RID
		found := false
		for k, rid := range t.sch.NOIdx.Prefix(tx, newOrderPrefix(t.key[:0], w, d)) {
			noKey = k
			noRID = rid
			found = true
			break // only the first (oldest)
		}
		if err := tx.Err(); err != nil {
			return err
		}
		if !found {
			continue // nothing to deliver in this district
		}
		norow, err := t.read(tx, t.sch.NewOrder, noRID)
		if err != nil {
			return err
		}
		no, err := DecodeNewOrder(norow)
		if err != nil {
			return err
		}
		oID := int(no.OID)
		if err := t.sch.NewOrder.Delete(tx, noRID); err != nil {
			return err
		}
		if err := t.sch.NOIdx.Delete(tx, noKey); err != nil {
			return err
		}
		// Update the order with the carrier.
		orow, orid, err := t.fetch(tx, t.sch.OIdx, t.sch.Order, orderKey(t.key[:0], w, d, oID))
		if err != nil {
			return err
		}
		ord, err := DecodeOrder(orow)
		if err != nil {
			return err
		}
		ord.CarrierID = carrier
		if err := t.sch.Order.Update(tx, orid, ord.Encode(t.enc[:0])); err != nil {
			return err
		}
		// Update every order line's delivery date and sum the amounts.
		var total int64
		olRIDs := t.rids[:0]
		for _, rid := range t.sch.OLIdx.Prefix(tx, orderLinePrefix(t.key[:0], w, d, oID)) {
			olRIDs = append(olRIDs, rid)
		}
		t.rids = olRIDs
		if err := tx.Err(); err != nil {
			return err
		}
		for _, rid := range olRIDs {
			row, err := t.read(tx, t.sch.OrderLine, rid)
			if err != nil {
				return err
			}
			ol, err := DecodeOrderLine(row)
			if err != nil {
				return err
			}
			total += ol.Amount
			ol.DeliveryDate = int64(tx.Now())
			if err := t.sch.OrderLine.Update(tx, rid, ol.Encode(t.enc[:0])); err != nil {
				return err
			}
		}
		// Credit the customer.
		if err := tx.Lock(t.sch.locks.customerLock(w, d, int(ord.CID)), noftl.Exclusive); err != nil {
			return err
		}
		cust, crid, err := t.getCustomerByID(tx, w, d, int(ord.CID))
		if err != nil {
			return err
		}
		cust.Balance += total
		cust.DeliveryCnt++
		if err := t.sch.Customer.Update(tx, crid, cust.Encode(t.enc[:0])); err != nil {
			return err
		}
	}
	return nil
}

// stockLevel implements the Stock-Level transaction (clause 2.8).
func (t *terminal) stockLevel(tx *noftl.Tx) error {
	w := t.wID
	d := t.dID
	threshold := uint32(t.r.uniform(10, 20))

	dist, _, err := t.getDistrict(tx, w, d)
	if err != nil {
		return err
	}
	nextO := int(dist.NextOID)
	lowO := nextO - stockLevelOrders
	if lowO < 1 {
		lowO = 1
	}
	// Collect the distinct items of the last 20 orders, in first-seen order:
	// the stock lookups below must hit the buffer pool in the same order on
	// every run of a seed.
	seen, items := t.seen, t.items[:0]
	clear(seen)
	for _, rid := range t.sch.OLIdx.Range(tx, orderLineKey(t.key[:0], w, d, lowO, 0), orderLineKey(t.hi[:0], w, d, nextO, 0)) {
		row, err := t.read(tx, t.sch.OrderLine, rid)
		if err != nil {
			return err
		}
		ol, err := DecodeOrderLine(row)
		if err != nil {
			return err
		}
		if !seen[ol.ItemID] {
			seen[ol.ItemID] = true
			items = append(items, ol.ItemID)
		}
	}
	t.items = items
	if err := tx.Err(); err != nil {
		return err
	}
	// Count items whose stock is below the threshold.
	low := 0
	for _, itemID := range items {
		srid, found, err := t.sch.SIdx.Lookup(tx, stockKey(t.key[:0], w, int(itemID)))
		if err != nil {
			return err
		}
		if !found {
			continue
		}
		row, err := t.read(tx, t.sch.Stock, srid)
		if err != nil {
			return err
		}
		st, err := DecodeStock(row)
		if err != nil {
			return err
		}
		if st.Quantity < threshold {
			low++
		}
	}
	_ = low
	return nil
}
