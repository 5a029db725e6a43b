package tpcc

import (
	"encoding/binary"
	"fmt"
	"slices"
)

// Row encodings.  Rows are fixed-size binary records (strings are stored in
// fixed-width fields) so that in-place heap updates never change the record
// size, mirroring the fixed-width row layout TPC-C kits typically use.

// fieldWriter appends a row's fixed-width fields to a buffer the caller may
// reuse.  Every field writes all of its bytes (a string is cut to its width and
// padded with NULs), so nothing of an earlier, longer row survives in it.
type fieldWriter []byte

// newFieldWriter returns a writer appending to dst, grown once for a row of
// size bytes.
func newFieldWriter(dst []byte, size int) fieldWriter { return slices.Grow(dst, size) }

func (w *fieldWriter) u32(v uint32) { *w = binary.LittleEndian.AppendUint32(*w, v) }

func (w *fieldWriter) u64(v uint64) { *w = binary.LittleEndian.AppendUint64(*w, v) }

func (w *fieldWriter) i64(v int64) { w.u64(uint64(v)) }

func (w *fieldWriter) money(v int64) { w.u64(uint64(v)) } // cents

func (w *fieldWriter) str(s string, width int) {
	s = s[:min(len(s), width)]
	*w = append(append(*w, s...), make([]byte, width-len(s))...)
}

// fieldReader decodes a row.  The first string field converts the whole row
// to a string once; every string field is a trimmed substring of it, so a
// decode allocates once however many string fields the row has.
type fieldReader struct {
	buf []byte
	row string
	off int
}

func (r *fieldReader) u32() uint32 {
	v := binary.LittleEndian.Uint32(r.buf[r.off:])
	r.off += 4
	return v
}

func (r *fieldReader) u64() uint64 {
	v := binary.LittleEndian.Uint64(r.buf[r.off:])
	r.off += 8
	return v
}

func (r *fieldReader) i64() int64 { return int64(r.u64()) }

func (r *fieldReader) str(width int) string {
	if r.row == "" {
		r.row = string(r.buf)
	}
	start := r.off
	r.off += width
	end := r.off
	for end > start && r.row[end-1] == 0 {
		end--
	}
	return r.row[start:end]
}

// Warehouse row (~112 bytes).
type Warehouse struct {
	WID    uint32
	Name   string
	Street string
	City   string
	State  string
	Zip    string
	Tax    int64 // basis points
	YTD    int64 // cents
}

const warehouseSize = 4 + 10 + 20 + 20 + 2 + 9 + 8 + 8

// Encode appends the serialized row to dst.
func (w Warehouse) Encode(dst []byte) []byte {
	fw := newFieldWriter(dst, warehouseSize)
	fw.u32(w.WID)
	fw.str(w.Name, 10)
	fw.str(w.Street, 20)
	fw.str(w.City, 20)
	fw.str(w.State, 2)
	fw.str(w.Zip, 9)
	fw.i64(w.Tax)
	fw.money(w.YTD)
	return fw
}

// DecodeWarehouse deserializes a warehouse row.
func DecodeWarehouse(b []byte) (Warehouse, error) {
	if len(b) < warehouseSize {
		return Warehouse{}, fmt.Errorf("tpcc: short WAREHOUSE row (%d bytes)", len(b))
	}
	r := &fieldReader{buf: b}
	return Warehouse{
		WID: r.u32(), Name: r.str(10), Street: r.str(20), City: r.str(20),
		State: r.str(2), Zip: r.str(9), Tax: r.i64(), YTD: r.i64(),
	}, nil
}

// District row.
type District struct {
	DID     uint32
	WID     uint32
	Name    string
	Street  string
	City    string
	State   string
	Zip     string
	Tax     int64
	YTD     int64
	NextOID uint32
}

const districtSize = 4 + 4 + 10 + 20 + 20 + 2 + 9 + 8 + 8 + 4

// Encode appends the serialized row to dst.
func (d District) Encode(dst []byte) []byte {
	fw := newFieldWriter(dst, districtSize)
	fw.u32(d.DID)
	fw.u32(d.WID)
	fw.str(d.Name, 10)
	fw.str(d.Street, 20)
	fw.str(d.City, 20)
	fw.str(d.State, 2)
	fw.str(d.Zip, 9)
	fw.i64(d.Tax)
	fw.money(d.YTD)
	fw.u32(d.NextOID)
	return fw
}

// DecodeDistrict deserializes a district row.
func DecodeDistrict(b []byte) (District, error) {
	if len(b) < districtSize {
		return District{}, fmt.Errorf("tpcc: short DISTRICT row (%d bytes)", len(b))
	}
	r := &fieldReader{buf: b}
	return District{
		DID: r.u32(), WID: r.u32(), Name: r.str(10), Street: r.str(20), City: r.str(20),
		State: r.str(2), Zip: r.str(9), Tax: r.i64(), YTD: r.i64(), NextOID: r.u32(),
	}, nil
}

// Customer row (~430 bytes).
type Customer struct {
	CID         uint32
	DID         uint32
	WID         uint32
	First       string
	Middle      string
	Last        string
	Street      string
	City        string
	State       string
	Zip         string
	Phone       string
	Since       int64
	Credit      string
	CreditLimit int64
	Discount    int64
	Balance     int64
	YTDPayment  int64
	PaymentCnt  uint32
	DeliveryCnt uint32
	Data        string
}

const customerSize = 4*3 + 16 + 2 + 16 + 20 + 20 + 2 + 9 + 16 + 8 + 2 + 8 + 8 + 8 + 8 + 4 + 4 + 250

// Encode appends the serialized row to dst.
func (c Customer) Encode(dst []byte) []byte {
	fw := newFieldWriter(dst, customerSize)
	fw.u32(c.CID)
	fw.u32(c.DID)
	fw.u32(c.WID)
	fw.str(c.First, 16)
	fw.str(c.Middle, 2)
	fw.str(c.Last, 16)
	fw.str(c.Street, 20)
	fw.str(c.City, 20)
	fw.str(c.State, 2)
	fw.str(c.Zip, 9)
	fw.str(c.Phone, 16)
	fw.i64(c.Since)
	fw.str(c.Credit, 2)
	fw.money(c.CreditLimit)
	fw.i64(c.Discount)
	fw.money(c.Balance)
	fw.money(c.YTDPayment)
	fw.u32(c.PaymentCnt)
	fw.u32(c.DeliveryCnt)
	fw.str(c.Data, 250)
	return fw
}

// DecodeCustomer deserializes a customer row.
func DecodeCustomer(b []byte) (Customer, error) {
	if len(b) < customerSize {
		return Customer{}, fmt.Errorf("tpcc: short CUSTOMER row (%d bytes)", len(b))
	}
	r := &fieldReader{buf: b}
	return Customer{
		CID: r.u32(), DID: r.u32(), WID: r.u32(),
		First: r.str(16), Middle: r.str(2), Last: r.str(16),
		Street: r.str(20), City: r.str(20), State: r.str(2), Zip: r.str(9), Phone: r.str(16),
		Since: r.i64(), Credit: r.str(2), CreditLimit: r.i64(), Discount: r.i64(),
		Balance: r.i64(), YTDPayment: r.i64(), PaymentCnt: r.u32(), DeliveryCnt: r.u32(),
		Data: r.str(250),
	}, nil
}

// History row (insert-only).
type History struct {
	CID    uint32
	CDID   uint32
	CWID   uint32
	DID    uint32
	WID    uint32
	Date   int64
	Amount int64
	Data   string
}

const historySize = 4*5 + 8 + 8 + 24

// Encode appends the serialized row to dst.
func (h History) Encode(dst []byte) []byte {
	fw := newFieldWriter(dst, historySize)
	fw.u32(h.CID)
	fw.u32(h.CDID)
	fw.u32(h.CWID)
	fw.u32(h.DID)
	fw.u32(h.WID)
	fw.i64(h.Date)
	fw.money(h.Amount)
	fw.str(h.Data, 24)
	return fw
}

// DecodeHistory deserializes a history row.
func DecodeHistory(b []byte) (History, error) {
	if len(b) < historySize {
		return History{}, fmt.Errorf("tpcc: short HISTORY row (%d bytes)", len(b))
	}
	r := &fieldReader{buf: b}
	return History{
		CID: r.u32(), CDID: r.u32(), CWID: r.u32(), DID: r.u32(), WID: r.u32(),
		Date: r.i64(), Amount: r.i64(), Data: r.str(24),
	}, nil
}

// NewOrder row.
type NewOrder struct {
	OID uint32
	DID uint32
	WID uint32
}

const newOrderSize = 12

// Encode appends the serialized row to dst.
func (n NewOrder) Encode(dst []byte) []byte {
	fw := newFieldWriter(dst, newOrderSize)
	fw.u32(n.OID)
	fw.u32(n.DID)
	fw.u32(n.WID)
	return fw
}

// DecodeNewOrder deserializes a new-order row.
func DecodeNewOrder(b []byte) (NewOrder, error) {
	if len(b) < newOrderSize {
		return NewOrder{}, fmt.Errorf("tpcc: short NEW_ORDER row (%d bytes)", len(b))
	}
	r := &fieldReader{buf: b}
	return NewOrder{OID: r.u32(), DID: r.u32(), WID: r.u32()}, nil
}

// Order row.
type Order struct {
	OID       uint32
	DID       uint32
	WID       uint32
	CID       uint32
	EntryDate int64
	CarrierID uint32
	OLCount   uint32
	AllLocal  uint32
}

const orderSize = 4*4 + 8 + 4 + 4 + 4

// Encode appends the serialized row to dst.
func (o Order) Encode(dst []byte) []byte {
	fw := newFieldWriter(dst, orderSize)
	fw.u32(o.OID)
	fw.u32(o.DID)
	fw.u32(o.WID)
	fw.u32(o.CID)
	fw.i64(o.EntryDate)
	fw.u32(o.CarrierID)
	fw.u32(o.OLCount)
	fw.u32(o.AllLocal)
	return fw
}

// DecodeOrder deserializes an order row.
func DecodeOrder(b []byte) (Order, error) {
	if len(b) < orderSize {
		return Order{}, fmt.Errorf("tpcc: short ORDER row (%d bytes)", len(b))
	}
	r := &fieldReader{buf: b}
	return Order{
		OID: r.u32(), DID: r.u32(), WID: r.u32(), CID: r.u32(),
		EntryDate: r.i64(), CarrierID: r.u32(), OLCount: r.u32(), AllLocal: r.u32(),
	}, nil
}

// OrderLine row.
type OrderLine struct {
	OID          uint32
	DID          uint32
	WID          uint32
	Number       uint32
	ItemID       uint32
	SupplyWID    uint32
	DeliveryDate int64
	Quantity     uint32
	Amount       int64
	DistInfo     string
}

const orderLineSize = 4*6 + 8 + 4 + 8 + 24

// Encode appends the serialized row to dst.
func (ol OrderLine) Encode(dst []byte) []byte {
	fw := newFieldWriter(dst, orderLineSize)
	fw.u32(ol.OID)
	fw.u32(ol.DID)
	fw.u32(ol.WID)
	fw.u32(ol.Number)
	fw.u32(ol.ItemID)
	fw.u32(ol.SupplyWID)
	fw.i64(ol.DeliveryDate)
	fw.u32(ol.Quantity)
	fw.money(ol.Amount)
	fw.str(ol.DistInfo, 24)
	return fw
}

// DecodeOrderLine deserializes an order-line row.
func DecodeOrderLine(b []byte) (OrderLine, error) {
	if len(b) < orderLineSize {
		return OrderLine{}, fmt.Errorf("tpcc: short ORDERLINE row (%d bytes)", len(b))
	}
	r := &fieldReader{buf: b}
	return OrderLine{
		OID: r.u32(), DID: r.u32(), WID: r.u32(), Number: r.u32(), ItemID: r.u32(),
		SupplyWID: r.u32(), DeliveryDate: r.i64(), Quantity: r.u32(), Amount: r.i64(),
		DistInfo: r.str(24),
	}, nil
}

// Item row.
type Item struct {
	IID   uint32
	ImID  uint32
	Name  string
	Price int64
	Data  string
}

const itemSize = 4 + 4 + 24 + 8 + 50

// Encode appends the serialized row to dst.
func (i Item) Encode(dst []byte) []byte {
	fw := newFieldWriter(dst, itemSize)
	fw.u32(i.IID)
	fw.u32(i.ImID)
	fw.str(i.Name, 24)
	fw.money(i.Price)
	fw.str(i.Data, 50)
	return fw
}

// DecodeItem deserializes an item row.
func DecodeItem(b []byte) (Item, error) {
	if len(b) < itemSize {
		return Item{}, fmt.Errorf("tpcc: short ITEM row (%d bytes)", len(b))
	}
	r := &fieldReader{buf: b}
	return Item{IID: r.u32(), ImID: r.u32(), Name: r.str(24), Price: r.i64(), Data: r.str(50)}, nil
}

// Stock row (~318 bytes).
type Stock struct {
	IID       uint32
	WID       uint32
	Quantity  uint32
	Dists     [10]string // 24 chars each
	YTD       int64
	OrderCnt  uint32
	RemoteCnt uint32
	Data      string
}

const stockSize = 4 + 4 + 4 + 10*24 + 8 + 4 + 4 + 50

// Encode appends the serialized row to dst.
func (s Stock) Encode(dst []byte) []byte {
	fw := newFieldWriter(dst, stockSize)
	fw.u32(s.IID)
	fw.u32(s.WID)
	fw.u32(s.Quantity)
	for _, d := range s.Dists {
		fw.str(d, 24)
	}
	fw.i64(s.YTD)
	fw.u32(s.OrderCnt)
	fw.u32(s.RemoteCnt)
	fw.str(s.Data, 50)
	return fw
}

// DecodeStock deserializes a stock row.
func DecodeStock(b []byte) (Stock, error) {
	if len(b) < stockSize {
		return Stock{}, fmt.Errorf("tpcc: short STOCK row (%d bytes)", len(b))
	}
	r := &fieldReader{buf: b}
	s := Stock{IID: r.u32(), WID: r.u32(), Quantity: r.u32()}
	for i := range s.Dists {
		s.Dists[i] = r.str(24)
	}
	s.YTD = r.i64()
	s.OrderCnt = r.u32()
	s.RemoteCnt = r.u32()
	s.Data = r.str(50)
	return s, nil
}
