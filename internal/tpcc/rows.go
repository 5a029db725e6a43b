package tpcc

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"slices"
)

// Row encodings.  Rows are fixed-size binary records (strings are stored in
// fixed-width fields) so that in-place heap updates never change the record
// size, mirroring the fixed-width row layout TPC-C kits typically use.  A row
// struct mirrors its page bytes: a text field is a NUL-padded byte array of
// the field's width, so a decode copies the row into a value and allocates
// nothing, and an encode copies it back.

// fieldWriter appends a row's fixed-width fields to a buffer the caller may
// reuse.  Every field writes all of its bytes, so nothing of an earlier, longer
// row survives in it.
type fieldWriter []byte

// newFieldWriter returns a writer appending to dst, grown once for a row of
// size bytes.
func newFieldWriter(dst []byte, size int) fieldWriter { return slices.Grow(dst, size) }

func (w *fieldWriter) u32(v uint32) { *w = binary.LittleEndian.AppendUint32(*w, v) }

func (w *fieldWriter) u64(v uint64) { *w = binary.LittleEndian.AppendUint64(*w, v) }

func (w *fieldWriter) i64(v int64) { w.u64(uint64(v)) }

func (w *fieldWriter) money(v int64) { w.u64(uint64(v)) } // cents

func (w *fieldWriter) text(field []byte) { *w = append(*w, field...) }

// fieldReader decodes a row in field order.
type fieldReader struct {
	buf []byte
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

// text copies the next len(field) bytes into field.
func (r *fieldReader) text(field []byte) { r.off += copy(field, r.buf[r.off:r.off+len(field)]) }

// setText stores s in a text field: cut to the field's width, NUL-padded.
func setText[T string | []byte](field []byte, s T) { clear(field[copy(field, s):]) }

// text returns a text field's contents without its NUL padding.
func text(field []byte) []byte { return bytes.TrimRight(field, "\x00") }

// Warehouse row (~112 bytes).
type Warehouse struct {
	WID    uint32
	Name   [10]byte
	Street [20]byte
	City   [20]byte
	State  [2]byte
	Zip    [9]byte
	Tax    int64 // basis points
	YTD    int64 // cents
}

const warehouseSize = 4 + 10 + 20 + 20 + 2 + 9 + 8 + 8

// Encode appends the serialized row to dst.
func (w Warehouse) Encode(dst []byte) []byte {
	fw := newFieldWriter(dst, warehouseSize)
	fw.u32(w.WID)
	fw.text(w.Name[:])
	fw.text(w.Street[:])
	fw.text(w.City[:])
	fw.text(w.State[:])
	fw.text(w.Zip[:])
	fw.i64(w.Tax)
	fw.money(w.YTD)
	return fw
}

// DecodeWarehouse deserializes a warehouse row.
func DecodeWarehouse(b []byte) (w Warehouse, err error) {
	if len(b) < warehouseSize {
		return w, fmt.Errorf("tpcc: short WAREHOUSE row (%d bytes)", len(b))
	}
	r := fieldReader{buf: b}
	w.WID = r.u32()
	r.text(w.Name[:])
	r.text(w.Street[:])
	r.text(w.City[:])
	r.text(w.State[:])
	r.text(w.Zip[:])
	w.Tax, w.YTD = r.i64(), r.i64()
	return w, nil
}

// District row.
type District struct {
	DID     uint32
	WID     uint32
	Name    [10]byte
	Street  [20]byte
	City    [20]byte
	State   [2]byte
	Zip     [9]byte
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
	fw.text(d.Name[:])
	fw.text(d.Street[:])
	fw.text(d.City[:])
	fw.text(d.State[:])
	fw.text(d.Zip[:])
	fw.i64(d.Tax)
	fw.money(d.YTD)
	fw.u32(d.NextOID)
	return fw
}

// DecodeDistrict deserializes a district row.
func DecodeDistrict(b []byte) (d District, err error) {
	if len(b) < districtSize {
		return d, fmt.Errorf("tpcc: short DISTRICT row (%d bytes)", len(b))
	}
	r := fieldReader{buf: b}
	d.DID, d.WID = r.u32(), r.u32()
	r.text(d.Name[:])
	r.text(d.Street[:])
	r.text(d.City[:])
	r.text(d.State[:])
	r.text(d.Zip[:])
	d.Tax, d.YTD, d.NextOID = r.i64(), r.i64(), r.u32()
	return d, nil
}

// Customer row (~430 bytes).
type Customer struct {
	CID         uint32
	DID         uint32
	WID         uint32
	First       [16]byte
	Middle      [2]byte
	Last        [16]byte
	Street      [20]byte
	City        [20]byte
	State       [2]byte
	Zip         [9]byte
	Phone       [16]byte
	Since       int64
	Credit      [2]byte
	CreditLimit int64
	Discount    int64
	Balance     int64
	YTDPayment  int64
	PaymentCnt  uint32
	DeliveryCnt uint32
	Data        [250]byte
}

const customerSize = 4*3 + 16 + 2 + 16 + 20 + 20 + 2 + 9 + 16 + 8 + 2 + 8 + 8 + 8 + 8 + 4 + 4 + 250

// Encode appends the serialized row to dst.
func (c Customer) Encode(dst []byte) []byte {
	fw := newFieldWriter(dst, customerSize)
	fw.u32(c.CID)
	fw.u32(c.DID)
	fw.u32(c.WID)
	fw.text(c.First[:])
	fw.text(c.Middle[:])
	fw.text(c.Last[:])
	fw.text(c.Street[:])
	fw.text(c.City[:])
	fw.text(c.State[:])
	fw.text(c.Zip[:])
	fw.text(c.Phone[:])
	fw.i64(c.Since)
	fw.text(c.Credit[:])
	fw.money(c.CreditLimit)
	fw.i64(c.Discount)
	fw.money(c.Balance)
	fw.money(c.YTDPayment)
	fw.u32(c.PaymentCnt)
	fw.u32(c.DeliveryCnt)
	fw.text(c.Data[:])
	return fw
}

// DecodeCustomer deserializes a customer row.
func DecodeCustomer(b []byte) (c Customer, err error) {
	if len(b) < customerSize {
		return c, fmt.Errorf("tpcc: short CUSTOMER row (%d bytes)", len(b))
	}
	r := fieldReader{buf: b}
	c.CID, c.DID, c.WID = r.u32(), r.u32(), r.u32()
	r.text(c.First[:])
	r.text(c.Middle[:])
	r.text(c.Last[:])
	r.text(c.Street[:])
	r.text(c.City[:])
	r.text(c.State[:])
	r.text(c.Zip[:])
	r.text(c.Phone[:])
	c.Since = r.i64()
	r.text(c.Credit[:])
	c.CreditLimit, c.Discount, c.Balance, c.YTDPayment = r.i64(), r.i64(), r.i64(), r.i64()
	c.PaymentCnt, c.DeliveryCnt = r.u32(), r.u32()
	r.text(c.Data[:])
	return c, nil
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
	Data   [24]byte
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
	fw.text(h.Data[:])
	return fw
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
	r := fieldReader{buf: b}
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
	r := fieldReader{buf: b}
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
	DistInfo     [24]byte
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
	fw.text(ol.DistInfo[:])
	return fw
}

// DecodeOrderLine deserializes an order-line row.
func DecodeOrderLine(b []byte) (ol OrderLine, err error) {
	if len(b) < orderLineSize {
		return ol, fmt.Errorf("tpcc: short ORDERLINE row (%d bytes)", len(b))
	}
	r := fieldReader{buf: b}
	ol.OID, ol.DID, ol.WID, ol.Number, ol.ItemID, ol.SupplyWID = r.u32(), r.u32(), r.u32(), r.u32(), r.u32(), r.u32()
	ol.DeliveryDate, ol.Quantity, ol.Amount = r.i64(), r.u32(), r.i64()
	r.text(ol.DistInfo[:])
	return ol, nil
}

// Item row.
type Item struct {
	IID   uint32
	ImID  uint32
	Name  [24]byte
	Price int64
	Data  [50]byte
}

const itemSize = 4 + 4 + 24 + 8 + 50

// Encode appends the serialized row to dst.
func (i Item) Encode(dst []byte) []byte {
	fw := newFieldWriter(dst, itemSize)
	fw.u32(i.IID)
	fw.u32(i.ImID)
	fw.text(i.Name[:])
	fw.money(i.Price)
	fw.text(i.Data[:])
	return fw
}

// DecodeItem deserializes an item row.
func DecodeItem(b []byte) (it Item, err error) {
	if len(b) < itemSize {
		return it, fmt.Errorf("tpcc: short ITEM row (%d bytes)", len(b))
	}
	r := fieldReader{buf: b}
	it.IID, it.ImID = r.u32(), r.u32()
	r.text(it.Name[:])
	it.Price = r.i64()
	r.text(it.Data[:])
	return it, nil
}

// Stock row (~318 bytes).
type Stock struct {
	IID       uint32
	WID       uint32
	Quantity  uint32
	Dists     [10][24]byte
	YTD       int64
	OrderCnt  uint32
	RemoteCnt uint32
	Data      [50]byte
}

const stockSize = 4 + 4 + 4 + 10*24 + 8 + 4 + 4 + 50

// Encode appends the serialized row to dst.
func (s Stock) Encode(dst []byte) []byte {
	fw := newFieldWriter(dst, stockSize)
	fw.u32(s.IID)
	fw.u32(s.WID)
	fw.u32(s.Quantity)
	for i := range s.Dists {
		fw.text(s.Dists[i][:])
	}
	fw.i64(s.YTD)
	fw.u32(s.OrderCnt)
	fw.u32(s.RemoteCnt)
	fw.text(s.Data[:])
	return fw
}

// DecodeStock deserializes a stock row.
func DecodeStock(b []byte) (s Stock, err error) {
	if len(b) < stockSize {
		return s, fmt.Errorf("tpcc: short STOCK row (%d bytes)", len(b))
	}
	r := fieldReader{buf: b}
	s.IID, s.WID, s.Quantity = r.u32(), r.u32(), r.u32()
	for i := range s.Dists {
		r.text(s.Dists[i][:])
	}
	s.YTD, s.OrderCnt, s.RemoteCnt = r.i64(), r.u32(), r.u32()
	r.text(s.Data[:])
	return s, nil
}
