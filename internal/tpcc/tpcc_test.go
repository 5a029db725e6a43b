package tpcc

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"runtime"
	"strings"
	"testing"
	"testing/quick"
	"time"
	"unsafe"

	"noftl"
	"noftl/internal/flash"
)

// testDB builds a database sized for the tiny TPC-C configuration.
func testDB(t *testing.T, placement PlacementKind) *noftl.DB {
	t.Helper()
	cfg := noftl.DefaultConfig()
	cfg.Flash.Geometry = flash.Geometry{
		Channels: 4, DiesPerChannel: 2, PlanesPerDie: 1,
		BlocksPerDie: 128, PagesPerBlock: 32, PageSize: 2048,
	}
	cfg.BufferPoolPages = 256
	db, err := noftl.OpenConfig(cfg)
	if err != nil {
		t.Fatal(err)
	}
	_ = placement
	return db
}

// encoder is what the nine row types have in common.
type encoder interface{ Encode(dst []byte) []byte }

// rowCase is one row type: the row built by rowCases, its width, and its
// decoder, as a value (decode) and discarding it (check, which boxes nothing).
// HISTORY has no decoder: TPC-C writes it and never reads it back.
type rowCase struct {
	table  string
	size   int
	row    encoder
	decode func([]byte) (encoder, error)
	check  func([]byte) error
}

func newRowCase[T encoder](table string, size int, row T, decode func([]byte) (T, error)) rowCase {
	return rowCase{table, size, row,
		func(b []byte) (encoder, error) { v, err := decode(b); return v, err },
		func(b []byte) error { _, err := decode(b); return err }}
}

// fill sets every text field given to s of the field's width.
func fill(s func(width int) string, fields ...[]byte) {
	for _, f := range fields {
		setText(f, s(len(f)))
	}
}

// rowCases returns the nine row types, every text field set by s from its
// width.
func rowCases(s func(width int) string) []rowCase {
	w := Warehouse{WID: 1, Tax: -1, YTD: 1 << 40}
	fill(s, w.Name[:], w.Street[:], w.City[:], w.State[:], w.Zip[:])
	d := District{DID: 10, WID: 1, Tax: 7, YTD: -7, NextOID: 1 << 31}
	fill(s, d.Name[:], d.Street[:], d.City[:], d.State[:], d.Zip[:])
	c := Customer{CID: 3000, DID: 10, WID: 1, Since: 1, CreditLimit: 2, Discount: 3, Balance: -4,
		YTDPayment: 5, PaymentCnt: 6, DeliveryCnt: 7}
	fill(s, c.First[:], c.Middle[:], c.Last[:], c.Street[:], c.City[:], c.State[:], c.Zip[:], c.Phone[:], c.Credit[:], c.Data[:])
	h := History{CID: 1, CDID: 2, CWID: 3, DID: 4, WID: 5, Date: 6, Amount: -7}
	fill(s, h.Data[:])
	ol := OrderLine{OID: 1, DID: 2, WID: 3, Number: 4, ItemID: 5, SupplyWID: 6, DeliveryDate: 7, Quantity: 8, Amount: 9}
	fill(s, ol.DistInfo[:])
	it := Item{IID: 100000, ImID: 2, Price: 10000}
	fill(s, it.Name[:], it.Data[:])
	st := Stock{IID: 1, WID: 2, Quantity: 91, YTD: -4, OrderCnt: 5, RemoteCnt: 6}
	fill(s, st.Data[:])
	for i := range st.Dists {
		fill(s, st.Dists[i][:])
	}
	return []rowCase{
		newRowCase("WAREHOUSE", warehouseSize, w, DecodeWarehouse),
		newRowCase("DISTRICT", districtSize, d, DecodeDistrict),
		newRowCase("CUSTOMER", customerSize, c, DecodeCustomer),
		{table: "HISTORY", size: historySize, row: h},
		newRowCase("NEW_ORDER", newOrderSize, NewOrder{OID: 9, DID: 2, WID: 3}, DecodeNewOrder),
		newRowCase("ORDER", orderSize, Order{OID: 1, DID: 2, WID: 3, CID: 4, EntryDate: -5, CarrierID: 6, OLCount: 15, AllLocal: 1}, DecodeOrder),
		newRowCase("ORDERLINE", orderLineSize, ol, DecodeOrderLine),
		newRowCase("ITEM", itemSize, it, DecodeItem),
		newRowCase("STOCK", stockSize, st, DecodeStock),
	}
}

// TestRowCodecsRoundTrip: each of the nine rows encodes to the row's width,
// each row TPC-C reads decodes to itself, and a buffer short of it is refused.
func TestRowCodecsRoundTrip(t *testing.T) {
	for _, c := range rowCases(func(w int) string { return strings.Repeat("h", w/2) }) {
		enc := c.row.Encode(nil)
		if len(enc) != c.size {
			t.Errorf("%s: encodes to %d bytes, want %d", c.table, len(enc), c.size)
		}
		if c.decode == nil {
			continue
		}
		if got, err := c.decode(enc); err != nil || got != c.row {
			t.Errorf("%s: decodes to %+v (%v), want %+v", c.table, got, err, c.row)
		}
		if err := c.check(enc[:c.size-1]); err == nil {
			t.Errorf("%s: short row accepted", c.table)
		}
	}
}

// TestRowCodecsStringWidths round-trips the row types TPC-C reads with every
// text field empty, filled to its full width, starting with a NUL, and ending
// in NULs, which a fixed-width field cannot tell from its padding: they decode
// as the padding.
func TestRowCodecsStringWidths(t *testing.T) {
	fills := map[string]func(width int) (enc, dec string){
		"empty": func(int) (string, string) { return "", "" },
		"full-width": func(w int) (string, string) {
			s := strings.Repeat("Z", w-1) + "a"
			return s, s
		},
		"leading NUL": func(w int) (string, string) {
			s := "\x00" + strings.Repeat("b", w-1)
			return s, s
		},
		"trailing NUL": func(w int) (string, string) {
			s := strings.Repeat("q", w/2)
			return s + "\x00", s
		},
	}
	for name, fill := range fills {
		want := rowCases(func(w int) string { _, s := fill(w); return s })
		for i, c := range rowCases(func(w int) string { s, _ := fill(w); return s }) {
			if c.decode == nil {
				continue
			}
			if got, err := c.decode(c.row.Encode(nil)); err != nil || got != want[i].row {
				t.Errorf("%s, %s strings: decoded %+v (%v), want %+v", c.table, name, got, err, want[i].row)
			}
		}
	}
	var ol OrderLine
	setText(ol.DistInfo[:], "dist")
	if got := text(ol.DistInfo[:]); string(got) != "dist" {
		t.Errorf("text of a padded field = %q, want %q", got, "dist")
	}
}

// TestDecodeAllocatesNothing gates the row codec: a decode copies the row into
// a value of fixed-width fields and allocates nothing.
func TestDecodeAllocatesNothing(t *testing.T) {
	for _, c := range rowCases(func(w int) string { return strings.Repeat("x", w) }) {
		if c.check == nil {
			continue
		}
		enc := c.row.Encode(nil)
		if n := testing.AllocsPerRun(100, func() {
			if err := c.check(enc); err != nil {
				t.Fatal(err)
			}
		}); n != 0 {
			t.Errorf("decoding a %s row allocates %v times, want 0", c.table, n)
		}
	}
}

// FuzzRowCodec: for each row type TPC-C reads, any input of the row's width
// (the fuzzed bytes, NUL-padded or cut to it) decodes and re-encodes to itself
// byte for byte, embedded and trailing NULs included.
func FuzzRowCodec(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte("ab\x00cd\x00\x00ef"))
	f.Add(bytes.Repeat([]byte{0xFF, 0}, maxRowSize))
	cases := rowCases(func(int) string { return "" })
	f.Fuzz(func(t *testing.T, data []byte) {
		for _, c := range cases {
			if c.decode == nil {
				continue
			}
			in := make([]byte, c.size)
			copy(in, data)
			row, err := c.decode(in)
			if err != nil {
				t.Fatalf("%s: %v", c.table, err)
			}
			if out := row.Encode(nil); !bytes.Equal(out, in) {
				t.Fatalf("%s: %x re-encodes as %x", c.table, in, out)
			}
		}
	})
}

// TestEncodeIntoReusedBuffer gates the terminal's encode scratch: a row
// encoded into a buffer that just held a longer row of non-NUL bytes, or after
// bytes dst already holds, is byte for byte the row encoded alone, and that
// is the fixed-width layout the database was loaded with (the golden hashes
// of the nine rows, taken before Encode appended).
func TestEncodeIntoReusedBuffer(t *testing.T) {
	fills := []struct {
		name   string
		s      func(width int) string
		golden string
	}{
		{"empty", func(int) string { return "" }, "7170866d57e454ab17bae0a4bff15e85caf18f60434fd3549543eebaedd415f8"},
		{"full-width", func(w int) string { return strings.Repeat("f", w) }, "5ea5c9e1e9839bc302012a3cffbc2e26ed74ad3f81c33487e063f0aad56d586d"},
		{"over-width", func(w int) string { return strings.Repeat("o", w+7) }, "810fac511ea5844f607e40dc212fdeeb674eda717f8b7320044b11ddeaf7cd82"},
		{"half-width", func(w int) string { return strings.Repeat("h", w/2) }, "1b8a41467f7d24ea9ecb7fb1f25f80725711d3b4234292790b239ac9c807c447"},
	}
	dirty := func() []byte { return bytes.Repeat([]byte{0xA5}, 2*maxRowSize)[:0] }
	prefix := []byte("dst")
	for _, fill := range fills {
		h := sha256.New()
		for _, c := range rowCases(fill.s) {
			want := c.row.Encode(nil)
			h.Write(want)
			if got := c.row.Encode(dirty()); !bytes.Equal(got, want) {
				t.Errorf("%s, %s strings: Encode(dirty) = %x, want %x", c.table, fill.name, got, want)
			}
			if got := c.row.Encode(append(dirty(), prefix...)); !bytes.Equal(got, append(bytes.Clone(prefix), want...)) {
				t.Errorf("%s, %s strings: Encode after %q = %x", c.table, fill.name, prefix, got)
			}
		}
		if got := hex.EncodeToString(h.Sum(nil)); got != fill.golden {
			t.Errorf("%s strings: the nine rows hash to %s, want %s", fill.name, got, fill.golden)
		}
	}
}

// TestEncodeIntoCapacityAllocatesNothing: a row encoded into a buffer with
// room for it, as the terminal's, allocates nothing.
func TestEncodeIntoCapacityAllocatesNothing(t *testing.T) {
	buf := make([]byte, 0, maxRowSize)
	for _, c := range rowCases(func(w int) string { return strings.Repeat("x", w) }) {
		if n := testing.AllocsPerRun(100, func() { buf = c.row.Encode(buf[:0]) }); n != 0 {
			t.Errorf("%s: Encode into capacity allocates %v times", c.table, n)
		}
	}
}

// TestLockNames: every name of the table Setup builds is the bytes fmt's
// form was (the lock table keys its map by the name), every name a run can
// take is in it, and each kind's names follow one another in one string.
func TestLockNames(t *testing.T) {
	cfg := Config{Warehouses: 3, DistrictsPerWarehouse: 10, CustomersPerDistrict: 12, ItemCount: 1001}
	n := newLockNames(cfg)
	for w := 1; w <= cfg.Warehouses; w++ {
		check := func(got, want string) {
			if got != want {
				t.Errorf("lock name %q, want %q", got, want)
			}
		}
		check(n.warehouseLock(w), fmt.Sprintf("W:%d", w))
		for d := 1; d <= cfg.DistrictsPerWarehouse; d++ {
			check(n.districtLock(w, d), fmt.Sprintf("D:%d:%d", w, d))
			check(n.deliveryLock(w, d), fmt.Sprintf("DLV:%d:%d", w, d))
			for c := 1; c <= cfg.CustomersPerDistrict; c++ {
				check(n.customerLock(w, d, c), fmt.Sprintf("C:%d:%d:%d", w, d, c))
			}
		}
		for i := 1; i <= cfg.ItemCount; i++ {
			check(n.stockLock(w, i), fmt.Sprintf("S:%d:%d", w, i))
		}
	}
	for _, kind := range [][]string{n.warehouse, n.district, n.delivery, n.customer, n.stock} {
		for k := 1; k < len(kind); k++ {
			if unsafe.Pointer(unsafe.StringData(kind[k])) != unsafe.Add(unsafe.Pointer(unsafe.StringData(kind[k-1])), len(kind[k-1])) {
				t.Fatalf("%q does not follow %q in one string", kind[k], kind[k-1])
			}
		}
	}
	var buf [maxKeySize]byte
	want := noftl.AppendKey(append(noftl.Key(1, 2), "BARBARBAR\x00"...), 3)
	if got := customerNameKey([]byte("dst"), 1, 2, "BARBARBAR", 3); !bytes.Equal(got, append([]byte("dst"), want...)) {
		t.Errorf("customerNameKey = %x, want dst then %x", got, want)
	}
	if got := orderLineKey(buf[:0], 1, 2, 3, 4); !bytes.Equal(got, noftl.Key(1, 2, 3, 4)) {
		t.Errorf("orderLineKey = %x", got)
	}
}

// TestRunRefusesALargerScale: Setup builds the lock names of its own scale,
// so a run at a larger one is refused with an error before it starts.
func TestRunRefusesALargerScale(t *testing.T) {
	db := testDB(t, PlacementTraditional)
	defer db.Close()
	cfg := TinyConfig()
	sch, err := Setup(db, cfg)
	if err != nil {
		t.Fatal(err)
	}
	for _, grow := range []func(*Config){
		func(c *Config) { c.Warehouses++ }, func(c *Config) { c.DistrictsPerWarehouse++ },
		func(c *Config) { c.CustomersPerDistrict++ }, func(c *Config) { c.ItemCount++ },
	} {
		big := cfg.withDefaults()
		grow(&big)
		if _, err := Run(db, sch, big); err == nil || !strings.Contains(err.Error(), "scale") {
			t.Errorf("a run at %+v on a schema set up at %+v: %v, want the scale refused", big, cfg, err)
		}
	}
}

// TestCreditDataMatchesSprintf: a bad-credit payment's C_DATA built with
// creditData is the field fmt.Sprintf built, byte for byte, also when the old
// C_DATA is cut at the field's width.
func TestCreditDataMatchesSprintf(t *testing.T) {
	for _, c := range []struct {
		cid, did, wid, d, w int
		amount              int64
		data                string
	}{
		{1, 1, 1, 1, 1, 100, ""},
		{3000, 10, 8, 7, 8, 500000, "some earlier payment"},
		{42, 3, 2, 10, 1, 4711, strings.Repeat("x", 240)}, // cut at 250 bytes
		{600, 9, 4, 2, 4, 123456, strings.Repeat("y", 250)},
	} {
		cust := Customer{CID: uint32(c.cid), DID: uint32(c.did), WID: uint32(c.wid)}
		setText(cust.Data[:], c.data)
		want := cust
		setText(want.Data[:], fmt.Sprintf("%d %d %d %d %d %d|%s", cust.CID, cust.DID, cust.WID, c.d, c.w, c.amount, string(text(cust.Data[:]))))
		setText(cust.Data[:], creditData(make([]byte, 0, maxRowSize), &cust, c.d, c.w, c.amount))
		if cust.Data != want.Data {
			t.Errorf("C_DATA %q, want %q", text(cust.Data[:]), text(want.Data[:]))
		}
	}
}

func TestStockCodecProperty(t *testing.T) {
	f := func(iid, wid, qty uint32, ytd int64, oc, rc uint32) bool {
		s := Stock{IID: iid, WID: wid, Quantity: qty, YTD: ytd, OrderCnt: oc, RemoteCnt: rc}
		setText(s.Data[:], "d")
		got, err := DecodeStock(s.Encode(nil))
		return err == nil && got == s
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func TestRandomHelpers(t *testing.T) {
	r := newRNG(1)
	for i := 0; i < 1000; i++ {
		if v := r.customerID(300); v < 1 || v > 300 {
			t.Fatalf("customerID out of range: %d", v)
		}
		if v := r.itemID(100); v < 1 || v > 100 {
			t.Fatalf("itemID out of range: %d", v)
		}
		if v := r.nuRand(255, 0, 0, 999); v < 0 || v > 999 {
			t.Fatalf("nuRand out of range: %d", v)
		}
	}
	if lastName(371) != "PRICALLYOUGHT" {
		t.Fatalf("lastName(371) = %q", lastName(371))
	}
	if n := r.lastNameRun(300); n == "" {
		t.Fatal("empty run last name")
	}
	// The transaction mix respects the standard shares, approximately.
	term := newTerminal(nil, nil, DefaultConfig(), 7, 1, 1)
	counts := map[TxnType]int{}
	const draws = 20000
	for i := 0; i < draws; i++ {
		counts[term.pickType()]++
	}
	if float64(counts[TxnNewOrder])/draws < 0.40 || float64(counts[TxnPayment])/draws < 0.38 {
		t.Fatalf("mix off: %+v", counts)
	}
	for _, ty := range []TxnType{TxnOrderStatus, TxnDelivery, TxnStockLevel} {
		share := float64(counts[ty]) / draws
		if share < 0.02 || share > 0.07 {
			t.Fatalf("mix share of %s = %.3f", ty, share)
		}
	}
	for ty := TxnType(0); ty <= txnTypeCount; ty++ {
		if ty.String() == "" {
			t.Fatal("empty type name")
		}
	}
}

func TestSetupCreatesSchemaTraditional(t *testing.T) {
	db := testDB(t, PlacementTraditional)
	defer db.Close()
	cfg := TinyConfig()
	cfg.Placement = PlacementTraditional
	sch, err := Setup(db, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if sch.Placement != PlacementTraditional {
		t.Fatal("placement not recorded")
	}
	// All nine tables and ten indexes exist.
	for _, name := range []string{TableWarehouse, TableDistrict, TableCustomer, TableHistory,
		TableNewOrder, TableOrder, TableOrderLine, TableItem, TableStock} {
		if _, ok := db.Table(name); !ok {
			t.Fatalf("table %s missing", name)
		}
	}
	for _, name := range []string{IndexWarehouse, IndexDistrict, IndexCustomer, IndexCustName,
		IndexItem, IndexStock, IndexNewOrder, IndexOrder, IndexOrderCust, IndexOrderLine} {
		if _, ok := db.Index(name); !ok {
			t.Fatalf("index %s missing", name)
		}
	}
	// Created but not loaded: Check rejects a database with empty tables.
	if err := Check(db); err == nil || !strings.Contains(err.Error(), " 0 rows") {
		t.Fatalf("Check on an unloaded schema: %v", err)
	}
	// Traditional placement creates no extra regions.
	if got := len(db.Stats().Space.Regions); got != 1 {
		t.Fatalf("traditional placement created %d regions", got)
	}
}

func TestSetupCreatesSchemaRegions(t *testing.T) {
	db := testDB(t, PlacementRegions)
	defer db.Close()
	cfg := TinyConfig()
	cfg.Placement = PlacementRegions
	if _, err := Setup(db, cfg); err != nil {
		t.Fatal(err)
	}
	st := db.Stats().Space
	// Default region plus the five named regions of Figure 2 (group 0 stays
	// in the default region).
	if len(st.Regions) != 6 {
		t.Fatalf("expected 6 regions, got %d", len(st.Regions))
	}
	totalDies := 0
	for _, r := range st.Regions {
		if len(r.Dies) == 0 {
			t.Fatalf("region %s has no dies", r.Name)
		}
		totalDies += len(r.Dies)
	}
	if totalDies != db.Geometry().Dies() {
		t.Fatalf("dies distributed = %d, want %d", totalDies, db.Geometry().Dies())
	}
	// The biggest region must be the STOCK/OL_IDX one, as in Figure 2.
	stock, ok := st.RegionByName("rgStock")
	if !ok {
		t.Fatal("rgStock missing")
	}
	for _, r := range st.Regions {
		if r.Name != "rgStock" && len(r.Dies) > len(stock.Dies) {
			t.Fatalf("region %s (%d dies) larger than rgStock (%d)", r.Name, len(r.Dies), len(stock.Dies))
		}
	}
}

func TestLoadPopulatesDatabase(t *testing.T) {
	db := testDB(t, PlacementTraditional)
	defer db.Close()
	cfg := TinyConfig()
	cfg.Placement = PlacementTraditional
	sch, err := Setup(db, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if err := Load(db, sch, cfg); err != nil {
		t.Fatal(err)
	}
	if got := sch.Item.RowCount(); got != int64(cfg.ItemCount) {
		t.Fatalf("items = %d", got)
	}
	if got := sch.Warehouse.RowCount(); got != int64(cfg.Warehouses) {
		t.Fatalf("warehouses = %d", got)
	}
	wantDistricts := int64(cfg.Warehouses * cfg.DistrictsPerWarehouse)
	if got := sch.District.RowCount(); got != wantDistricts {
		t.Fatalf("districts = %d, want %d", got, wantDistricts)
	}
	wantCustomers := wantDistricts * int64(cfg.CustomersPerDistrict)
	if got := sch.Customer.RowCount(); got != wantCustomers {
		t.Fatalf("customers = %d, want %d", got, wantCustomers)
	}
	if got := sch.Stock.RowCount(); got != int64(cfg.Warehouses*cfg.ItemCount) {
		t.Fatalf("stock = %d", got)
	}
	wantOrders := wantDistricts * int64(cfg.InitialOrdersPerDistrict)
	if got := sch.Order.RowCount(); got != wantOrders {
		t.Fatalf("orders = %d, want %d", got, wantOrders)
	}
	if got := sch.OrderLine.RowCount(); got < wantOrders*5 {
		t.Fatalf("order lines = %d, want >= %d", got, wantOrders*5)
	}
	// A third of the initial orders are undelivered.
	if got := sch.NewOrder.RowCount(); got == 0 || got >= wantOrders {
		t.Fatalf("new orders = %d", got)
	}
	if got := sch.History.RowCount(); got != wantCustomers {
		t.Fatalf("history = %d", got)
	}
	// Index cardinalities match their tables.
	if sch.CIdx.Entries() != wantCustomers || sch.CNameIdx.Entries() != wantCustomers {
		t.Fatalf("customer index entries: %d / %d", sch.CIdx.Entries(), sch.CNameIdx.Entries())
	}
	if sch.OIdx.Entries() != wantOrders || sch.OCustIdx.Entries() != wantOrders {
		t.Fatalf("order index entries: %d / %d", sch.OIdx.Entries(), sch.OCustIdx.Entries())
	}
	if sch.SIdx.Entries() != int64(cfg.Warehouses*cfg.ItemCount) {
		t.Fatalf("stock index entries: %d", sch.SIdx.Entries())
	}
	// The load reached flash (checkpoint at the end of Load).
	if db.Stats().Space.ValidPages == 0 {
		t.Fatal("load never reached flash")
	}
	if err := Check(db); err != nil {
		t.Fatal(err)
	}
}

func TestTransactionsModifyState(t *testing.T) {
	db := testDB(t, PlacementTraditional)
	defer db.Close()
	cfg := TinyConfig()
	cfg.Placement = PlacementTraditional
	sch, err := Setup(db, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if err := Load(db, sch, cfg); err != nil {
		t.Fatal(err)
	}
	term := newTerminal(db, sch, cfg, 3, 1, 1)

	// NewOrder: district next_o_id advances and order lines appear.
	ordersBefore := sch.Order.RowCount()
	linesBefore := sch.OrderLine.RowCount()
	ran := 0
	for ran < 5 {
		tx := db.Begin()
		err := term.newOrder(tx)
		if err != nil && !errorsIsRollback(err) {
			t.Fatalf("newOrder: %v", err)
		}
		if err != nil {
			tx.Abort()
			continue
		}
		if _, err := tx.Commit(); err != nil {
			t.Fatal(err)
		}
		ran++
	}
	if sch.Order.RowCount() != ordersBefore+5 {
		t.Fatalf("orders after NewOrder = %d, want %d", sch.Order.RowCount(), ordersBefore+5)
	}
	if sch.OrderLine.RowCount() < linesBefore+5*5 {
		t.Fatalf("order lines did not grow: %d", sch.OrderLine.RowCount())
	}

	// Payment: warehouse YTD grows and a history row is appended.
	histBefore := sch.History.RowCount()
	tx := db.Begin()
	if err := term.payment(tx); err != nil {
		t.Fatalf("payment: %v", err)
	}
	if _, err := tx.Commit(); err != nil {
		t.Fatal(err)
	}
	if sch.History.RowCount() != histBefore+1 {
		t.Fatalf("history rows = %d", sch.History.RowCount())
	}
	tx = db.Begin()
	wh, _, err := term.getWarehouse(tx, 1)
	if err != nil {
		t.Fatal(err)
	}
	if wh.YTD <= 30000000 {
		t.Fatalf("warehouse YTD not updated: %d", wh.YTD)
	}
	if _, err := tx.Commit(); err != nil {
		t.Fatal(err)
	}

	// OrderStatus and StockLevel are read-only and must not fail.
	tx = db.Begin()
	if err := term.orderStatus(tx); err != nil {
		t.Fatalf("orderStatus: %v", err)
	}
	if err := term.stockLevel(tx); err != nil {
		t.Fatalf("stockLevel: %v", err)
	}
	if _, err := tx.Commit(); err != nil {
		t.Fatal(err)
	}

	// Delivery: the NEW_ORDER backlog shrinks.
	noBefore := sch.NewOrder.RowCount()
	if noBefore == 0 {
		t.Fatal("no undelivered orders to deliver")
	}
	tx = db.Begin()
	if err := term.delivery(tx); err != nil {
		t.Fatalf("delivery: %v", err)
	}
	if _, err := tx.Commit(); err != nil {
		t.Fatal(err)
	}
	if sch.NewOrder.RowCount() >= noBefore {
		t.Fatalf("delivery did not consume new orders: %d -> %d", noBefore, sch.NewOrder.RowCount())
	}
}

func errorsIsRollback(err error) bool { return err != nil && errorsIs(err, errRollback) }

// errorsIs avoids importing errors twice in this test file's helpers.
func errorsIs(err, target error) bool {
	for e := err; e != nil; {
		if e == target {
			return true
		}
		type unwrapper interface{ Unwrap() error }
		u, ok := e.(unwrapper)
		if !ok {
			return false
		}
		e = u.Unwrap()
	}
	return false
}

// TestRunTinyWorkloadBothPlacements runs 8 terminals on 8 worker goroutines (a
// worker per terminal is the default), so under -race the workers share the
// whole engine; the database they leave must pass Check.
func TestRunTinyWorkloadBothPlacements(t *testing.T) {
	for _, placement := range []PlacementKind{PlacementTraditional, PlacementRegions} {
		placement := placement
		t.Run(placement.String(), func(t *testing.T) {
			db := testDB(t, placement)
			defer db.Close()
			cfg := TinyConfig()
			cfg.Placement = placement
			cfg.Terminals = 8
			cfg.Transactions = 300
			res, err := LoadAndRun(db, cfg)
			if err != nil {
				t.Fatal(err)
			}
			if res.Failed != 0 {
				t.Fatalf("failed transactions: %d", res.Failed)
			}
			if res.Committed+res.Aborted != int64(cfg.Transactions) {
				t.Fatalf("committed+aborted = %d, want %d", res.Committed+res.Aborted, cfg.Transactions)
			}
			if res.TPS <= 0 || res.SimulatedTime <= 0 {
				t.Fatalf("TPS/time: %v %v", res.TPS, res.SimulatedTime)
			}
			if res.ResponseTimes[TxnNewOrder].Count == 0 || res.ResponseTimes[TxnPayment].Count == 0 {
				t.Fatalf("missing response times: %+v", res.ResponseTimes)
			}
			if res.ResponseTimes[TxnNewOrder].Mean <= 0 {
				t.Fatal("zero NewOrder response time")
			}
			st := db.Stats()
			if st.Space.HostWrites == 0 {
				t.Fatal("no host writes measured (WAL flushes should write)")
			}
			if placement == PlacementRegions && len(st.Space.Regions) != 6 {
				t.Fatalf("expected 6 regions, got %d", len(st.Space.Regions))
			}
			// Every device command is charged to exactly one object: the
			// objects sum to the regions, and the log is one of them.
			var reads, writes, copybacks, walWrites int64
			for _, o := range st.Objects {
				reads, writes, copybacks = reads+o.Reads, writes+o.Writes, copybacks+o.Copybacks
				if o.Name == "WAL" {
					walWrites = o.Writes
				}
			}
			if reads != st.Space.HostReads || writes != st.Space.HostWrites || copybacks != st.Space.GCCopybacks || walWrites == 0 {
				t.Fatalf("objects sum to %d reads, %d writes (WAL %d), %d copybacks; the regions to %d, %d, %d",
					reads, writes, walWrites, copybacks, st.Space.HostReads, st.Space.HostWrites, st.Space.GCCopybacks)
			}
			if err := Check(db); err != nil {
				t.Fatal(err)
			}
		})
	}
}

// TestSameSeedSameRun checks that a single-driver run is a pure function of
// its seed: two fresh databases driven by one worker with one seed report
// identical work and identical device traffic.  Any order the driver takes
// from a Go map (Stock-Level's item set did) breaks this.
func TestSameSeedSameRun(t *testing.T) {
	type key struct {
		committed, reads, writes, copybacks, erases int64
		sim                                         time.Duration
	}
	run := func() key {
		// A pool smaller than the working set on a small, nearly full device:
		// access order decides evictions, and evictions decide GC.
		dbCfg := noftl.DefaultConfig()
		dbCfg.Flash.Geometry = flash.Geometry{
			Channels: 4, DiesPerChannel: 2, PlanesPerDie: 1,
			BlocksPerDie: 16, PagesPerBlock: 32, PageSize: 4096,
		}
		dbCfg.BufferPoolPages = 64
		db, err := noftl.OpenConfig(dbCfg, noftl.WithLightCheckpoints())
		if err != nil {
			t.Fatal(err)
		}
		defer db.Close()
		cfg := TinyConfig()
		cfg.CustomersPerDistrict = 60
		cfg.ItemCount = 300
		cfg.InitialOrdersPerDistrict = 60
		cfg.Workers = 1
		cfg.Transactions = 1500
		cfg.CheckpointEvery = 100
		res, err := LoadAndRun(db, cfg)
		if err != nil {
			t.Fatal(err)
		}
		st := db.Stats().Space
		return key{res.Committed, st.HostReads, st.HostWrites, st.GCCopybacks, st.GCErases, res.SimulatedTime}
	}
	ka, kb := run(), run()
	if ka != kb {
		t.Fatalf("same seed, different runs:\n  %+v\n  %+v", ka, kb)
	}
}

func TestConfigDefaults(t *testing.T) {
	var c Config
	c = c.withDefaults()
	if c.Warehouses != 1 || c.Terminals <= 0 || c.Transactions <= 0 || c.Seed == 0 {
		t.Fatalf("defaults not applied: %+v", c)
	}
	if DefaultConfig().Placement != PlacementRegions {
		t.Fatal("default placement should be regions")
	}
	if TinyConfig().Warehouses != 1 {
		t.Fatal("tiny config wrong")
	}
	if PlacementTraditional.String() == PlacementRegions.String() {
		t.Fatal("placement names collide")
	}
	// InitialOrders is clamped to the customer count.
	c = Config{CustomersPerDistrict: 10, InitialOrdersPerDistrict: 100}
	if c.withDefaults().InitialOrdersPerDistrict != 10 {
		t.Fatal("initial orders not clamped")
	}
}

// TestAllocationsPerTransaction caps the host cost of a TPC-C transaction: the
// heap allocations per committed transaction of each type run alone, and of
// the standard mix, on the tiny database under multi-region placement.  The mix
// measures 0.5 (2.1 before a Tx was cut from chunks of the database's, reads
// copied their rows and keys into one slab of the database's and a split
// reused its separator buffer; 3.9 before lock names were built once per
// schema, lock states carved in chunks and a transaction's scans shared one
// key slab; 76 before rows decoded into fixed-width fields, scans copied their
// keys into one slab, and begin, locking, dispatch and GC reused what they
// own; 405 before a page pin, a row decode, an index lookup and a log record
// stopped allocating what nothing keeps; 142 before a terminal read, encoded
// and keyed its rows in buffers it owns); NewOrder 0.5, Payment 0.1,
// OrderStatus 0.3, Delivery (ten districts) 0.9 and StockLevel 0.5.  What is
// left is mostly the simulation growing: lock states for keys never locked
// before, the die timelines, the loops over Stock-Level's and Delivery's
// scans.  Each ceiling is about twice the measured value.
func TestAllocationsPerTransaction(t *testing.T) {
	dbCfg := noftl.DefaultConfig()
	dbCfg.Flash.Geometry = flash.Geometry{
		Channels: 4, DiesPerChannel: 2, PlanesPerDie: 1,
		BlocksPerDie: 16, PagesPerBlock: 32, PageSize: 4096,
	}
	dbCfg.BufferPoolPages = 192
	dbCfg.DisableSnapshotCheckpoints = true
	db, err := noftl.OpenConfig(dbCfg)
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()
	cfg := Config{
		Warehouses: 1, CustomersPerDistrict: 60, ItemCount: 300, InitialOrdersPerDistrict: 60,
		Placement: PlacementRegions, Terminals: 4, Workers: 1, Transactions: 500, CheckpointEvery: 100,
	}
	sch, err := Setup(db, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if err := Load(db, sch, cfg); err != nil {
		t.Fatal(err)
	}
	perTxn := func(t *testing.T, ceiling float64, run func() (committed int64)) {
		var ms runtime.MemStats
		runtime.ReadMemStats(&ms)
		before := ms.Mallocs
		committed := run()
		runtime.ReadMemStats(&ms)
		if n := float64(ms.Mallocs-before) / float64(committed); n > ceiling {
			t.Errorf("%.1f heap allocations per committed transaction, ceiling %v", n, ceiling)
		} else {
			t.Logf("%.1f heap allocations per committed transaction", n)
		}
	}
	term := newTerminal(db, sch, cfg.withDefaults(), 5, 1, 1)
	for _, c := range []struct {
		typ     TxnType
		n       int
		ceiling float64
	}{
		{TxnNewOrder, 100, 1}, {TxnPayment, 100, 0.5}, {TxnOrderStatus, 100, 0.8},
		{TxnDelivery, 10, 2}, {TxnStockLevel, 50, 1.2},
	} {
		t.Run(c.typ.String(), func(t *testing.T) {
			perTxn(t, c.ceiling, func() (committed int64) {
				for range c.n {
					tx := db.Begin()
					if err := term.run(c.typ, tx); err != nil {
						tx.Abort()
						if errorsIsRollback(err) {
							continue
						}
						t.Fatal(err)
					}
					if _, err := tx.Commit(); err != nil {
						t.Fatal(err)
					}
					committed++
				}
				return committed
			})
		})
	}
	t.Run("mix", func(t *testing.T) {
		perTxn(t, 1, func() int64 {
			res, err := Run(db, sch, cfg)
			if err != nil {
				t.Fatal(err)
			}
			return res.Committed
		})
	})
}
