package tpcc

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"math"
	"strings"
	"testing"
	"testing/quick"
	"time"

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

func TestRowCodecsRoundTrip(t *testing.T) {
	w := Warehouse{WID: 3, Name: "Acme", Street: "Main St 1", City: "Springfield", State: "AA", Zip: "123451111", Tax: 1500, YTD: 42}
	if got, err := DecodeWarehouse(w.Encode(nil)); err != nil || got != w {
		t.Fatalf("warehouse: %+v vs %+v (%v)", got, w, err)
	}
	d := District{DID: 7, WID: 3, Name: "D7", Street: "s", City: "c", State: "ST", Zip: "000001111", Tax: 10, YTD: 20, NextOID: 3001}
	if got, err := DecodeDistrict(d.Encode(nil)); err != nil || got != d {
		t.Fatalf("district: %+v (%v)", got, err)
	}
	c := Customer{CID: 1, DID: 2, WID: 3, First: "Jane", Middle: "OE", Last: "BARBARBAR", Street: "x", City: "y",
		State: "ZZ", Zip: "999991111", Phone: "0123456789012345", Since: 5, Credit: "GC", CreditLimit: 50000,
		Discount: 100, Balance: -10, YTDPayment: 10, PaymentCnt: 1, DeliveryCnt: 0, Data: "some data"}
	if got, err := DecodeCustomer(c.Encode(nil)); err != nil || got != c {
		t.Fatalf("customer: %+v (%v)", got, err)
	}
	h := History{CID: 1, CDID: 2, CWID: 3, DID: 4, WID: 5, Date: 6, Amount: 7, Data: "hist"}
	if got, err := DecodeHistory(h.Encode(nil)); err != nil || got != h {
		t.Fatalf("history: %+v (%v)", got, err)
	}
	n := NewOrder{OID: 9, DID: 8, WID: 7}
	if got, err := DecodeNewOrder(n.Encode(nil)); err != nil || got != n {
		t.Fatalf("neworder: %+v (%v)", got, err)
	}
	o := Order{OID: 1, DID: 2, WID: 3, CID: 4, EntryDate: 5, CarrierID: 6, OLCount: 7, AllLocal: 1}
	if got, err := DecodeOrder(o.Encode(nil)); err != nil || got != o {
		t.Fatalf("order: %+v (%v)", got, err)
	}
	ol := OrderLine{OID: 1, DID: 2, WID: 3, Number: 4, ItemID: 5, SupplyWID: 6, DeliveryDate: 7, Quantity: 8, Amount: 9, DistInfo: "dist"}
	if got, err := DecodeOrderLine(ol.Encode(nil)); err != nil || got != ol {
		t.Fatalf("orderline: %+v (%v)", got, err)
	}
	it := Item{IID: 1, ImID: 2, Name: "widget", Price: 399, Data: "ORIGINAL stuff"}
	if got, err := DecodeItem(it.Encode(nil)); err != nil || got != it {
		t.Fatalf("item: %+v (%v)", got, err)
	}
	s := Stock{IID: 1, WID: 2, Quantity: 50, YTD: 5, OrderCnt: 3, RemoteCnt: 1, Data: "stock data"}
	for i := range s.Dists {
		s.Dists[i] = "distinfo"
	}
	if got, err := DecodeStock(s.Encode(nil)); err != nil || got != s {
		t.Fatalf("stock: %+v (%v)", got, err)
	}
	// Short buffers are rejected.
	if _, err := DecodeWarehouse(nil); err == nil {
		t.Fatal("short warehouse accepted")
	}
	if _, err := DecodeStock(make([]byte, 10)); err == nil {
		t.Fatal("short stock accepted")
	}
}

// TestRowCodecsStringWidths round-trips all nine row types with every string
// field empty, filled to its full width, starting with a NUL, and ending in
// NULs, which a fixed-width field cannot tell from its padding: they decode
// trimmed.
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
		enc := func(w int) string { s, _ := fill(w); return s }
		dec := func(w int) string { _, s := fill(w); return s }
		check := func(table string, got, want any, err error) {
			t.Helper()
			if err != nil || got != want {
				t.Errorf("%s, %s strings: decoded %+v (%v), want %+v", table, name, got, err, want)
			}
		}
		warehouse := func(s func(int) string) Warehouse {
			return Warehouse{WID: 1, Name: s(10), Street: s(20), City: s(20), State: s(2), Zip: s(9), Tax: -1, YTD: math.MaxInt64}
		}
		w, err := DecodeWarehouse(warehouse(enc).Encode(nil))
		check("WAREHOUSE", w, warehouse(dec), err)
		district := func(s func(int) string) District {
			return District{DID: 10, WID: 1, Name: s(10), Street: s(20), City: s(20), State: s(2), Zip: s(9), Tax: 7, YTD: -7, NextOID: math.MaxUint32}
		}
		d, err := DecodeDistrict(district(enc).Encode(nil))
		check("DISTRICT", d, district(dec), err)
		customer := func(s func(int) string) Customer {
			return Customer{CID: 3000, DID: 10, WID: 1, First: s(16), Middle: s(2), Last: s(16), Street: s(20), City: s(20),
				State: s(2), Zip: s(9), Phone: s(16), Since: 1, Credit: s(2), CreditLimit: 2, Discount: 3, Balance: -4,
				YTDPayment: 5, PaymentCnt: 6, DeliveryCnt: 7, Data: s(250)}
		}
		c, err := DecodeCustomer(customer(enc).Encode(nil))
		check("CUSTOMER", c, customer(dec), err)
		history := func(s func(int) string) History {
			return History{CID: 1, CDID: 2, CWID: 3, DID: 4, WID: 5, Date: 6, Amount: -7, Data: s(24)}
		}
		h, err := DecodeHistory(history(enc).Encode(nil))
		check("HISTORY", h, history(dec), err)
		no := NewOrder{OID: math.MaxUint32, DID: 2, WID: 3}
		n, err := DecodeNewOrder(no.Encode(nil))
		check("NEW_ORDER", n, no, err)
		order := Order{OID: 1, DID: 2, WID: 3, CID: 4, EntryDate: math.MinInt64, CarrierID: 6, OLCount: 15, AllLocal: 1}
		o, err := DecodeOrder(order.Encode(nil))
		check("ORDER", o, order, err)
		orderLine := func(s func(int) string) OrderLine {
			return OrderLine{OID: 1, DID: 2, WID: 3, Number: 4, ItemID: 5, SupplyWID: 6, DeliveryDate: 7, Quantity: 8, Amount: 9, DistInfo: s(24)}
		}
		ol, err := DecodeOrderLine(orderLine(enc).Encode(nil))
		check("ORDERLINE", ol, orderLine(dec), err)
		item := func(s func(int) string) Item {
			return Item{IID: 100000, ImID: 2, Name: s(24), Price: 10000, Data: s(50)}
		}
		it, err := DecodeItem(item(enc).Encode(nil))
		check("ITEM", it, item(dec), err)
		stock := func(s func(int) string) Stock {
			st := Stock{IID: 1, WID: 2, Quantity: 91, YTD: 4, OrderCnt: 5, RemoteCnt: 6, Data: s(50)}
			for i := range st.Dists {
				st.Dists[i] = s(24)
			}
			return st
		}
		st, err := DecodeStock(stock(enc).Encode(nil))
		check("STOCK", st, stock(dec), err)
	}
}

// TestDecodeAllocatesOnce gates the row codec: a decode converts the row to
// one string and cuts every string field out of it.
func TestDecodeAllocatesOnce(t *testing.T) {
	full := func(w int) string { return strings.Repeat("x", w) }
	st := Stock{IID: 1, WID: 1, Quantity: 50, Data: full(50)}
	for i := range st.Dists {
		st.Dists[i] = full(24)
	}
	stock := st.Encode(nil)
	customer := Customer{First: full(16), Middle: "OE", Last: "BARBARBAR", Street: full(20), City: full(20),
		State: "ST", Zip: full(9), Phone: full(16), Credit: "GC", Data: full(250)}.Encode(nil)
	if n := testing.AllocsPerRun(100, func() {
		if _, err := DecodeStock(stock); err != nil {
			t.Fatal(err)
		}
	}); n > 1 {
		t.Errorf("DecodeStock allocates %v times, want at most 1", n)
	}
	if n := testing.AllocsPerRun(100, func() {
		if _, err := DecodeCustomer(customer); err != nil {
			t.Fatal(err)
		}
	}); n > 1 {
		t.Errorf("DecodeCustomer allocates %v times, want at most 1", n)
	}
}

// rowEncoders returns the nine row types, every string field set by s from its
// width, as their Encode methods.
func rowEncoders(s func(width int) string) []struct {
	table  string
	encode func(dst []byte) []byte
} {
	st := Stock{IID: 1, WID: 2, Quantity: 91, YTD: -4, OrderCnt: 5, RemoteCnt: 6, Data: s(50)}
	for i := range st.Dists {
		st.Dists[i] = s(24)
	}
	return []struct {
		table  string
		encode func(dst []byte) []byte
	}{
		{"WAREHOUSE", Warehouse{WID: 1, Name: s(10), Street: s(20), City: s(20), State: s(2), Zip: s(9), Tax: -1, YTD: 1 << 40}.Encode},
		{"DISTRICT", District{DID: 10, WID: 1, Name: s(10), Street: s(20), City: s(20), State: s(2), Zip: s(9), Tax: 7, YTD: -7, NextOID: 1 << 31}.Encode},
		{"CUSTOMER", Customer{CID: 3000, DID: 10, WID: 1, First: s(16), Middle: s(2), Last: s(16), Street: s(20), City: s(20),
			State: s(2), Zip: s(9), Phone: s(16), Since: 1, Credit: s(2), CreditLimit: 2, Discount: 3, Balance: -4,
			YTDPayment: 5, PaymentCnt: 6, DeliveryCnt: 7, Data: s(250)}.Encode},
		{"HISTORY", History{CID: 1, CDID: 2, CWID: 3, DID: 4, WID: 5, Date: 6, Amount: -7, Data: s(24)}.Encode},
		{"NEW_ORDER", NewOrder{OID: 9, DID: 2, WID: 3}.Encode},
		{"ORDER", Order{OID: 1, DID: 2, WID: 3, CID: 4, EntryDate: -5, CarrierID: 6, OLCount: 15, AllLocal: 1}.Encode},
		{"ORDERLINE", OrderLine{OID: 1, DID: 2, WID: 3, Number: 4, ItemID: 5, SupplyWID: 6, DeliveryDate: 7, Quantity: 8, Amount: 9, DistInfo: s(24)}.Encode},
		{"ITEM", Item{IID: 100000, ImID: 2, Name: s(24), Price: 10000, Data: s(50)}.Encode},
		{"STOCK", st.Encode},
	}
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
		for _, row := range rowEncoders(fill.s) {
			want := row.encode(nil)
			h.Write(want)
			if got := row.encode(dirty()); !bytes.Equal(got, want) {
				t.Errorf("%s, %s strings: Encode(dirty) = %x, want %x", row.table, fill.name, got, want)
			}
			if got := row.encode(append(dirty(), prefix...)); !bytes.Equal(got, append(bytes.Clone(prefix), want...)) {
				t.Errorf("%s, %s strings: Encode after %q = %x", row.table, fill.name, prefix, got)
			}
		}
		if got := hex.EncodeToString(h.Sum(nil)); got != fill.golden {
			t.Errorf("%s strings: the nine rows hash to %s, want %s", fill.name, got, fill.golden)
		}
	}
	// Over-width strings are cut to their field.
	if ol, err := DecodeOrderLine(OrderLine{DistInfo: strings.Repeat("x", 30)}.Encode(nil)); err != nil || ol.DistInfo != strings.Repeat("x", 24) {
		t.Errorf("over-width DistInfo decodes as %q (%v)", ol.DistInfo, err)
	}
}

// TestEncodeIntoCapacityAllocatesNothing: a row encoded into a buffer with
// room for it, as the terminal's, allocates nothing.
func TestEncodeIntoCapacityAllocatesNothing(t *testing.T) {
	buf := make([]byte, 0, maxRowSize)
	for _, row := range rowEncoders(func(w int) string { return strings.Repeat("x", w) }) {
		if n := testing.AllocsPerRun(100, func() { buf = row.encode(buf[:0]) }); n != 0 {
			t.Errorf("%s: Encode into capacity allocates %v times", row.table, n)
		}
	}
}

// TestLockNames: the appended lock names are the bytes fmt's forms were (the
// lock table keys its map by the name), and the keys built into a non-empty
// dst extend it.
func TestLockNames(t *testing.T) {
	var buf [maxKeySize]byte
	for _, v := range []int{0, 9, 10, 255, 256, 5000, math.MaxUint32} {
		for _, c := range []struct{ got, want string }{
			{warehouseLockKey(buf[:0], v), fmt.Sprintf("W:%d", v)},
			{districtLockKey(buf[:0], v, 10), fmt.Sprintf("D:%d:%d", v, 10)},
			{districtLockKey(buf[:0], 1, v), fmt.Sprintf("D:%d:%d", 1, v)},
			{customerLockKey(buf[:0], v, v, v), fmt.Sprintf("C:%d:%d:%d", v, v, v)},
			{stockLockKey(buf[:0], 1, v), fmt.Sprintf("S:%d:%d", 1, v)},
			{stockLockKey(buf[:0], v, 100000), fmt.Sprintf("S:%d:%d", v, 100000)},
			{deliveryLockKey(buf[:0], v, v), fmt.Sprintf("DLV:%d:%d", v, v)},
		} {
			if c.got != c.want {
				t.Errorf("lock name %q, want %q", c.got, c.want)
			}
		}
	}
	want := noftl.NewKeyBuilder().AddUint32(1).AddUint32(2).AddString("BARBARBAR").AddUint32(3).Bytes()
	if got := customerNameKey([]byte("dst"), 1, 2, "BARBARBAR", 3); !bytes.Equal(got, append([]byte("dst"), want...)) {
		t.Errorf("customerNameKey = %x, want dst then %x", got, want)
	}
	if got := orderLineKey(buf[:0], 1, 2, 3, 4); !bytes.Equal(got, noftl.Key(1, 2, 3, 4)) {
		t.Errorf("orderLineKey = %x", got)
	}
}

func TestStockCodecProperty(t *testing.T) {
	f := func(iid, wid, qty uint32, ytd int64, oc, rc uint32) bool {
		s := Stock{IID: iid, WID: wid, Quantity: qty, YTD: ytd, OrderCnt: oc, RemoteCnt: rc, Data: "d"}
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
	if len(r.zip()) != 9 {
		t.Fatalf("zip length %d", len(r.zip()))
	}
	if s := r.aString(5, 10); len(s) < 5 || len(s) > 10 {
		t.Fatalf("aString length %d", len(s))
	}
	if s := r.nString(8); len(s) != 8 {
		t.Fatalf("nString length %d", len(s))
	}
	if n := r.lastNameRun(300); n == "" {
		t.Fatal("empty run last name")
	}
	if n := r.lastNameLoad(300); n == "" {
		t.Fatal("empty load last name")
	}
	found := false
	for i := 0; i < 200; i++ {
		if len(r.dataString()) >= 26 && len(r.dataString()) <= 50 {
			found = true
		}
	}
	if !found {
		t.Fatal("dataString lengths out of range")
	}
	// The transaction mix respects the standard shares, approximately.
	term := &terminal{r: newRNG(7), cfg: DefaultConfig()}
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
	term := &terminal{db: db, sch: sch, cfg: cfg, r: newRNG(3), wID: 1, dID: 1}

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
			if res.HostWriteIOs == 0 {
				t.Fatal("no host writes measured (WAL flushes should write)")
			}
			if placement == PlacementRegions && len(res.Regions) != 6 {
				t.Fatalf("expected 6 regions in results, got %d", len(res.Regions))
			}
			// Every device command is charged to exactly one object: the
			// objects sum to the regions, and the log is one of them.
			st := db.Stats()
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
	run := func() Results {
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
		return res
	}
	a, b := run(), run()
	type key struct {
		committed, reads, writes, copybacks, erases int64
		sim                                         time.Duration
	}
	ka := key{a.Committed, a.HostReadIOs, a.HostWriteIOs, a.GCCopybacks, a.GCErases, a.SimulatedTime}
	kb := key{b.Committed, b.HostReadIOs, b.HostWriteIOs, b.GCCopybacks, b.GCErases, b.SimulatedTime}
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
