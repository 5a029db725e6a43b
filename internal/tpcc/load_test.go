package tpcc

import (
	"bytes"
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"runtime"
	"testing"
	"time"

	"noftl"
	"noftl/internal/flash"
)

// loadSmall sets up and loads the small-scale database of the Figure 3
// experiment (2 warehouses, 2 000 items, 16 dies) and returns the heap
// allocations and wall time Load took and the rows it loaded.
func loadSmall(tb testing.TB) (mallocs uint64, elapsed time.Duration, rows int64) {
	tb.Helper()
	dbCfg := noftl.DefaultConfig()
	dbCfg.Flash.Geometry = flash.Geometry{
		Channels: 4, DiesPerChannel: 4, PlanesPerDie: 1,
		BlocksPerDie: 20, PagesPerBlock: 32, PageSize: 4096,
	}
	dbCfg.BufferPoolPages = 768
	dbCfg.DisableSnapshotCheckpoints = true
	dbCfg.Space.DisableBackgroundGC = true
	db, err := noftl.OpenConfig(dbCfg)
	if err != nil {
		tb.Fatal(err)
	}
	defer db.Close()
	cfg := Config{Warehouses: 2, CustomersPerDistrict: 300, ItemCount: 2000, InitialOrdersPerDistrict: 300, Seed: 42}
	sch, err := Setup(db, cfg)
	if err != nil {
		tb.Fatal(err)
	}
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	before, start := ms.Mallocs, time.Now()
	if err := Load(db, sch, cfg); err != nil {
		tb.Fatal(err)
	}
	elapsed = time.Since(start)
	runtime.ReadMemStats(&ms)
	for _, tbl := range []*noftl.Table{sch.Warehouse, sch.District, sch.Customer, sch.History,
		sch.NewOrder, sch.Order, sch.OrderLine, sch.Item, sch.Stock} {
		rows += tbl.RowCount()
	}
	return ms.Mallocs - before, elapsed, rows
}

// BenchmarkTPCCLoad loads the small-scale database once per iteration and
// reports the heap allocations per loaded row.
func BenchmarkTPCCLoad(b *testing.B) {
	var mallocs, rows int64
	for range b.N {
		m, _, r := loadSmall(b)
		mallocs, rows = mallocs+int64(m), rows+r
	}
	b.ReportMetric(float64(mallocs)/float64(rows), "allocs/row")
}

// TestLoadAllocations caps the host cost of a loaded row: the small-scale
// load made 3.6 heap allocations per row while every text field was built as
// a string first, and 0.15 once they were written in place.
func TestLoadAllocations(t *testing.T) {
	mallocs, elapsed, rows := loadSmall(t)
	perRow := float64(mallocs) / float64(rows)
	if perRow > 1 {
		t.Fatalf("%.2f heap allocations per loaded row (%d rows), ceiling 1", perRow, rows)
	}
	t.Logf("%.2f heap allocations per loaded row (%d rows, %v)", perRow, rows, elapsed)
}

// loadDigest is the SHA-256 TestLoadGolden takes of the tiny database.  It was
// recorded with the loader that built every text field as a Go string first,
// so the in-place generators write the same bytes.
const loadDigest = "3036c9c21cbbf45e6453554d171fa6ebc0a9af32ec5853b8bed71c422b87de5b"

// TestLoadGolden loads the tiny database and hashes every table's rows, in
// page order with their RIDs, and every index's (key, RID) entries, in key
// order.  Any change to what the loader draws, to where a row lands or to what
// an index holds moves the digest.
func TestLoadGolden(t *testing.T) {
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
	h := sha256.New()
	field := func(b []byte) {
		h.Write(binary.LittleEndian.AppendUint32(nil, uint32(len(b))))
		h.Write(b)
	}
	err = db.View(func(tx *noftl.Tx) error {
		for _, tbl := range []*noftl.Table{sch.Warehouse, sch.District, sch.Customer, sch.History,
			sch.NewOrder, sch.Order, sch.OrderLine, sch.Item, sch.Stock} {
			field([]byte(tbl.Name()))
			for rid, row := range tbl.Rows(tx) {
				field(rid.Encode())
				field(row)
			}
		}
		for _, idx := range []*noftl.Index{sch.WIdx, sch.DIdx, sch.CIdx, sch.CNameIdx, sch.IIdx,
			sch.SIdx, sch.NOIdx, sch.OIdx, sch.OCustIdx, sch.OLIdx} {
			field([]byte(idx.Name()))
			for key, rid := range idx.Prefix(tx, nil) {
				field(key)
				field(rid.Encode())
			}
		}
		return tx.Err()
	})
	if err != nil {
		t.Fatal(err)
	}
	if got := hex.EncodeToString(h.Sum(nil)); got != loadDigest {
		t.Fatalf("tiny load digest %s, want %s", got, loadDigest)
	}
}

// The string forms the loader used before its generators wrote into the row,
// kept as the reference TestTextGeneratorsMatchStringForms checks them against.

func (r *rng) aString(lo, hi int) string {
	const alphabet = "ABCDEFGHIJKLMNOPQRSTUVWXYZabcdefghijklmnopqrstuvwxyz0123456789"
	n := r.uniform(lo, hi)
	b := make([]byte, n)
	for i := range b {
		b[i] = alphabet[r.Intn(len(alphabet))]
	}
	return string(b)
}

func (r *rng) nString(n int) string {
	b := make([]byte, n)
	for i := range b {
		b[i] = byte('0' + r.Intn(10))
	}
	return string(b)
}

func (r *rng) zip() string { return r.nString(4) + "11111" }

func (r *rng) dataString() string {
	s := r.aString(26, 50)
	if r.Intn(10) == 0 {
		pos := r.Intn(len(s) - 8)
		s = s[:pos] + "ORIGINAL" + s[pos+8:]
	}
	return s
}

// TestTextGeneratorsMatchStringForms checks that every in-place generator
// writes the bytes of setText(field, <its string form>) into a field holding
// garbage, for every field width from 0 to above the longest draw, and leaves
// the random stream where the string form leaves it.
func TestTextGeneratorsMatchStringForms(t *testing.T) {
	original := 0 // full-width data fields holding "ORIGINAL"
	for _, g := range []struct {
		name     string
		longest  int
		inPlace  func(r *rng, field []byte)
		asString func(r *rng) string
	}{
		{"aText(2,2)", 2, func(r *rng, f []byte) { r.aText(f, 2, 2) }, func(r *rng) string { return r.aString(2, 2) }},
		{"aText(6,10)", 10, func(r *rng, f []byte) { r.aText(f, 6, 10) }, func(r *rng) string { return r.aString(6, 10) }},
		{"aText(100,250)", 250, func(r *rng, f []byte) { r.aText(f, 100, 250) }, func(r *rng) string { return r.aString(100, 250) }},
		{"nText(16)", 16, func(r *rng, f []byte) { r.nText(f, 16) }, func(r *rng) string { return r.nString(16) }},
		{"zipText", 9, (*rng).zipText, (*rng).zip},
		{"dataText", 50, (*rng).dataText, (*rng).dataString},
	} {
		for width := 0; width <= g.longest+2; width++ {
			for seed := uint64(1); seed <= 40; seed++ {
				want, got := make([]byte, width), bytes.Repeat([]byte{0xAA}, width)
				ref, r := newRNG(seed), newRNG(seed)
				setText(want, g.asString(ref))
				if width == 50 && bytes.Contains(want, []byte("ORIGINAL")) {
					original++
				}
				g.inPlace(r, got)
				if !bytes.Equal(got, want) {
					t.Fatalf("%s, width %d, seed %d: wrote %q, want %q", g.name, width, seed, got, want)
				}
				if a, b := r.Uint64(), ref.Uint64(); a != b {
					t.Fatalf("%s, width %d, seed %d: the random streams part", g.name, width, seed)
				}
			}
		}
	}
	if original == 0 {
		t.Fatal("no seed drew a data field holding ORIGINAL")
	}
}
