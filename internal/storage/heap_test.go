package storage

import (
	"bytes"
	"errors"
	"fmt"
	"testing"

	"noftl/internal/buffer"
	"noftl/internal/core"
	"noftl/internal/flash"
	"noftl/internal/sim"
)

// testEnv builds the real stack (flash device -> NoFTL manager -> buffer
// pool) so heap and tablespace tests exercise the production write path.
func testEnv(t *testing.T, frames int) (*core.Manager, *buffer.Pool) {
	t.Helper()
	cfg := flash.DefaultConfig()
	cfg.Geometry = flash.Geometry{
		Channels: 2, DiesPerChannel: 2, PlanesPerDie: 1,
		BlocksPerDie: 64, PagesPerBlock: 16, PageSize: 512,
	}
	dev, err := flash.NewDevice(cfg)
	if err != nil {
		t.Fatal(err)
	}
	mgr := core.NewManager(dev, core.DefaultOptions())
	pool := buffer.New(mgr, frames, cfg.Geometry.PageSize, nil)
	return mgr, pool
}

func TestTablespaceAllocation(t *testing.T) {
	mgr, _ := testEnv(t, 8)
	ts := NewTablespace("tsA", core.DefaultRegionID, 4, mgr)
	if ts.Name() != "tsA" || ts.Region() != core.DefaultRegionID || ts.ExtentPages() != 4 {
		t.Fatalf("tablespace fields wrong: %+v", ts)
	}
	if def := NewTablespace("tsC", 0, 0, mgr); def.ExtentPages() != DefaultExtentPages {
		t.Fatalf("default extent = %d", def.ExtentPages())
	}
	// A tablespace of one-page extents takes an LPN after each of tsA's
	// pages, so each of tsA's extents is a run of consecutive LPNs of its own.
	ts2 := NewTablespace("tsB", 0, 1, mgr)
	seen := map[core.LPN]bool{}
	var runs []int
	prev := core.LPN(0)
	for i := 0; i < 10; i++ {
		lpn := ts.AllocatePage()
		if seen[lpn] {
			t.Fatalf("duplicate LPN %d", lpn)
		}
		seen[lpn] = true
		if i == 0 || lpn != prev+1 {
			runs = append(runs, 0)
		}
		runs[len(runs)-1]++
		prev = lpn
		other := ts2.AllocatePage()
		if seen[other] {
			t.Fatalf("LPN %d handed to both tablespaces", other)
		}
		seen[other] = true
	}
	if fmt.Sprint(runs) != "[4 4 2]" { // 10 pages over 4-page extents
		t.Fatalf("extents of %v pages, want [4 4 2]", runs)
	}
	h := ts.Hint(7, flash.FlagHeap)
	if h.ObjectID != 7 || h.Region != core.DefaultRegionID || h.Flags != flash.FlagHeap {
		t.Fatalf("hint = %+v", h)
	}
}

func TestHeapInsertGetUpdateDelete(t *testing.T) {
	mgr, pool := testEnv(t, 16)
	ts := NewTablespace("ts", core.DefaultRegionID, 8, mgr)
	h := NewHeapFile("T", 3, ts, pool)
	if h.Name() != "T" || h.ObjectID() != 3 {
		t.Fatal("heap identity wrong")
	}

	now := sim.Time(0)
	var rids []RID
	for i := 0; i < 50; i++ {
		rec := []byte(fmt.Sprintf("record-%03d-%s", i, bytes.Repeat([]byte{'x'}, 20)))
		rid, done, err := h.Insert(now, rec)
		if err != nil {
			t.Fatalf("insert %d: %v", i, err)
		}
		now = done
		rids = append(rids, rid)
	}
	if h.RecordCount() != 50 {
		t.Fatalf("record count = %d", h.RecordCount())
	}
	if h.PageCount() < 2 {
		t.Fatalf("expected multiple pages, got %d", h.PageCount())
	}
	// Point reads.
	for i, rid := range rids {
		rec, done, err := h.Get(now, rid)
		if err != nil {
			t.Fatalf("get %d: %v", i, err)
		}
		now = done
		if !bytes.HasPrefix(rec, []byte(fmt.Sprintf("record-%03d", i))) {
			t.Fatalf("wrong record %d: %q", i, rec)
		}
	}
	// Update in place.
	upd := []byte(fmt.Sprintf("record-%03d-%s", 7, bytes.Repeat([]byte{'y'}, 20)))
	if _, err := h.Update(now, rids[7], upd); err != nil {
		t.Fatal(err)
	}
	rec, _, err := h.Get(now, rids[7])
	if err != nil || !bytes.Equal(rec, upd) {
		t.Fatalf("update lost: %v", err)
	}
	// Delete.
	if _, err := h.Delete(now, rids[9]); err != nil {
		t.Fatal(err)
	}
	if _, _, err := h.Get(now, rids[9]); !errors.Is(err, ErrNotFound) {
		t.Fatalf("want ErrNotFound, got %v", err)
	}
	if h.RecordCount() != 49 {
		t.Fatalf("record count after delete = %d", h.RecordCount())
	}
	// Scan sees all live records exactly once.
	seen := map[string]bool{}
	if _, err := h.Scan(now, new(Slab), func(rid RID, rec []byte) bool {
		seen[string(rec[:10])] = true
		return true
	}); err != nil {
		t.Fatal(err)
	}
	if len(seen) != 49 {
		t.Fatalf("scan saw %d records", len(seen))
	}
	// Early-stop scan.
	count := 0
	if _, err := h.Scan(now, new(Slab), func(RID, []byte) bool {
		count++
		return false
	}); err != nil {
		t.Fatal(err)
	}
	if count != 1 {
		t.Fatalf("early stop visited %d", count)
	}
}

func TestHeapSurvivesEvictionAndFlush(t *testing.T) {
	// A tiny pool forces evictions so records must round-trip through flash.
	mgr, pool := testEnv(t, 4)
	ts := NewTablespace("ts", core.DefaultRegionID, 8, mgr)
	h := NewHeapFile("T", 3, ts, pool)
	now := sim.Time(0)
	var rids []RID
	for i := 0; i < 200; i++ {
		rec := []byte(fmt.Sprintf("v-%04d-%s", i, bytes.Repeat([]byte{'z'}, 30)))
		rid, done, err := h.Insert(now, rec)
		if err != nil {
			t.Fatalf("insert %d: %v", i, err)
		}
		now = done
		rids = append(rids, rid)
	}
	if _, err := pool.FlushAll(now); err != nil {
		t.Fatal(err)
	}
	st := mgr.Stats()
	if st.HostWrites == 0 {
		t.Fatal("no pages reached flash")
	}
	for i, rid := range rids {
		rec, done, err := h.Get(now, rid)
		if err != nil {
			t.Fatalf("get %d after eviction: %v", i, err)
		}
		now = done
		if !bytes.HasPrefix(rec, []byte(fmt.Sprintf("v-%04d", i))) {
			t.Fatalf("record %d corrupted: %q", i, rec)
		}
	}
	if now <= 0 {
		t.Fatal("virtual time did not advance")
	}
}

func TestHeapPagesPlacedInHintedRegion(t *testing.T) {
	mgr, pool := testEnv(t, 4)
	hot, err := mgr.CreateRegion(core.RegionSpec{Name: "rgHot", MaxChips: 2})
	if err != nil {
		t.Fatal(err)
	}
	ts := NewTablespace("tsHot", hot.ID(), 8, mgr)
	h := NewHeapFile("HOTTBL", 9, ts, pool)
	now := sim.Time(0)
	for i := 0; i < 100; i++ {
		_, done, err := h.Insert(now, bytes.Repeat([]byte{byte(i)}, 40))
		if err != nil {
			t.Fatal(err)
		}
		now = done
	}
	if _, err := pool.FlushAll(now); err != nil {
		t.Fatal(err)
	}
	st := mgr.Stats()
	hotStats, _ := st.RegionByName("rgHot")
	defStats, _ := st.RegionByName(core.DefaultRegionName)
	if hotStats.HostWrites == 0 {
		t.Fatal("no writes reached the hinted region")
	}
	if defStats.HostWrites != 0 {
		t.Fatalf("writes leaked into the default region: %d", defStats.HostWrites)
	}
}

// TestInsertBatchAdoptsSealedPagesWhenTheTailFails: when the pool cannot pin
// a frame for a batch's partial tail page, the full pages already written are
// adopted and their RIDs returned with the error; the tail's record is not.
func TestInsertBatchAdoptsSealedPagesWhenTheTailFails(t *testing.T) {
	mgr, pool := testEnv(t, 2)
	ts := NewTablespace("ts", core.DefaultRegionID, 8, mgr)
	h := NewHeapFile("T", 3, ts, pool)
	var pins []*buffer.Handle
	for range 2 {
		hd, _, err := pool.NewPage(0, ts.AllocatePage(), ts.Hint(3, 0))
		if err != nil {
			t.Fatal(err)
		}
		pins = append(pins, hd)
	}
	recs := make([][]byte, 5) // two 200-byte records fill a 512-byte page
	for i := range recs {
		recs[i] = bytes.Repeat([]byte{byte('a' + i)}, 200)
	}
	rids, now, err := h.InsertBatch(0, recs, nil)
	if !errors.Is(err, buffer.ErrPoolFull) || len(rids) != 4 {
		t.Fatalf("InsertBatch with every frame pinned = %d rids, %v; want 4, ErrPoolFull", len(rids), err)
	}
	if h.PageCount() != 2 || h.RecordCount() != 4 {
		t.Fatalf("heap holds %d pages and %d records, want 2 and 4", h.PageCount(), h.RecordCount())
	}
	for _, hd := range pins {
		hd.Release()
	}
	for i, rid := range rids {
		rec, _, err := h.Get(now, rid)
		if err != nil || !bytes.Equal(rec, recs[i]) {
			t.Fatalf("record %d reads %.8q… (%v), want %.8q…", i, rec, err, recs[i])
		}
	}
}
