package core

import (
	"bytes"
	"errors"
	"strings"
	"testing"

	"noftl/internal/flash"
	"noftl/internal/sim"
)

// writeAll writes pages [first, first+n) filled with fill(i) and returns the
// advanced time.
func writeAll(t *testing.T, m *Manager, dev *flash.Device, now sim.Time, first LPN, n int, fill func(i int) byte) sim.Time {
	t.Helper()
	for i := 0; i < n; i++ {
		done, err := m.WritePage(now, first+LPN(i), fillPage(dev, fill(i)), Hint{})
		if err != nil {
			t.Fatalf("write lpn %d: %v", first+LPN(i), err)
		}
		now = done
	}
	return now
}

// TestRetentionKeepsTheSnapshotImage: after a Snapshot the first overwrite or
// trim of a page retains the superseded version — physically valid, named by
// the retained map, counted per region — and later overwrites of the same page
// retain nothing more.  Versions serve the epoch in which they were superseded:
// the Snapshot of a checkpoint that never completes releases nothing, and a
// completed one releases its predecessors' versions but not its own.
func TestRetentionKeepsTheSnapshotImage(t *testing.T) {
	dev := smallDevice(t, 4, 16, 8)
	m := NewManager(dev, DefaultOptions())
	const pages = 40
	first := m.AllocateLPNs(pages)
	now := writeAll(t, m, dev, 0, first, pages, func(i int) byte { return byte(i) })
	// Before any Snapshot nothing is retained.
	now = writeAll(t, m, dev, now, first, pages, func(i int) byte { return byte(i) })
	if got := m.Stats().RetainedPages; got != 0 {
		t.Fatalf("%d pages retained before the first Snapshot", got)
	}

	snap := m.Snapshot()
	before := make(map[LPN]flash.Addr)
	for i := 0; i < 10; i++ {
		before[first+LPN(i)], _ = m.Locate(first + LPN(i))
	}
	now = writeAll(t, m, dev, now, first, 10, func(i int) byte { return 0xA0 })
	now = writeAll(t, m, dev, now, first, 10, func(i int) byte { return 0xB0 }) // second overwrite
	before[first+10], _ = m.Locate(first + 10)
	if err := m.TrimPage(first + 10); err != nil {
		t.Fatal(err)
	}
	st := m.Stats()
	if st.RetainedPages != 11 || st.Regions[0].RetainedPages != 11 || st.ValidPages != pages-1 {
		t.Fatalf("retained %d (region %d), valid %d; want 11, 11 and %d", st.RetainedPages, st.Regions[0].RetainedPages, st.ValidPages, pages-1)
	}
	for lpn, addr := range before {
		if _, ok := m.retained[addr]; !ok {
			t.Fatalf("version of lpn %d at %v, current at the snapshot, is not retained", lpn, addr)
		}
		_, meta, _, err := dev.ReadPage(now, addr, nil)
		if err != nil || LPN(meta.LPN) != lpn || meta.Seq > snap {
			t.Fatalf("retained page %v holds lpn %d seq %d (err %v), want lpn %d at or below %d", addr, meta.LPN, meta.Seq, err, lpn, snap)
		}
	}
	if err := m.VerifyIntegrity(); err != nil {
		t.Fatal(err)
	}

	// A second Snapshot (the first checkpoint failed before it was durable):
	// pages superseded from now on serve it, the older ones stay.
	m.Snapshot()
	now = writeAll(t, m, dev, now, first+20, 5, func(i int) byte { return 0xC0 })
	if got := m.Stats().RetainedPages; got != 16 {
		t.Fatalf("retained %d pages across two epochs, want 16", got)
	}
	if released := m.ReleaseRetained(); released != 11 {
		t.Fatalf("released %d versions, want the 11 of the older epoch", released)
	}
	if got := m.Stats().RetainedPages; got != 5 {
		t.Fatalf("retained %d pages after the release, want the 5 of the current epoch", got)
	}
	m.Snapshot()
	if released := m.ReleaseRetained(); released != 5 || len(m.retained) != 0 {
		t.Fatalf("released %d versions, %d left; want 5 and 0", released, len(m.retained))
	}
	if err := m.VerifyIntegrity(); err != nil {
		t.Fatal(err)
	}
	_ = now
}

// TestVerifyIntegrityNamesEveryValidPage: a physically valid page is either
// some logical page's current version or a retained version under exactly its
// address; anything else is an inconsistency VerifyIntegrity reports.
func TestVerifyIntegrityNamesEveryValidPage(t *testing.T) {
	dev := smallDevice(t, 4, 16, 8)
	m := NewManager(dev, DefaultOptions())
	first := m.AllocateLPNs(8)
	now := writeAll(t, m, dev, 0, first, 8, func(i int) byte { return byte(i) })
	m.Snapshot()
	old, _ := m.Locate(first)
	writeAll(t, m, dev, now, first, 1, func(int) byte { return 0xEE })
	if err := m.VerifyIntegrity(); err != nil {
		t.Fatal(err)
	}
	// The retained entry under another address does not cover the page.
	epoch := m.retained[old]
	delete(m.retained, old)
	other := old
	other.Page++
	m.retained[other] = epoch
	if err := m.VerifyIntegrity(); err == nil || !strings.Contains(err.Error(), "neither the mapping nor a checkpoint") {
		t.Fatalf("valid page named by nobody: err=%v", err)
	}
	delete(m.retained, other)
	m.retained[old] = epoch
	// A retained entry for a page that is not valid is caught by the totals.
	m.retained[other] = epoch
	if err := m.VerifyIntegrity(); err == nil {
		t.Fatal("retained entry for an invalid page went unnoticed")
	}
}

// TestGCMovesRetainedVersions: garbage collection relocates a retained version
// like any valid page and the retained map follows it; the copy keeps its OOB
// sequence, so after a crash the survey finds the checkpointed contents at the
// new address.  A version that is on flash twice under one (LPN, Seq) — the
// collector had copied it and not yet erased the source — is one version.
func TestGCMovesRetainedVersions(t *testing.T) {
	dev := smallDevice(t, 1, 16, 8)
	opts := DefaultOptions()
	opts.DisableBackgroundGC = true
	m := NewManager(dev, opts)
	const pages = 24
	first := m.AllocateLPNs(pages)
	now := writeAll(t, m, dev, 0, first, pages, func(i int) byte { return byte(i) })
	snap := m.Snapshot()
	located := func() map[flash.Addr]bool {
		out := make(map[flash.Addr]bool)
		for addr := range m.retained {
			out[addr] = true
		}
		return out
	}
	// Supersede every page once, a few of them more often, then collect the
	// first block: all of its pages are retained versions.
	now = writeAll(t, m, dev, now, first, pages, func(i int) byte { return 0x80 | byte(i) })
	for round := 0; round < 3; round++ {
		now = writeAll(t, m, dev, now, first, 4, func(i int) byte { return byte(round) })
	}
	start := located()
	if !start[flash.Addr{Die: 0, Block: 0, Page: 0}] || len(start) != pages {
		t.Fatalf("retained versions at %v, want %d of them from block 0 on", start, pages)
	}
	r := m.regions[DefaultRegionID]
	now = m.relocateAndErase(now, r, m.dies[0], 0, dev.Geometry().PagesPerBlock, r.gc)
	moved := 0
	for addr := range located() {
		if !start[addr] {
			moved++
		}
	}
	if st := m.Stats(); moved != dev.Geometry().PagesPerBlock || st.GCCopybacks != int64(moved) || st.RetainedPages != pages {
		t.Fatalf("%d retained versions moved by %d copybacks, %d retained; want a block's worth and %d", moved, st.GCCopybacks, st.RetainedPages, pages)
	}
	if err := m.VerifyIntegrity(); err != nil {
		t.Fatal(err)
	}

	// Duplicate one retained version by hand: a copyback whose source block
	// was not erased before the crash.
	var src flash.Addr
	for addr := range m.retained {
		src = addr
		break
	}
	var dst flash.Addr
	found := false
	for _, bs := range dev.Survey() {
		if b := bs.Addr; !found && b.Die == 0 && bs.NextPage == 0 && b.Block != src.Block {
			dst, found = flash.Addr{Die: 0, Block: b.Block, Page: 0}, true
		}
	}
	if !found {
		t.Fatal("no erased block left for the duplicate")
	}
	if _, _, err := dev.Copyback(now, src, dst); err != nil {
		t.Fatal(err)
	}

	// Crash: a new manager over the same device adopts the image at snap.
	rec, survey := SurveyDevice(dev, opts)
	lpns := make([]LPN, pages)
	for i := range lpns {
		lpns[i] = first + LPN(i)
	}
	log, stale, err := rec.Adopt(survey, snap, lpns)
	if err != nil {
		t.Fatal(err)
	}
	if len(stale) != pages || len(log) != 0 {
		t.Fatalf("%d pages have a discarded newer version and %d are log pages, want all %d and none", len(stale), len(log), pages)
	}
	// 24 first overwrites plus 3 rounds of 4: each a distinct version, the
	// duplicate is below snap and not among them.
	if got, want := survey.NewerThan(snap), pages+3*4; got != want {
		t.Fatalf("%d versions newer than the snapshot, want %d", got, want)
	}
	if all, want := survey.NewerThan(0), pages+pages+3*4; all != want {
		t.Fatalf("%d distinct versions on flash, want %d: the duplicated one counts once", all, want)
	}
	if err := rec.VerifyIntegrity(); err != nil {
		t.Fatal(err)
	}
	for i, lpn := range lpns {
		data, _, err := rec.ReadPage(0, lpn, nil)
		if err != nil || !bytes.Equal(data, fillPage(dev, byte(i))) {
			t.Fatalf("lpn %d after adoption: err=%v, first byte %#x, want the checkpointed %#x", lpn, err, data[0], byte(i))
		}
	}
	// Writing the stale pages again retains the adopted versions: recovery may
	// crash too, and the next one must find the same image.
	if _, err := rec.Rewrite(0, stale); err != nil {
		t.Fatal(err)
	}
	if got := rec.Stats().RetainedPages; got != pages {
		t.Fatalf("retained %d pages after rewriting the adopted ones, want %d", got, pages)
	}
	again, survey2 := SurveyDevice(dev, opts)
	if _, stale, err = again.Adopt(survey2, snap, lpns); err != nil || len(stale) != pages {
		t.Fatalf("second recovery: %d stale pages, err=%v", len(stale), err)
	}
	for i, lpn := range lpns {
		if data, _, err := again.ReadPage(0, lpn, nil); err != nil || data[0] != byte(i) {
			t.Fatalf("lpn %d after the second adoption: err=%v, first byte %#x, want %#x", lpn, err, data[0], byte(i))
		}
	}
}

// TestRetainedPagesFillTheRegion: with no checkpoint to release them, retained
// versions grow until the region's dies cannot take another page.  The write
// then fails with ErrRegionFull naming them — no panic, no endless collection —
// RetentionOverBudget has long said a checkpoint is due, and one release later
// the same write goes through.
func TestRetainedPagesFillTheRegion(t *testing.T) {
	dev := smallDevice(t, 2, 16, 8)
	m := NewManager(dev, DefaultOptions())
	capacity := int(m.Stats().Regions[0].CapacityPages)
	pages := capacity * 6 / 10
	first := m.AllocateLPNs(capacity)
	now := writeAll(t, m, dev, 0, first, pages, func(i int) byte { return byte(i) })
	m.Snapshot()
	if m.RetentionOverBudget() {
		t.Fatal("over budget with nothing retained")
	}
	var err error
	i := 0
	for ; i < pages && err == nil; i++ {
		now, err = m.WritePage(now, first+LPN(i), fillPage(dev, 0xDD), Hint{})
	}
	if !errors.Is(err, ErrRegionFull) || !strings.Contains(err.Error(), "retained for the last checkpoint") {
		t.Fatalf("after %d overwrites: err=%v, want ErrRegionFull naming the retained pages", i, err)
	}
	if !m.RetentionOverBudget() {
		t.Fatal("the region is full of retained pages and not over budget")
	}
	if err := m.VerifyIntegrity(); err != nil {
		t.Fatal(err)
	}
	// A new page is refused by the accounting, before any collection runs.
	if _, err := m.WritePage(now, first+LPN(capacity-1), fillPage(dev, 1), Hint{}); !errors.Is(err, ErrRegionFull) {
		t.Fatalf("new page in a region full of retained versions: err=%v", err)
	}
	m.Snapshot()
	if m.ReleaseRetained() == 0 || m.RetentionOverBudget() {
		t.Fatal("the release left the region over budget")
	}
	if _, err := m.WritePage(now, first+LPN(i), fillPage(dev, 0xDD), Hint{}); err != nil {
		t.Fatalf("the refused write after the release: %v", err)
	}
	if err := m.VerifyIntegrity(); err != nil {
		t.Fatal(err)
	}
}
