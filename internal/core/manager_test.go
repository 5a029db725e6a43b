package core

import (
	"bytes"
	"errors"
	"slices"
	"strings"
	"testing"

	"noftl/internal/flash"
)

// smallDevice returns a device small enough that tests exercise GC quickly.
func smallDevice(t *testing.T, dies, blocksPerDie, pagesPerBlock int) *flash.Device {
	t.Helper()
	cfg := flash.DefaultConfig()
	cfg.Geometry = flash.Geometry{
		Channels:       2,
		DiesPerChannel: (dies + 1) / 2,
		PlanesPerDie:   1,
		BlocksPerDie:   blocksPerDie,
		PagesPerBlock:  pagesPerBlock,
		PageSize:       512,
	}
	if dies == 1 {
		cfg.Geometry.Channels = 1
		cfg.Geometry.DiesPerChannel = 1
	}
	dev, err := flash.NewDevice(cfg)
	if err != nil {
		t.Fatalf("NewDevice: %v", err)
	}
	return dev
}

func fillPage(dev *flash.Device, b byte) []byte {
	buf := make([]byte, dev.Geometry().PageSize)
	for i := range buf {
		buf[i] = b
	}
	return buf
}

func TestManagerStartsWithDefaultRegion(t *testing.T) {
	dev := smallDevice(t, 4, 16, 8)
	m := NewManager(dev, DefaultOptions())
	def, _ := m.RegionByID(DefaultRegionID)
	if def == nil || def.Name() != DefaultRegionName || def.ID() != DefaultRegionID {
		t.Fatalf("default region wrong: %+v", def)
	}
	st := m.Stats()
	if len(st.Regions) != 1 {
		t.Fatalf("expected 1 region, got %d", len(st.Regions))
	}
	if got := len(st.Regions[0].Dies); got != 4 {
		t.Fatalf("default region owns %d dies, want 4", got)
	}
	if st.Regions[0].CapacityPages <= 0 || st.Regions[0].CapacityPages >= int64(4*16*8) {
		t.Fatalf("capacity %d should reflect over-provisioning", st.Regions[0].CapacityPages)
	}
}

func TestCreateRegionTakesDiesFromDefault(t *testing.T) {
	dev := smallDevice(t, 8, 16, 8)
	m := NewManager(dev, DefaultOptions())
	r, err := m.CreateRegion(RegionSpec{Name: "rgHot", MaxChips: 3})
	if err != nil {
		t.Fatalf("CreateRegion: %v", err)
	}
	if r.Name() != "rgHot" || r.ID() == DefaultRegionID {
		t.Fatalf("region identity wrong: %v %v", r.Name(), r.ID())
	}
	st := m.Stats()
	hot, ok := st.RegionByName("rgHot")
	if !ok || len(hot.Dies) != 3 {
		t.Fatalf("rgHot dies = %v", hot.Dies)
	}
	def, _ := st.RegionByName(DefaultRegionName)
	if len(def.Dies) != 5 {
		t.Fatalf("default region dies = %v", def.Dies)
	}
	// Dies must not overlap.
	for _, d := range hot.Dies {
		for _, e := range def.Dies {
			if d == e {
				t.Fatalf("die %d owned by two regions", d)
			}
		}
	}
	// Duplicate name rejected.
	if _, err := m.CreateRegion(RegionSpec{Name: "rgHot", MaxChips: 1}); !errors.Is(err, ErrRegionExists) {
		t.Fatalf("want ErrRegionExists, got %v", err)
	}
	// Asking for more dies than exist is rejected.
	if _, err := m.CreateRegion(RegionSpec{Name: "rgBig", MaxChips: 100}); !errors.Is(err, ErrNoDiesAvailable) {
		t.Fatalf("want ErrNoDiesAvailable, got %v", err)
	}
	// Invalid specs rejected.
	if _, err := m.CreateRegion(RegionSpec{Name: "", MaxChips: 1}); !errors.Is(err, ErrInvalidSpec) {
		t.Fatalf("want ErrInvalidSpec, got %v", err)
	}
	if _, err := m.CreateRegion(RegionSpec{Name: "x"}); !errors.Is(err, ErrInvalidSpec) {
		t.Fatalf("want ErrInvalidSpec for missing chips, got %v", err)
	}
}

func TestCreateRegionWithExplicitDiesAndMaxChannels(t *testing.T) {
	dev := smallDevice(t, 8, 16, 8)
	m := NewManager(dev, DefaultOptions())
	r, err := m.CreateRegion(RegionSpec{Name: "rgPinned", Dies: []int{1, 3}})
	if err != nil {
		t.Fatalf("CreateRegion pinned: %v", err)
	}
	st := m.Stats()
	rs, _ := st.RegionByName("rgPinned")
	if len(rs.Dies) != 2 || rs.Dies[0] != 1 || rs.Dies[1] != 3 {
		t.Fatalf("pinned dies = %v", rs.Dies)
	}
	_ = r
	// Pinning an already-owned die fails.
	if _, err := m.CreateRegion(RegionSpec{Name: "rgClash", Dies: []int{1}}); !errors.Is(err, ErrNoDiesAvailable) {
		t.Fatalf("want ErrNoDiesAvailable, got %v", err)
	}
	// Pinning an out-of-range die fails.
	if _, err := m.CreateRegion(RegionSpec{Name: "rgOOR", Dies: []int{99}}); !errors.Is(err, ErrInvalidSpec) {
		t.Fatalf("want ErrInvalidSpec, got %v", err)
	}
	// Naming a die twice fails: the region would count it twice in its
	// capacity, and DEFAULT too after a DROP REGION.
	if _, err := m.CreateRegion(RegionSpec{Name: "rgTwice", Dies: []int{2, 4, 2}}); !errors.Is(err, ErrInvalidSpec) {
		t.Fatalf("a die listed twice: want ErrInvalidSpec, got %v", err)
	}
	// MAX_CHANNELS=1 keeps the region on a single channel.
	r2, err := m.CreateRegion(RegionSpec{Name: "rgOneChan", MaxChips: 2, MaxChannels: 1})
	if err != nil {
		t.Fatalf("CreateRegion one-channel: %v", err)
	}
	_ = r2
	st = m.Stats()
	oc, _ := st.RegionByName("rgOneChan")
	if oc.Channels != 1 {
		t.Fatalf("rgOneChan spans %d channels, want 1", oc.Channels)
	}
}

// TestCreateRegionSpansChannelsAfterDrop: dropping the middle of three
// one-die regions leaves DEFAULT with two dies of channel 1 ahead of its first
// die of channel 0 (dies 1, 3, 4, ...).  A region of two dies on at most two
// channels must still get both channels, passing over die 3 for die 4.
func TestCreateRegionSpansChannelsAfterDrop(t *testing.T) {
	dev := smallDevice(t, 8, 16, 8)
	m := NewManager(dev, DefaultOptions())
	for _, name := range []string{"rgA", "rgB", "rgC"} {
		if _, err := m.CreateRegion(RegionSpec{Name: name, MaxChips: 1}); err != nil {
			t.Fatal(err)
		}
	}
	if err := m.DropRegion("rgB"); err != nil {
		t.Fatal(err)
	}
	if _, err := m.CreateRegion(RegionSpec{Name: "rgWide", MaxChips: 2, MaxChannels: 2}); err != nil {
		t.Fatal(err)
	}
	rs, _ := m.Stats().RegionByName("rgWide")
	if rs.Channels != 2 || len(rs.Dies) != 2 || rs.Dies[0] != 1 || rs.Dies[1] != 4 {
		t.Fatalf("rgWide has dies %v on %d channels, want [1 4] on 2", rs.Dies, rs.Channels)
	}
}

func TestCreateRegionHonoursMaxSize(t *testing.T) {
	dev := smallDevice(t, 4, 16, 8)
	m := NewManager(dev, DefaultOptions())
	pageSize := int64(dev.Geometry().PageSize)
	r, err := m.CreateRegion(RegionSpec{Name: "rgSmall", MaxChips: 2, MaxSizeBytes: 10 * pageSize})
	if err != nil {
		t.Fatal(err)
	}
	_ = r
	st := m.Stats()
	rs, _ := st.RegionByName("rgSmall")
	if rs.CapacityPages != 10 {
		t.Fatalf("capacity = %d pages, want 10 (MAX_SIZE)", rs.CapacityPages)
	}
}

func TestDropAndGrowRegion(t *testing.T) {
	dev := smallDevice(t, 6, 16, 8)
	m := NewManager(dev, DefaultOptions())
	if _, err := m.CreateRegion(RegionSpec{Name: "rgA", MaxChips: 2}); err != nil {
		t.Fatal(err)
	}
	if err := m.GrowRegion("rgA", 1); err != nil {
		t.Fatalf("GrowRegion: %v", err)
	}
	st := m.Stats()
	rs, _ := st.RegionByName("rgA")
	if len(rs.Dies) != 3 {
		t.Fatalf("rgA dies after grow = %v", rs.Dies)
	}
	if err := m.GrowRegion("rgMissing", 1); !errors.Is(err, ErrUnknownRegion) {
		t.Fatalf("want ErrUnknownRegion, got %v", err)
	}
	if err := m.DropRegion("rgMissing"); !errors.Is(err, ErrUnknownRegion) {
		t.Fatalf("want ErrUnknownRegion, got %v", err)
	}
	if err := m.DropRegion(DefaultRegionName); !errors.Is(err, ErrDefaultRegion) {
		t.Fatalf("want ErrDefaultRegion, got %v", err)
	}
	// Write a page into rgA, then dropping it must fail.
	r, _ := m.Region("rgA")
	lpn := m.AllocateLPNs(1)
	if _, err := m.WritePage(0, lpn, fillPage(dev, 1), Hint{Region: r.ID()}); err != nil {
		t.Fatal(err)
	}
	if err := m.DropRegion("rgA"); !errors.Is(err, ErrRegionNotEmpty) {
		t.Fatalf("want ErrRegionNotEmpty, got %v", err)
	}
	if err := m.TrimPage(lpn); err != nil {
		t.Fatal(err)
	}
	if err := m.DropRegion("rgA"); err != nil {
		t.Fatalf("DropRegion after trim: %v", err)
	}
	st = m.Stats()
	def, _ := st.RegionByName(DefaultRegionName)
	if len(def.Dies) != 6 {
		t.Fatalf("default region did not recover dies: %v", def.Dies)
	}
}

func TestWriteReadTrimRoundTrip(t *testing.T) {
	dev := smallDevice(t, 2, 16, 8)
	m := NewManager(dev, DefaultOptions())
	lpn := m.AllocateLPNs(1)
	payload := fillPage(dev, 0x42)

	if _, _, err := m.ReadPage(0, lpn, nil); !errors.Is(err, ErrUnmappedPage) {
		t.Fatalf("want ErrUnmappedPage, got %v", err)
	}
	done, err := m.WritePage(0, lpn, payload, Hint{ObjectID: 7})
	if err != nil {
		t.Fatalf("WritePage: %v", err)
	}
	if done <= 0 {
		t.Fatal("write consumed no virtual time")
	}
	got, rdone, err := m.ReadPage(done, lpn, nil)
	if err != nil {
		t.Fatalf("ReadPage: %v", err)
	}
	if !bytes.Equal(got, payload) {
		t.Fatal("read back different data")
	}
	if rdone <= done {
		t.Fatal("read consumed no virtual time")
	}
	if _, ok := m.Locate(lpn); !ok {
		t.Fatal("page not mapped after write")
	}
	// Overwrite goes out of place: the physical address must change.
	first, _ := m.Locate(lpn)
	payload2 := fillPage(dev, 0x43)
	if _, err := m.WritePage(rdone, lpn, payload2, Hint{}); err != nil {
		t.Fatal(err)
	}
	second, _ := m.Locate(lpn)
	if first == second {
		t.Fatalf("overwrite was in place: %v", first)
	}
	got, _, err = m.ReadPage(rdone, lpn, nil)
	if err != nil || !bytes.Equal(got, payload2) {
		t.Fatalf("read after overwrite wrong: %v", err)
	}
	// Trim unmaps.
	if err := m.TrimPage(lpn); err != nil {
		t.Fatal(err)
	}
	if _, ok := m.Locate(lpn); ok {
		t.Fatal("page still mapped after trim")
	}
	if err := m.TrimPage(lpn); !errors.Is(err, ErrUnmappedPage) {
		t.Fatalf("want ErrUnmappedPage on double trim, got %v", err)
	}
	st := m.Stats()
	if st.HostWrites != 2 || st.HostReads != 2 {
		t.Fatalf("stats wrong: %+v", st)
	}
	if st.ValidPages != 0 {
		t.Fatalf("valid pages after trim = %d", st.ValidPages)
	}
}

func TestWriteHintPlacement(t *testing.T) {
	dev := smallDevice(t, 4, 16, 8)
	m := NewManager(dev, DefaultOptions())
	hot, err := m.CreateRegion(RegionSpec{Name: "rgHot", MaxChips: 2})
	if err != nil {
		t.Fatal(err)
	}
	// Writes hinted at rgHot land on rgHot's dies.
	for i := 0; i < 8; i++ {
		lpn := m.AllocateLPNs(1)
		if _, err := m.WritePage(0, lpn, fillPage(dev, byte(i)), Hint{Region: hot.ID()}); err != nil {
			t.Fatal(err)
		}
		addr, _ := m.Locate(lpn)
		st := m.Stats()
		hs, _ := st.RegionByName("rgHot")
		if !slices.Contains(hs.Dies, addr.Die) {
			t.Fatalf("hinted write landed on die %d outside region %v", addr.Die, hs.Dies)
		}
	}
	// A hint for an unknown region falls back to the default region.
	lpn := m.AllocateLPNs(1)
	if _, err := m.WritePage(0, lpn, fillPage(dev, 9), Hint{Region: 99}); err != nil {
		t.Fatal(err)
	}
	st := m.Stats()
	def, _ := st.RegionByName(DefaultRegionName)
	if def.HostWrites != 1 {
		t.Fatalf("fallback write not counted in default region: %+v", def)
	}
}

func TestTraditionalModeIgnoresHints(t *testing.T) {
	dev := smallDevice(t, 4, 16, 8)
	opts := DefaultOptions()
	opts.Mode = PlacementTraditional
	m := NewManager(dev, opts)
	hot, err := m.CreateRegion(RegionSpec{Name: "rgHot", MaxChips: 2})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 6; i++ {
		lpn := m.AllocateLPNs(1)
		if _, err := m.WritePage(0, lpn, fillPage(dev, byte(i)), Hint{Region: hot.ID()}); err != nil {
			t.Fatal(err)
		}
	}
	st := m.Stats()
	hs, _ := st.RegionByName("rgHot")
	ds, _ := st.RegionByName(DefaultRegionName)
	if hs.HostWrites != 0 {
		t.Fatalf("traditional mode wrote into the hinted region: %+v", hs)
	}
	if ds.HostWrites != 6 {
		t.Fatalf("traditional mode writes = %d, want 6", ds.HostWrites)
	}
	if m.opts.Mode != PlacementTraditional {
		t.Fatalf("mode = %v", m.opts.Mode)
	}
}

func TestWritesStripeAcrossRegionDies(t *testing.T) {
	dev := smallDevice(t, 4, 16, 8)
	m := NewManager(dev, DefaultOptions())
	seen := map[int]int{}
	for i := 0; i < 16; i++ {
		lpn := m.AllocateLPNs(1)
		if _, err := m.WritePage(0, lpn, fillPage(dev, byte(i)), Hint{}); err != nil {
			t.Fatal(err)
		}
		addr, _ := m.Locate(lpn)
		seen[addr.Die]++
	}
	if len(seen) != 4 {
		t.Fatalf("writes used %d dies, want 4 (even distribution): %v", len(seen), seen)
	}
	for die, n := range seen {
		if n != 4 {
			t.Fatalf("die %d received %d writes, want 4: %v", die, n, seen)
		}
	}
}

func TestRegionFullReported(t *testing.T) {
	dev := smallDevice(t, 1, 8, 4) // 32 raw pages on a single die
	opts := DefaultOptions()
	opts.OverprovisionPct = 0.5 // 16 logical pages
	m := NewManager(dev, opts)
	var lastErr error
	writes := 0
	for i := 0; i < 64; i++ {
		lpn := m.AllocateLPNs(1)
		_, err := m.WritePage(0, lpn, fillPage(dev, byte(i)), Hint{})
		if err != nil {
			lastErr = err
			break
		}
		writes++
	}
	if !errors.Is(lastErr, ErrRegionFull) {
		t.Fatalf("expected ErrRegionFull, got %v after %d writes", lastErr, writes)
	}
	if writes == 0 || writes > 16 {
		t.Fatalf("accepted %d new pages, logical capacity is 16", writes)
	}
}

func TestAllocateLPNsMonotonic(t *testing.T) {
	dev := smallDevice(t, 2, 8, 4)
	m := NewManager(dev, DefaultOptions())
	a := m.AllocateLPNs(10)
	b := m.AllocateLPNs(5)
	if b != a+10 {
		t.Fatalf("lpn ranges overlap: %d %d", a, b)
	}
	c := m.AllocateLPNs(1)
	if c != b+5 {
		t.Fatalf("lpn ranges overlap: %d %d", b, c)
	}
}

func TestRegionsListingOrder(t *testing.T) {
	dev := smallDevice(t, 6, 8, 4)
	m := NewManager(dev, DefaultOptions())
	if _, err := m.CreateRegion(RegionSpec{Name: "rgB", MaxChips: 1}); err != nil {
		t.Fatal(err)
	}
	if _, err := m.CreateRegion(RegionSpec{Name: "rgA", MaxChips: 1}); err != nil {
		t.Fatal(err)
	}
	var names []string
	for _, rs := range m.Stats().Regions {
		names = append(names, rs.Name)
	}
	if len(names) != 3 || names[0] != DefaultRegionName || names[1] != "rgB" || names[2] != "rgA" {
		t.Fatalf("region listing = %v", names)
	}
	if _, ok := m.RegionByID(DefaultRegionID); !ok {
		t.Fatal("RegionByID(default) failed")
	}
	if _, ok := m.Region("rgB"); !ok {
		t.Fatal("Region(rgB) failed")
	}
	if _, ok := m.Region("nope"); ok {
		t.Fatal("Region(nope) succeeded")
	}
}

func TestWriteAmplificationHelper(t *testing.T) {
	s := Stats{Counts: Counts{HostWrites: 100, GCCopybacks: 50}}
	if wa := s.WriteAmplification(); wa != 1.5 {
		t.Fatalf("WA = %v", wa)
	}
	if (Stats{}).WriteAmplification() != 0 {
		t.Fatal("WA of empty stats should be 0")
	}
	rs := RegionStats{Counts: Counts{HostWrites: 10, GCCopybacks: 10}}
	if rs.WriteAmplification() != 2 {
		t.Fatal("region WA wrong")
	}
}

// TestVerifyIntegrityChecksDieOwnership breaks the die–region ownership both
// ways it can break: a die whose region was dropped, and a die a region lists
// that points to another region.
func TestVerifyIntegrityChecksDieOwnership(t *testing.T) {
	m := NewManager(smallDevice(t, 4, 16, 8), DefaultOptions())
	r, err := m.CreateRegion(RegionSpec{Name: "rgA", MaxChips: 1})
	if err != nil {
		t.Fatal(err)
	}
	d := m.dies[r.dies[0]]
	if err := m.VerifyIntegrity(); err != nil {
		t.Fatal(err)
	}
	dropped := &Region{id: r.id + 1, name: "rgGone"}
	d.region = dropped
	if err := m.VerifyIntegrity(); err == nil || !strings.Contains(err.Error(), "dropped") {
		t.Fatalf("a die owned by a dropped region: VerifyIntegrity = %v", err)
	}
	d.region = m.regions[DefaultRegionID]
	if err := m.VerifyIntegrity(); err == nil || !strings.Contains(err.Error(), "lists die") {
		t.Fatalf("a listed die owned by another region: VerifyIntegrity = %v", err)
	}
	d.region = r
	r.dies = append(r.dies, r.dies[0])
	if err := m.VerifyIntegrity(); err == nil || !strings.Contains(err.Error(), "twice") {
		t.Fatalf("a region listing a die twice: VerifyIntegrity = %v", err)
	}
}
