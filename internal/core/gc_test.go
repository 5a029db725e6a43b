package core

import (
	"bytes"
	"testing"
	"testing/quick"

	"noftl/internal/flash"
	"noftl/internal/sim"
)

// overwriteWorkload repeatedly overwrites a working set of logical pages so
// that garbage accumulates and GC has to run.
func overwriteWorkload(t *testing.T, m *Manager, dev *flash.Device, pages, rounds int, hint Hint) sim.Time {
	t.Helper()
	start := m.AllocateLPNs(pages)
	now := sim.Time(0)
	for r := 0; r < rounds; r++ {
		for i := 0; i < pages; i++ {
			lpn := start + LPN(i)
			done, err := m.WritePage(now, lpn, fillPage(dev, byte(r+i)), hint)
			if err != nil {
				t.Fatalf("round %d page %d: %v", r, i, err)
			}
			now = done
		}
	}
	return now
}

func TestGCReclaimsSpaceAndPreservesData(t *testing.T) {
	dev := smallDevice(t, 2, 16, 8) // 256 raw pages
	opts := DefaultOptions()
	opts.OverprovisionPct = 0.25
	m := NewManager(dev, opts)

	const pages = 100 // < logical capacity of 192
	const rounds = 8
	start := m.AllocateLPNs(pages)
	now := sim.Time(0)
	for r := 0; r < rounds; r++ {
		for i := 0; i < pages; i++ {
			done, err := m.WritePage(now, start+LPN(i), fillPage(dev, byte(r*31+i)), Hint{})
			if err != nil {
				t.Fatalf("round %d page %d: %v", r, i, err)
			}
			now = done
		}
	}
	st := m.Stats()
	if st.GCErases == 0 {
		t.Fatal("expected garbage collection to have erased blocks")
	}
	if st.HostWrites != pages*rounds {
		t.Fatalf("host writes = %d, want %d", st.HostWrites, pages*rounds)
	}
	if st.ValidPages != pages {
		t.Fatalf("valid pages = %d, want %d", st.ValidPages, pages)
	}
	// All logical pages still hold their latest contents.
	for i := 0; i < pages; i++ {
		want := fillPage(dev, byte((rounds-1)*31+i))
		got, _, err := m.ReadPage(now, start+LPN(i), nil)
		if err != nil {
			t.Fatalf("read lpn %d: %v", i, err)
		}
		if !bytes.Equal(got, want) {
			t.Fatalf("lpn %d lost its latest version after GC", i)
		}
	}
	// Device-level invariant: programs = host writes + copybacks.
	ds := dev.Stats()
	if ds.Programs != st.HostWrites+st.GCCopybacks {
		t.Fatalf("programs=%d, host=%d copybacks=%d", ds.Programs, st.HostWrites, st.GCCopybacks)
	}
	if ds.Erases != st.GCErases {
		t.Fatalf("device erases=%d, gc erases=%d", ds.Erases, st.GCErases)
	}
}

func TestGCRespectsReserveBlocks(t *testing.T) {
	dev := smallDevice(t, 1, 12, 4)
	opts := DefaultOptions()
	opts.OverprovisionPct = 0.4
	m := NewManager(dev, opts)
	overwriteWorkload(t, m, dev, 20, 10, Hint{})
	// After heavy overwriting the die must still have at least the reserve
	// available or in use by GC; the system must not wedge.
	st := m.Stats()
	if st.GCErases == 0 {
		t.Fatal("GC never ran")
	}
	def, _ := st.RegionByName(DefaultRegionName)
	if def.FreeBlocks < gcReserve {
		t.Fatalf("die wedged: %d free blocks", def.FreeBlocks)
	}
}

// TestHotColdSeparationReducesCopybacks is the mechanism behind the paper's
// headline result: separating frequently-updated (hot) pages from static
// (cold) pages into different regions reduces the valid data that GC must
// relocate, hence fewer copybacks for the same host writes.
func TestHotColdSeparationReducesCopybacks(t *testing.T) {
	run := func(separate bool) Stats {
		cfg := flash.DefaultConfig()
		cfg.Geometry = flash.Geometry{
			Channels: 2, DiesPerChannel: 2, PlanesPerDie: 1,
			BlocksPerDie: 32, PagesPerBlock: 16, PageSize: 512,
		}
		dev, err := flash.NewDevice(cfg)
		if err != nil {
			t.Fatal(err)
		}
		opts := DefaultOptions()
		opts.OverprovisionPct = 0.2
		if !separate {
			opts.Mode = PlacementTraditional
		}
		m := NewManager(dev, opts)
		hot, err := m.CreateRegion(RegionSpec{Name: "rgHot", MaxChips: 2})
		if err != nil {
			t.Fatal(err)
		}
		coldHint := Hint{Region: DefaultRegionID}
		hotHint := Hint{Region: hot.ID()}

		// Cold data is written once (30 new pages per round) interleaved with
		// repeated overwrites of a small hot working set, the way a DBMS
		// flush stream interleaves objects.  Without regions, cold and hot
		// pages end up in the same erase blocks.
		const (
			rounds        = 20
			coldPerRound  = 30
			hotPages      = 64
			coldTotal     = rounds * coldPerRound
			hotOverwrites = 2
		)
		coldStart := m.AllocateLPNs(coldTotal)
		hotStart := m.AllocateLPNs(hotPages)
		now := sim.Time(0)
		coldWritten := 0
		for r := 0; r < rounds; r++ {
			for i := 0; i < coldPerRound; i++ {
				done, err := m.WritePage(now, coldStart+LPN(coldWritten), fillPage(dev, 1), coldHint)
				if err != nil {
					t.Fatalf("cold write %d: %v", coldWritten, err)
				}
				coldWritten++
				now = done
			}
			for o := 0; o < hotOverwrites; o++ {
				for i := 0; i < hotPages; i++ {
					done, err := m.WritePage(now, hotStart+LPN(i), fillPage(dev, byte(r)), hotHint)
					if err != nil {
						t.Fatalf("hot write: %v", err)
					}
					now = done
				}
			}
		}
		return m.Stats()
	}

	mixed := run(false)
	separated := run(true)
	if mixed.GCCopybacks == 0 {
		t.Fatal("mixed run produced no copybacks; workload too small to compare")
	}
	if separated.GCCopybacks >= mixed.GCCopybacks {
		t.Fatalf("hot/cold separation did not reduce copybacks: separated=%d mixed=%d",
			separated.GCCopybacks, mixed.GCCopybacks)
	}
	if separated.WriteAmplification() >= mixed.WriteAmplification() {
		t.Fatalf("write amplification not reduced: %.2f vs %.2f",
			separated.WriteAmplification(), mixed.WriteAmplification())
	}
}

func TestWearLevelingEvensOutErases(t *testing.T) {
	dev := smallDevice(t, 1, 16, 8)
	opts := DefaultOptions()
	opts.OverprovisionPct = 0.3
	m := NewManager(dev, opts)

	// A small static set plus a heavily overwritten set on the same die.
	staticPages := 40
	staticStart := m.AllocateLPNs(staticPages)
	now := sim.Time(0)
	for i := 0; i < staticPages; i++ {
		done, err := m.WritePage(now, staticStart+LPN(i), fillPage(dev, 0xCC), Hint{})
		if err != nil {
			t.Fatal(err)
		}
		now = done
	}
	hotStart := m.AllocateLPNs(8)
	for r := 0; r < 3000; r++ {
		for i := 0; i < 8; i++ {
			done, err := m.WritePage(now, hotStart+LPN(i), fillPage(dev, byte(r)), Hint{})
			if err != nil {
				t.Fatal(err)
			}
			now = done
		}
	}
	st := m.Stats()
	if st.WearMoves == 0 {
		t.Fatal("static wear leveling never moved a cold block")
	}
	// Static data must survive wear-leveling relocations.
	for i := 0; i < staticPages; i++ {
		got, _, err := m.ReadPage(now, staticStart+LPN(i), nil)
		if err != nil {
			t.Fatalf("static page %d unreadable: %v", i, err)
		}
		if got[0] != 0xCC {
			t.Fatalf("static page %d corrupted", i)
		}
	}
	// With leveling the wear spread stays near the delta; without it, it
	// would be the hot blocks' whole erase count (about 500 here).
	def, _ := st.RegionByName(DefaultRegionName)
	if def.MaxErase-def.MinErase > wearLevelDelta*4 {
		t.Fatalf("wear spread too large: max=%d min=%d", def.MaxErase, def.MinErase)
	}
}

// Property: after an arbitrary sequence of writes and overwrites the number
// of valid pages tracked by the manager equals the number of distinct mapped
// LPNs, and every mapped page reads back the last value written.
func TestMappingConsistencyProperty(t *testing.T) {
	f := func(ops []uint8) bool {
		dev := smallDevice(t, 2, 16, 8)
		opts := DefaultOptions()
		opts.OverprovisionPct = 0.25
		m := NewManager(dev, opts)
		const universe = 48
		start := m.AllocateLPNs(universe)
		last := map[LPN]byte{}
		now := sim.Time(0)
		for i, op := range ops {
			lpn := start + LPN(int(op)%universe)
			val := byte(i)
			done, err := m.WritePage(now, lpn, fillPage(dev, val), Hint{})
			if err != nil {
				return false
			}
			now = done
			last[lpn] = val
		}
		st := m.Stats()
		if st.ValidPages != int64(len(last)) {
			return false
		}
		for lpn, val := range last {
			got, _, err := m.ReadPage(now, lpn, nil)
			if err != nil || got[0] != val {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Fatal(err)
	}
}

func TestResetCountersKeepsMapping(t *testing.T) {
	dev := smallDevice(t, 2, 16, 8)
	m := NewManager(dev, DefaultOptions())
	lpn := m.AllocateLPNs(1)
	if _, err := m.WritePage(0, lpn, fillPage(dev, 5), Hint{}); err != nil {
		t.Fatal(err)
	}
	m.ResetCounters()
	st := m.Stats()
	if st.HostWrites != 0 || dev.Stats().Programs != 0 {
		t.Fatalf("counters survived reset: %+v", st)
	}
	if st.ValidPages != 1 {
		t.Fatalf("mapping lost on reset: %d valid pages", st.ValidPages)
	}
	got, _, err := m.ReadPage(0, lpn, nil)
	if err != nil || got[0] != 5 {
		t.Fatalf("data lost on reset: %v", err)
	}
}

func TestStatsStringAndLatencySnapshot(t *testing.T) {
	dev := smallDevice(t, 2, 16, 8)
	m := NewManager(dev, DefaultOptions())
	lpn := m.AllocateLPNs(1)
	done, err := m.WritePage(0, lpn, fillPage(dev, 5), Hint{})
	if err != nil {
		t.Fatal(err)
	}
	if _, _, err := m.ReadPage(done, lpn, nil); err != nil {
		t.Fatal(err)
	}
	st := m.Stats()
	if st.String() == "" {
		t.Fatal("empty stats string")
	}
	r, w := st.Regions[0].ReadLatency, st.Regions[0].WriteLatency
	if r.Count != 1 || w.Count != 1 {
		t.Fatalf("latency counts: %+v %+v", r, w)
	}
	if r.Mean <= 0 || w.Mean <= 0 {
		t.Fatalf("latency means: %v %v", r.Mean, w.Mean)
	}
	if w.Mean <= r.Mean {
		t.Fatalf("write latency (%v) should exceed read latency (%v) on NAND", w.Mean, r.Mean)
	}
}

// TestVerifyIntegrityAfterStress cross-checks every internal invariant of the
// space manager after a GC- and wear-leveling-heavy workload, including a
// multi-region configuration with spills.
func TestVerifyIntegrityAfterStress(t *testing.T) {
	dev := smallDevice(t, 4, 24, 8)
	opts := DefaultOptions()
	opts.OverprovisionPct = 0.2
	m := NewManager(dev, opts)
	if err := m.VerifyIntegrity(); err != nil {
		t.Fatalf("fresh manager inconsistent: %v", err)
	}
	hot, err := m.CreateRegion(RegionSpec{Name: "rgHot", MaxChips: 1})
	if err != nil {
		t.Fatal(err)
	}
	// Mixed workload: cold fill in the default region, heavy overwrites in a
	// deliberately undersized hot region so spills occur, plus trims.
	coldStart := m.AllocateLPNs(300)
	hotStart := m.AllocateLPNs(200)
	now := sim.Time(0)
	for i := 0; i < 300; i++ {
		done, err := m.WritePage(now, coldStart+LPN(i), fillPage(dev, 1), Hint{})
		if err != nil {
			t.Fatal(err)
		}
		now = done
	}
	for r := 0; r < 400; r++ {
		for i := 0; i < 200; i++ {
			done, err := m.WritePage(now, hotStart+LPN(i), fillPage(dev, byte(r)), Hint{Region: hot.ID()})
			if err != nil {
				t.Fatal(err)
			}
			now = done
		}
	}
	for i := 0; i < 100; i += 2 {
		if err := m.TrimPage(coldStart + LPN(i)); err != nil {
			t.Fatal(err)
		}
	}
	if err := m.VerifyIntegrity(); err != nil {
		t.Fatalf("integrity violated after stress: %v", err)
	}
	st := m.Stats()
	if st.GCErases == 0 {
		t.Fatal("stress workload never triggered GC")
	}
	hs, _ := st.RegionByName("rgHot")
	if hs.SpilledWrites == 0 {
		t.Fatal("undersized hot region never spilled (sizing assumption broken)")
	}
	if st.WearMoves == 0 {
		t.Fatal("stress workload never leveled wear")
	}
}

// Property: interleaving batched writes (WritePages) with background GC
// steps preserves every invariant the manager maintains — invalid-page
// accounting, per-block valid counters, per-region valid-page totals — and
// every logical page reads back the last value written.  The config byte
// varies the GC policy (victim selection, hot/cold routing, step size) so
// the property holds across the whole policy space.
func TestGCConsistencyUnderBatchedWritesProperty(t *testing.T) {
	f := func(ops []uint8, cfg uint8) bool {
		dev := smallDevice(t, 2, 16, 8)
		opts := DefaultOptions()
		opts.OverprovisionPct = 0.25
		if cfg&1 != 0 {
			opts.GC.Victim = VictimCostBenefit
		}
		if cfg&2 != 0 {
			opts.GC.DisableHotCold = true
		}
		opts.GC.StepPages = int(cfg>>2)%4 + 1
		m := NewManager(dev, opts)
		const universe = 48
		start := m.AllocateLPNs(universe)
		last := map[LPN]byte{}
		now := sim.Time(0)
		for i := 0; i < len(ops); {
			n := int(ops[i])%7 + 1
			writes := make([]PageWrite, 0, n)
			for j := 0; j < n && i < len(ops); j++ {
				lpn := start + LPN(int(ops[i])%universe)
				val := byte(i)
				writes = append(writes, PageWrite{LPN: lpn, Data: fillPage(dev, val)})
				last[lpn] = val
				i++
			}
			done, err := m.WritePages(now, writes)
			if err != nil {
				return false
			}
			now = done
			if err := m.VerifyIntegrity(); err != nil {
				t.Logf("integrity after batch ending at op %d: %v", i, err)
				return false
			}
			if st := m.Stats(); st.ValidPages != int64(len(last)) {
				t.Logf("valid pages %d, want %d distinct LPNs", st.ValidPages, len(last))
				return false
			}
		}
		lpns := make([]LPN, 0, len(last))
		for lpn := range last {
			lpns = append(lpns, lpn)
		}
		reads, _ := m.ReadPages(now, lpns, nil)
		for k, rd := range reads {
			if rd.Err != nil || rd.Data[0] != last[lpns[k]] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 25}); err != nil {
		t.Fatal(err)
	}
}
